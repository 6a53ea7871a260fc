#include "net/config_protocol.h"

#include <limits>

#include "util/check.h"

namespace reshape::net {

namespace {

constexpr std::uint8_t kRequestTag = 0x01;
constexpr std::uint8_t kResponseTag = 0x02;
constexpr std::uint8_t kTunedConfigTag = 0x03;

/// Sanity ceiling for decoded vector lengths; far above any real I or L
/// (ApConfig::max_interfaces tops out at 8) but small enough that a
/// malformed length field cannot drive a huge allocation.
constexpr std::uint64_t kMaxListLength = 64;

/// payload = [cipher_nonce (8, clear) | ciphertext...]
std::vector<std::uint8_t> seal(const std::vector<std::uint8_t>& body,
                               const mac::StreamCipher& cipher,
                               std::uint64_t cipher_nonce) {
  std::vector<std::uint8_t> payload;
  mac::put_u64(payload, cipher_nonce);
  const auto ct = cipher.encrypt(body, cipher_nonce);
  payload.insert(payload.end(), ct.begin(), ct.end());
  return payload;
}

std::optional<std::vector<std::uint8_t>> unseal(
    const std::vector<std::uint8_t>& payload,
    const mac::StreamCipher& cipher) {
  if (payload.size() < 8) {
    return std::nullopt;
  }
  const std::uint64_t cipher_nonce = mac::get_u64(payload, 0);
  const std::vector<std::uint8_t> ct(payload.begin() + 8, payload.end());
  return cipher.decrypt(ct, cipher_nonce);
}

}  // namespace

std::vector<std::uint8_t> encode_request(const ConfigRequest& request,
                                         const mac::StreamCipher& cipher,
                                         std::uint64_t cipher_nonce) {
  std::vector<std::uint8_t> body;
  body.push_back(kRequestTag);
  mac::put_u64(body, request.physical_address.to_u64());
  mac::put_u64(body, request.nonce);
  mac::put_u64(body, request.requested_interfaces);
  return seal(body, cipher, cipher_nonce);
}

std::optional<ConfigRequest> decode_request(
    const std::vector<std::uint8_t>& payload,
    const mac::StreamCipher& cipher) {
  const auto body = unseal(payload, cipher);
  if (!body || body->size() != 1 + 8 * 3 || (*body)[0] != kRequestTag) {
    return std::nullopt;
  }
  ConfigRequest req;
  req.physical_address = mac::MacAddress::from_u64(mac::get_u64(*body, 1));
  req.nonce = mac::get_u64(*body, 9);
  req.requested_interfaces =
      static_cast<std::uint32_t>(mac::get_u64(*body, 17));
  return req;
}

std::vector<std::uint8_t> encode_response(const ConfigResponse& response,
                                          const mac::StreamCipher& cipher,
                                          std::uint64_t cipher_nonce) {
  std::vector<std::uint8_t> body;
  body.push_back(kResponseTag);
  mac::put_u64(body, response.nonce);
  mac::put_u64(body, response.virtual_addresses.size());
  for (const mac::MacAddress& a : response.virtual_addresses) {
    mac::put_u64(body, a.to_u64());
  }
  return seal(body, cipher, cipher_nonce);
}

std::optional<ConfigResponse> decode_response(
    const std::vector<std::uint8_t>& payload,
    const mac::StreamCipher& cipher) {
  const auto body = unseal(payload, cipher);
  if (!body || body->size() < 1 + 16 || (*body)[0] != kResponseTag) {
    return std::nullopt;
  }
  ConfigResponse resp;
  resp.nonce = mac::get_u64(*body, 1);
  const std::uint64_t count = mac::get_u64(*body, 9);
  // Bound count by the bytes present before multiplying: 17 + count * 8
  // wraps for count >= 2^61.
  const std::size_t addresses_bytes = body->size() - (1 + 16);
  if (addresses_bytes % 8 != 0 || count != addresses_bytes / 8) {
    return std::nullopt;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    resp.virtual_addresses.push_back(
        mac::MacAddress::from_u64(mac::get_u64(*body, 17 + i * 8)));
  }
  return resp;
}

// Body layout (every field a u64 after the tag byte):
//   tag | nonce | A | addr*A | L | bound*L | owner*L | I | pad*I
std::vector<std::uint8_t> encode_tuned_config(const TunedConfigUpdate& update,
                                              const mac::StreamCipher& cipher,
                                              std::uint64_t cipher_nonce) {
  update.config.validate();
  util::require(
      update.virtual_addresses.size() == update.config.interfaces,
      "encode_tuned_config: one virtual address per configured interface");

  std::vector<std::uint8_t> body;
  body.push_back(kTunedConfigTag);
  mac::put_u64(body, update.nonce);
  mac::put_u64(body, update.virtual_addresses.size());
  for (const mac::MacAddress& a : update.virtual_addresses) {
    mac::put_u64(body, a.to_u64());
  }
  mac::put_u64(body, update.config.range_bounds.size());
  for (const std::uint32_t bound : update.config.range_bounds) {
    mac::put_u64(body, bound);
  }
  for (const std::size_t owner : update.config.assignment) {
    mac::put_u64(body, owner);
  }
  mac::put_u64(body, update.config.interfaces);
  for (const std::uint32_t pad : update.config.pad_to) {
    mac::put_u64(body, pad);
  }
  return seal(body, cipher, cipher_nonce);
}

std::optional<TunedConfigUpdate> decode_tuned_config(
    const std::vector<std::uint8_t>& payload,
    const mac::StreamCipher& cipher) {
  const auto body = unseal(payload, cipher);
  // Fixed part: tag + nonce + A + L + I.
  if (!body || body->size() < 1 + 8 * 2 || (*body)[0] != kTunedConfigTag) {
    return std::nullopt;
  }
  TunedConfigUpdate update;
  std::size_t at = 1;
  const auto take_u64 = [&](std::uint64_t& out) {
    if (body->size() < at + 8) {
      return false;
    }
    out = mac::get_u64(*body, at);
    at += 8;
    return true;
  };

  std::uint64_t addr_count = 0;
  if (!take_u64(update.nonce) || !take_u64(addr_count) ||
      addr_count == 0 || addr_count > kMaxListLength ||
      body->size() < at + addr_count * 8) {
    return std::nullopt;
  }
  for (std::uint64_t i = 0; i < addr_count; ++i) {
    std::uint64_t raw = 0;
    (void)take_u64(raw);
    update.virtual_addresses.push_back(mac::MacAddress::from_u64(raw));
  }

  std::uint64_t ranges = 0;
  if (!take_u64(ranges) || ranges == 0 || ranges > kMaxListLength ||
      body->size() < at + ranges * 16) {
    return std::nullopt;
  }
  for (std::uint64_t j = 0; j < ranges; ++j) {
    std::uint64_t bound = 0;
    (void)take_u64(bound);
    if (bound == 0 || bound > std::numeric_limits<std::uint32_t>::max()) {
      return std::nullopt;
    }
    update.config.range_bounds.push_back(static_cast<std::uint32_t>(bound));
  }
  for (std::uint64_t j = 0; j < ranges; ++j) {
    std::uint64_t owner = 0;
    (void)take_u64(owner);
    update.config.assignment.push_back(static_cast<std::size_t>(owner));
  }

  std::uint64_t interfaces = 0;
  if (!take_u64(interfaces) || interfaces == 0 ||
      interfaces > kMaxListLength ||
      body->size() != at + interfaces * 8) {
    return std::nullopt;
  }
  update.config.interfaces = static_cast<std::size_t>(interfaces);
  for (std::uint64_t i = 0; i < interfaces; ++i) {
    std::uint64_t pad = 0;
    (void)take_u64(pad);
    if (pad > std::numeric_limits<std::uint32_t>::max()) {
      return std::nullopt;
    }
    update.config.pad_to.push_back(static_cast<std::uint32_t>(pad));
  }

  update.config.name = "tuned";
  if (!update.config.structurally_valid() ||
      update.virtual_addresses.size() != update.config.interfaces) {
    return std::nullopt;
  }
  return update;
}

}  // namespace reshape::net
