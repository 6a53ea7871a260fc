#include "net/config_protocol.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/bytes.h"
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

/// payload = [cipher_nonce (u64, clear) | ciphertext...]
std::vector<std::uint8_t> seal(const util::ByteWriter& body,
                               const mac::StreamCipher& cipher,
                               std::uint64_t cipher_nonce) {
  util::ByteWriter payload;
  payload.u64(cipher_nonce);
  payload.bytes(cipher.encrypt(body.buffer(), cipher_nonce));
  return payload.take();
}

/// Decrypts `payload`, checks the body's tag byte, and parses the rest
/// with `parse`, which must consume it exactly. std::nullopt on a wrong
/// key, tampering, a foreign tag, a body the reader rejects (truncation,
/// an impossible count, trailing bytes), or one `parse` refuses.
template <typename T, typename Parse>
std::optional<T> open(const std::vector<std::uint8_t>& payload,
                      const mac::StreamCipher& cipher, std::uint8_t tag,
                      const Parse& parse) {
  try {
    util::ByteReader sealed{payload};
    const std::uint64_t cipher_nonce = sealed.u64();
    const std::span<const std::uint8_t> ct = sealed.bytes(sealed.remaining());
    const auto body =
        cipher.decrypt(std::vector<std::uint8_t>(ct.begin(), ct.end()),
                       cipher_nonce);
    if (!body) {
      return std::nullopt;
    }
    util::ByteReader r{*body};
    if (r.u8() != tag) {
      return std::nullopt;
    }
    std::optional<T> out = parse(r);
    r.require_exhausted();
    return out;
  } catch (const util::ByteError&) {
    return std::nullopt;
  }
}

void put_addresses(util::ByteWriter& w,
                   const std::vector<mac::MacAddress>& addresses) {
  w.u64(addresses.size());
  for (const mac::MacAddress& a : addresses) {
    w.u64(a.to_u64());
  }
}

std::vector<mac::MacAddress> get_addresses(util::ByteReader& r,
                                           std::size_t count) {
  std::vector<mac::MacAddress> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(mac::MacAddress::from_u64(r.u64()));
  }
  return out;
}

/// A list length in [1, kMaxListLength]; 0 for anything else.
std::size_t list_length(util::ByteReader& r) {
  const std::uint64_t n = r.u64();
  return n == 0 || n > kMaxListLength ? 0 : static_cast<std::size_t>(n);
}

/// `n` u64 fields that must each fit a uint32 (range bounds, pad sizes);
/// std::nullopt when one does not.
std::optional<std::vector<std::uint32_t>> u32_list(util::ByteReader& r,
                                                   std::size_t n) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = r.u64();
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      return std::nullopt;
    }
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const ConfigRequest& request,
                                         const mac::StreamCipher& cipher,
                                         std::uint64_t cipher_nonce) {
  util::ByteWriter body;
  body.u8(kRequestTag);
  body.u64(request.physical_address.to_u64());
  body.u64(request.nonce);
  body.u64(request.requested_interfaces);
  return seal(body, cipher, cipher_nonce);
}

std::optional<ConfigRequest> decode_request(
    const std::vector<std::uint8_t>& payload,
    const mac::StreamCipher& cipher) {
  return open<ConfigRequest>(
      payload, cipher, kRequestTag, [](util::ByteReader& r) {
        ConfigRequest req;
        req.physical_address = mac::MacAddress::from_u64(r.u64());
        req.nonce = r.u64();
        req.requested_interfaces = static_cast<std::uint32_t>(r.u64());
        return std::optional{req};
      });
}

std::vector<std::uint8_t> encode_response(const ConfigResponse& response,
                                          const mac::StreamCipher& cipher,
                                          std::uint64_t cipher_nonce) {
  util::ByteWriter body;
  body.u8(kResponseTag);
  body.u64(response.nonce);
  put_addresses(body, response.virtual_addresses);
  return seal(body, cipher, cipher_nonce);
}

std::optional<ConfigResponse> decode_response(
    const std::vector<std::uint8_t>& payload,
    const mac::StreamCipher& cipher) {
  return open<ConfigResponse>(
      payload, cipher, kResponseTag, [](util::ByteReader& r) {
        ConfigResponse resp;
        resp.nonce = r.u64();
        // length() bounds the count by the bytes present, so a count
        // that would wrap an offset computation is a truncation here.
        resp.virtual_addresses = get_addresses(r, r.length());
        return std::optional{resp};
      });
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

  util::ByteWriter body;
  body.u8(kTunedConfigTag);
  body.u64(update.nonce);
  put_addresses(body, update.virtual_addresses);
  body.u64(update.config.range_bounds.size());
  for (const std::uint32_t bound : update.config.range_bounds) {
    body.u64(bound);
  }
  for (const std::size_t owner : update.config.assignment) {
    body.u64(owner);
  }
  body.u64(update.config.interfaces);
  for (const std::uint32_t pad : update.config.pad_to) {
    body.u64(pad);
  }
  return seal(body, cipher, cipher_nonce);
}

std::optional<TunedConfigUpdate> decode_tuned_config(
    const std::vector<std::uint8_t>& payload,
    const mac::StreamCipher& cipher) {
  return open<TunedConfigUpdate>(
      payload, cipher, kTunedConfigTag,
      [](util::ByteReader& r) -> std::optional<TunedConfigUpdate> {
        TunedConfigUpdate update;
        update.nonce = r.u64();
        const std::size_t addresses = list_length(r);
        if (addresses == 0) {
          return std::nullopt;
        }
        update.virtual_addresses = get_addresses(r, addresses);

        const std::size_t ranges = list_length(r);
        auto bounds = u32_list(r, ranges);
        if (ranges == 0 || !bounds || std::ranges::count(*bounds, 0u) > 0) {
          return std::nullopt;
        }
        update.config.range_bounds = std::move(*bounds);
        for (std::size_t j = 0; j < ranges; ++j) {
          update.config.assignment.push_back(
              static_cast<std::size_t>(r.u64()));
        }

        update.config.interfaces = list_length(r);
        auto pads = u32_list(r, update.config.interfaces);
        if (update.config.interfaces == 0 || !pads) {
          return std::nullopt;
        }
        update.config.pad_to = std::move(*pads);

        update.config.name = "tuned";
        if (!update.config.structurally_valid() ||
            update.virtual_addresses.size() != update.config.interfaces) {
          return std::nullopt;
        }
        return update;
      });
}

}  // namespace reshape::net
