#include "mac/crypto.h"

#include "util/bytes.h"
#include "util/rng.h"

namespace reshape::mac {

namespace {

/// Keystream generator: SplitMix64 over (key, nonce, block index).
class Keystream {
 public:
  Keystream(SymmetricKey key, std::uint64_t nonce)
      : state_{util::splitmix64(key.hi ^ util::splitmix64(key.lo ^ nonce))} {}

  std::uint8_t next_byte() {
    if (bytes_left_ == 0) {
      current_ = util::splitmix64(state_++);
      bytes_left_ = 8;
    }
    const auto b = static_cast<std::uint8_t>(current_ & 0xFFu);
    current_ >>= 8;
    --bytes_left_;
    return b;
  }

 private:
  std::uint64_t state_;
  std::uint64_t current_ = 0;
  int bytes_left_ = 0;
};

}  // namespace

std::uint64_t NonceGenerator::next() {
  return util::splitmix64(state_ ^ counter_++);
}

std::uint64_t StreamCipher::tag(const std::vector<std::uint8_t>& data,
                                std::uint64_t nonce) const {
  // FNV-style keyed accumulation finalised through SplitMix64.
  std::uint64_t acc = key_.lo ^ util::splitmix64(key_.hi ^ nonce);
  for (const std::uint8_t b : data) {
    acc = (acc ^ b) * 0x100000001B3ULL;
  }
  return util::splitmix64(acc);
}

std::vector<std::uint8_t> StreamCipher::encrypt(
    const std::vector<std::uint8_t>& plaintext, std::uint64_t nonce) const {
  Keystream ks{key_, nonce};
  util::ByteWriter out;
  for (const std::uint8_t b : plaintext) {
    out.u8(static_cast<std::uint8_t>(b ^ ks.next_byte()));
  }
  out.u64(tag(plaintext, nonce));
  return out.take();
}

std::optional<std::vector<std::uint8_t>> StreamCipher::decrypt(
    const std::vector<std::uint8_t>& ciphertext, std::uint64_t nonce) const {
  if (ciphertext.size() < 8) {
    return std::nullopt;
  }
  util::ByteReader r{ciphertext};
  Keystream ks{key_, nonce};
  std::vector<std::uint8_t> plain;
  for (const std::uint8_t b : r.bytes(ciphertext.size() - 8)) {
    plain.push_back(static_cast<std::uint8_t>(b ^ ks.next_byte()));
  }
  if (r.u64() != tag(plain, nonce)) {  // the 8-byte tag that follows
    return std::nullopt;
  }
  return plain;
}

}  // namespace reshape::mac
