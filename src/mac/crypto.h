// Toy symmetric cipher + nonces for the virtual-interface configuration
// handshake (paper §III-B.1, Figure 2).
//
// The paper's handshake is "encrypted, thus the adversary does not know the
// mapping between the physical address and the virtual MAC addresses".
// What the reproduction needs from crypto is exactly that property inside
// the simulation: an eavesdropper object holding ciphertext but not the key
// cannot parse the mapping, while the AP/client can. A keyed xorshift
// stream cipher with an appended keyed checksum provides confidentiality
// and integrity *against the simulated adversary* (which only ever calls
// the public decrypt API). It is explicitly NOT real-world cryptography —
// a deployment would use the WPA2 pairwise keys the driver already has.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace reshape::mac {

/// A 128-bit symmetric key.
struct SymmetricKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const SymmetricKey&, const SymmetricKey&) = default;
};

/// Monotonically unique 64-bit nonce source (per endpoint).
class NonceGenerator {
 public:
  explicit NonceGenerator(std::uint64_t seed) : state_{seed} {}

  /// Returns a fresh nonce; never repeats for 2^64 calls.
  [[nodiscard]] std::uint64_t next();

 private:
  std::uint64_t state_;
  std::uint64_t counter_ = 0;
};

/// Keyed stream cipher with integrity tag.
///
/// encrypt() produces ciphertext = keystream XOR plaintext, followed by an
/// 8-byte keyed checksum (a little-endian u64, util/bytes.h); decrypt() returns std::nullopt when the key is
/// wrong or the message was tampered with.
class StreamCipher {
 public:
  explicit StreamCipher(SymmetricKey key) : key_{key} {}

  [[nodiscard]] std::vector<std::uint8_t> encrypt(
      const std::vector<std::uint8_t>& plaintext, std::uint64_t nonce) const;

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> decrypt(
      const std::vector<std::uint8_t>& ciphertext, std::uint64_t nonce) const;

 private:
  [[nodiscard]] std::uint64_t tag(const std::vector<std::uint8_t>& data,
                                  std::uint64_t nonce) const;

  SymmetricKey key_;
};

}  // namespace reshape::mac
