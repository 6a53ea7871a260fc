// The one byte codec under both process boundaries: the shard server's
// wire frames (runtime/wire.h), the encrypted configuration handshake
// (net/config_protocol.h), and the handshake cipher's integrity tag
// (mac/crypto.h).
//
// Layout rules: little-endian fixed-width integers, doubles as their
// IEEE-754 bit pattern through std::bit_cast (lossless, ±inf and NaN
// payloads included), strings as a u64 byte count followed by the bytes.
// Every read is bounds-checked and throws ByteError on truncation, so a
// short input never yields a partially filled value.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace reshape::util {

/// Any malformed input: truncation, impossible lengths, trailing bytes,
/// or a value its decoder refuses.
class ByteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian builder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v) { little_endian(v, 2); }
  void u32(std::uint32_t v) { little_endian(v, 4); }
  void u64(std::uint64_t v) { little_endian(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }  // lossless
  void str(std::string_view v);  // u64 count, then the bytes

  /// Appends raw bytes with no count prefix.
  void bytes(std::span<const std::uint8_t> v);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  void little_endian(std::uint64_t v, std::size_t n);

  std::vector<std::uint8_t> buffer_;
};

/// Consuming little-endian parser; every getter throws ByteError on
/// truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  [[nodiscard]] std::uint8_t u8() { return fixed<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return fixed<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return fixed<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return fixed<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str();

  /// The next `n` raw bytes (a view into the input).
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n);

  /// A u64 element count, validated against the bytes actually left
  /// (every element encodes at least one byte, so a bigger count is
  /// malformed — the cap that keeps a corrupt length from allocating).
  [[nodiscard]] std::size_t length();

  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }

  /// Throws ByteError unless every byte was consumed.
  void require_exhausted() const;

 private:
  template <typename T>
  [[nodiscard]] T fixed() {
    return static_cast<T>(little_endian(sizeof(T)));
  }

  /// Little-endian value of the next `n` bytes (n <= 8).
  [[nodiscard]] std::uint64_t little_endian(std::size_t n);

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace reshape::util
