#include "util/bytes.h"

namespace reshape::util {

void ByteWriter::little_endian(std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::str(std::string_view v) {
  u64(v.size());
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> v) {
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) {
    throw ByteError{"bytes: truncated input"};
  }
  const std::span<const std::uint8_t> out = bytes_.subspan(offset_, n);
  offset_ += n;
  return out;
}

std::uint64_t ByteReader::little_endian(std::size_t n) {
  const std::span<const std::uint8_t> b = bytes(n);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  }
  return v;
}

std::size_t ByteReader::length() {
  const std::uint64_t n = u64();
  if (n > remaining()) {
    throw ByteError{"bytes: impossible element count"};
  }
  return static_cast<std::size_t>(n);
}

std::string ByteReader::str() {
  const std::span<const std::uint8_t> s = bytes(length());
  return {s.begin(), s.end()};
}

void ByteReader::require_exhausted() const {
  if (remaining() != 0) {
    throw ByteError{"bytes: trailing bytes after payload"};
  }
}

}  // namespace reshape::util
