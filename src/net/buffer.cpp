#include "net/buffer.hpp"

#include <cstdio>
#include <stdexcept>

namespace net {

void Buffer::throw_out_of_range(std::size_t off, std::size_t len,
                                const char* what) const {
  throw std::out_of_range(std::string("Buffer::") + what + ": [" +
                          std::to_string(off) + ", " +
                          std::to_string(off + len) + ") exceeds size " +
                          std::to_string(bytes_.size()));
}

std::uint8_t Buffer::u8(std::size_t off) const {
  check(off, 1, "u8");
  return bytes_[off];
}

std::uint16_t Buffer::u16(std::size_t off) const {
  check(off, 2, "u16");
  return static_cast<std::uint16_t>(bytes_[off] << 8 | bytes_[off + 1]);
}

std::uint32_t Buffer::u32(std::size_t off) const {
  check(off, 4, "u32");
  return static_cast<std::uint32_t>(bytes_[off]) << 24 |
         static_cast<std::uint32_t>(bytes_[off + 1]) << 16 |
         static_cast<std::uint32_t>(bytes_[off + 2]) << 8 |
         static_cast<std::uint32_t>(bytes_[off + 3]);
}

std::uint64_t Buffer::u64(std::size_t off) const {
  check(off, 8, "u64");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = v << 8 | bytes_[off + i];
  return v;
}

void Buffer::set_u8(std::size_t off, std::uint8_t v) {
  check(off, 1, "set_u8");
  bytes_[off] = v;
}

void Buffer::set_u16(std::size_t off, std::uint16_t v) {
  check(off, 2, "set_u16");
  bytes_[off] = static_cast<std::uint8_t>(v >> 8);
  bytes_[off + 1] = static_cast<std::uint8_t>(v);
}

void Buffer::set_u32(std::size_t off, std::uint32_t v) {
  check(off, 4, "set_u32");
  bytes_[off] = static_cast<std::uint8_t>(v >> 24);
  bytes_[off + 1] = static_cast<std::uint8_t>(v >> 16);
  bytes_[off + 2] = static_cast<std::uint8_t>(v >> 8);
  bytes_[off + 3] = static_cast<std::uint8_t>(v);
}

void Buffer::set_u64(std::size_t off, std::uint64_t v) {
  check(off, 8, "set_u64");
  for (std::size_t i = 0; i < 8; ++i) {
    bytes_[off + i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  }
}

std::uint32_t Buffer::u32le(std::size_t off) const {
  check(off, 4, "u32le");
  return static_cast<std::uint32_t>(bytes_[off]) |
         static_cast<std::uint32_t>(bytes_[off + 1]) << 8 |
         static_cast<std::uint32_t>(bytes_[off + 2]) << 16 |
         static_cast<std::uint32_t>(bytes_[off + 3]) << 24;
}

void Buffer::set_u32le(std::size_t off, std::uint32_t v) {
  check(off, 4, "set_u32le");
  bytes_[off] = static_cast<std::uint8_t>(v);
  bytes_[off + 1] = static_cast<std::uint8_t>(v >> 8);
  bytes_[off + 2] = static_cast<std::uint8_t>(v >> 16);
  bytes_[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

std::span<const std::uint8_t> Buffer::view(std::size_t off,
                                           std::size_t len) const {
  check(off, len, "view");
  return {bytes_.data() + off, len};
}

void Buffer::write(std::size_t off, std::span<const std::uint8_t> src) {
  check(off, src.size(), "write");
  std::copy(src.begin(), src.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(off));
}

void Buffer::append(std::span<const std::uint8_t> src) {
  bytes_.insert(bytes_.end(), src.begin(), src.end());
}

std::string Buffer::hex() const {
  std::string out;
  out.reserve(bytes_.size() * 2);
  char tmp[3];
  for (std::uint8_t b : bytes_) {
    std::snprintf(tmp, sizeof(tmp), "%02x", b);
    out += tmp;
  }
  return out;
}

}  // namespace net
