// Bounds-checked byte buffer used for all wire data in the simulator.
//
// Every read/write validates its range and throws std::out_of_range on
// violation — a simulated router should fail loudly on a malformed access,
// not corrupt neighbouring state. Multi-byte integer accessors use network
// byte order (big-endian), matching real packet headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace net {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size) : bytes_(size, 0) {}
  explicit Buffer(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  void resize(std::size_t n) { bytes_.resize(n, 0); }

  std::uint8_t u8(std::size_t off) const;
  std::uint16_t u16(std::size_t off) const;  // big-endian
  std::uint32_t u32(std::size_t off) const;  // big-endian
  std::uint64_t u64(std::size_t off) const;  // big-endian

  void set_u8(std::size_t off, std::uint8_t v);
  void set_u16(std::size_t off, std::uint16_t v);
  void set_u32(std::size_t off, std::uint32_t v);
  void set_u64(std::size_t off, std::uint64_t v);

  /// Little-endian 32-bit accessors, used for gradient payloads (hosts
  /// write gradients in native x86 order, as SwitchML/ATP do).
  std::uint32_t u32le(std::size_t off) const;
  void set_u32le(std::size_t off, std::uint32_t v);

  std::span<const std::uint8_t> view(std::size_t off, std::size_t len) const;
  void write(std::size_t off, std::span<const std::uint8_t> src);

  /// Appends bytes to the end.
  void append(std::span<const std::uint8_t> src);

  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::span<std::uint8_t> mutable_bytes() { return bytes_; }

  /// Steals the underlying storage, leaving this buffer empty. Used by the
  /// packet pool to recycle frame memory (see net/buffer_pool.hpp).
  std::vector<std::uint8_t> take_storage() {
    std::vector<std::uint8_t> out = std::move(bytes_);
    bytes_.clear();
    return out;
  }

  bool operator==(const Buffer&) const = default;

  std::string hex() const;

 private:
  // The range test inlines into every accessor; only the throw is out of
  // line.
  void check(std::size_t off, std::size_t len, const char* what) const {
    if (off + len > bytes_.size() || off + len < off) [[unlikely]] {
      throw_out_of_range(off, len, what);
    }
  }
  [[noreturn, gnu::cold]] void throw_out_of_range(std::size_t off,
                                                  std::size_t len,
                                                  const char* what) const;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace net
