#include "microcode/bitfield.hpp"

#include <stdexcept>
#include <string>

namespace microcode {

namespace {

void check_field(std::size_t size, std::size_t bit_off, unsigned width,
                 const char* what) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument(std::string(what) +
                                ": width must be 1..64");
  }
  if (bit_off + width > size * 8) {
    throw std::out_of_range(std::string(what) + ": field at bit " +
                            std::to_string(bit_off) + " width " +
                            std::to_string(width) + " exceeds " +
                            std::to_string(size) + " bytes");
  }
}

}  // namespace

std::uint64_t read_bits(std::span<const std::uint8_t> bytes,
                        std::size_t bit_off, unsigned width) {
  check_field(bytes.size(), bit_off, width, "read_bits");
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    const std::size_t bit = bit_off + i;
    const std::uint8_t byte = bytes[bit / 8];
    const unsigned shift = 7 - bit % 8;  // MSB-first
    v = v << 1 | ((byte >> shift) & 1u);
  }
  return v;
}

void write_bits(std::span<std::uint8_t> bytes, std::size_t bit_off,
                unsigned width, std::uint64_t value) {
  check_field(bytes.size(), bit_off, width, "write_bits");
  for (unsigned i = 0; i < width; ++i) {
    const std::size_t bit = bit_off + i;
    const unsigned shift = 7 - bit % 8;
    const std::uint64_t b = (value >> (width - 1 - i)) & 1u;
    std::uint8_t& byte = bytes[bit / 8];
    byte = static_cast<std::uint8_t>((byte & ~(1u << shift)) |
                                     (static_cast<unsigned>(b) << shift));
  }
}

}  // namespace microcode
