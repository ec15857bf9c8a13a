#include "trioml/records.hpp"

#include <stdexcept>

#include "microcode/bitfield.hpp"

namespace trioml {

namespace {

void put_le64(std::span<std::uint8_t> v, std::size_t off, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    v[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(x >> (8 * i));
  }
}

std::uint64_t get_le64(std::span<const std::uint8_t> v, std::size_t off) {
  std::uint64_t x = 0;
  for (int i = 7; i >= 0; --i) {
    x = x << 8 | v[off + static_cast<std::size_t>(i)];
  }
  return x;
}

}  // namespace

JobRecord::Bytes JobRecord::pack() const {
  Bytes out{};
  using microcode::write_bits;
  write_bits(out, 0, 16, block_curr_cnt);
  write_bits(out, 16, 12, block_cnt_max);
  write_bits(out, 28, 12, block_grad_max);
  write_bits(out, 40, 8, block_exp);
  write_bits(out, 48, 32, block_total_cnt);
  write_bits(out, 80, 32, out_src_addr);
  write_bits(out, 112, 32, out_dst_addr);
  write_bits(out, 144, 32, out_nh_addr);
  write_bits(out, 176, 8, out_src_id);  // stored in the 24-bit padding
  write_bits(out, 200, 8, src_cnt);
  for (int i = 0; i < 4; ++i) {
    put_le64(out, 26 + static_cast<std::size_t>(i) * 8, src_mask[i]);
  }
  return out;
}

JobRecord JobRecord::unpack(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSize) {
    throw std::invalid_argument("JobRecord::unpack: short buffer");
  }
  using microcode::read_bits;
  JobRecord r;
  r.block_curr_cnt = static_cast<std::uint16_t>(read_bits(bytes, 0, 16));
  r.block_cnt_max = static_cast<std::uint16_t>(read_bits(bytes, 16, 12));
  r.block_grad_max = static_cast<std::uint16_t>(read_bits(bytes, 28, 12));
  r.block_exp = static_cast<std::uint8_t>(read_bits(bytes, 40, 8));
  r.block_total_cnt = static_cast<std::uint32_t>(read_bits(bytes, 48, 32));
  r.out_src_addr = static_cast<std::uint32_t>(read_bits(bytes, 80, 32));
  r.out_dst_addr = static_cast<std::uint32_t>(read_bits(bytes, 112, 32));
  r.out_nh_addr = static_cast<std::uint32_t>(read_bits(bytes, 144, 32));
  r.out_src_id = static_cast<std::uint8_t>(read_bits(bytes, 176, 8));
  r.src_cnt = static_cast<std::uint8_t>(read_bits(bytes, 200, 8));
  for (int i = 0; i < 4; ++i) {
    r.src_mask[i] = get_le64(bytes, 26 + static_cast<std::size_t>(i) * 8);
  }
  return r;
}

BlockRecord::Bytes BlockRecord::pack() const {
  Bytes out{};
  using microcode::write_bits;
  write_bits(out, 0, 8, block_exp);
  write_bits(out, 8, 8, block_age);
  write_bits(out, 16, 64, block_start_time);
  write_bits(out, 80, 32, job_ctx_paddr);
  write_bits(out, 112, 32, aggr_paddr);
  // 20 pad bits at 144.
  write_bits(out, 164, 12, grad_cnt);
  // 24 pad bits at 176.
  write_bits(out, 200, 8, rcvd_cnt);
  for (int i = 0; i < 4; ++i) {
    put_le64(out, kRcvdMask0Off + static_cast<std::size_t>(i) * 8,
             rcvd_mask[i]);
  }
  return out;
}

BlockRecord BlockRecord::unpack(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSize) {
    throw std::invalid_argument("BlockRecord::unpack: short buffer");
  }
  using microcode::read_bits;
  BlockRecord r;
  r.block_exp = static_cast<std::uint8_t>(read_bits(bytes, 0, 8));
  r.block_age = static_cast<std::uint8_t>(read_bits(bytes, 8, 8));
  r.block_start_time = read_bits(bytes, 16, 64);
  r.job_ctx_paddr = static_cast<std::uint32_t>(read_bits(bytes, 80, 32));
  r.aggr_paddr = static_cast<std::uint32_t>(read_bits(bytes, 112, 32));
  r.grad_cnt = static_cast<std::uint16_t>(read_bits(bytes, 164, 12));
  r.rcvd_cnt = static_cast<std::uint8_t>(read_bits(bytes, 200, 8));
  for (int i = 0; i < 4; ++i) {
    r.rcvd_mask[i] =
        get_le64(bytes, kRcvdMask0Off + static_cast<std::size_t>(i) * 8);
  }
  return r;
}

std::uint64_t block_key(std::uint8_t job_id, std::uint16_t gen_id,
                        std::uint32_t block_id) {
  return std::uint64_t(job_id) << 48 | std::uint64_t(gen_id) << 32 | block_id;
}

std::uint64_t job_key(std::uint8_t job_id) {
  return std::uint64_t(job_id) << 48 | 0xffffffffull;
}

bool is_job_key(std::uint64_t key) {
  return (key & 0xffffffffull) == 0xffffffffull;
}

void split_key(std::uint64_t key, std::uint8_t& job_id, std::uint16_t& gen_id,
               std::uint32_t& block_id) {
  job_id = static_cast<std::uint8_t>(key >> 48);
  gen_id = static_cast<std::uint16_t>(key >> 32);
  block_id = static_cast<std::uint32_t>(key);
}

}  // namespace trioml
