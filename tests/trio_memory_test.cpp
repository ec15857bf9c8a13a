#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "trio/calibration.hpp"
#include "trio/sms.hpp"

namespace {

class SmsTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  trio::Calibration cal;
  trio::SharedMemorySystem sms{sim, trio::Calibration{}};
  trio::XtxnReply scratch;  // reply slot for requests whose reply is unused

  trio::XtxnReply issue_sync(trio::XtxnRequest req) {
    trio::XtxnReply out;
    bool got = false;
    sms.issue(req, out, [&] { got = true; });
    sim.run();
    EXPECT_TRUE(got);
    return out;
  }
};

TEST_F(SmsTest, ReadWriteRoundTrip) {
  trio::XtxnRequest wr;
  wr.op = trio::XtxnOp::kWrite;
  wr.addr = 128;
  wr.data = {1, 2, 3, 4, 5, 6, 7, 8};
  sms.issue(wr, scratch);

  trio::XtxnRequest rd;
  rd.op = trio::XtxnOp::kRead;
  rd.addr = 128;
  rd.len = 8;
  const auto reply = issue_sync(rd);
  EXPECT_EQ(reply.data, wr.data);
}

TEST_F(SmsTest, CounterIncUpdatesPacketAndByteHalves) {
  trio::XtxnRequest inc;
  inc.op = trio::XtxnOp::kCounterInc;
  inc.addr = 256;
  inc.arg0 = 1500;
  sms.issue(inc, scratch);
  sms.issue(inc, scratch);
  EXPECT_EQ(sms.peek_u64(256), 2u);        // packets
  EXPECT_EQ(sms.peek_u64(256 + 8), 3000u);  // bytes
}

TEST_F(SmsTest, FetchOpsReturnOldValue) {
  sms.poke_u64(512, 0xf0);
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kFetchOr64;
  req.addr = 512;
  req.arg0 = 0x0f;
  EXPECT_EQ(issue_sync(req).value, 0xf0u);
  EXPECT_EQ(sms.peek_u64(512), 0xffu);

  req.op = trio::XtxnOp::kFetchAnd64;
  req.arg0 = 0x3c;
  EXPECT_EQ(issue_sync(req).value, 0xffu);
  EXPECT_EQ(sms.peek_u64(512), 0x3cu);

  req.op = trio::XtxnOp::kFetchXor64;
  req.arg0 = 0xff;
  issue_sync(req);
  EXPECT_EQ(sms.peek_u64(512), 0xc3u);

  req.op = trio::XtxnOp::kFetchClear64;
  req.arg0 = 0x03;
  issue_sync(req);
  EXPECT_EQ(sms.peek_u64(512), 0xc0u);

  req.op = trio::XtxnOp::kFetchSwap64;
  req.arg0 = 0x1234;
  EXPECT_EQ(issue_sync(req).value, 0xc0u);
  EXPECT_EQ(sms.peek_u64(512), 0x1234u);
}

TEST_F(SmsTest, FetchAdd32) {
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kFetchAdd32;
  req.addr = 640;
  req.arg0 = 7;
  EXPECT_EQ(issue_sync(req).value, 0u);
  EXPECT_EQ(issue_sync(req).value, 7u);
  EXPECT_EQ(sms.peek_u32(640), 14u);
}

TEST_F(SmsTest, MaskedWrite) {
  sms.poke_u64(704, 0xaaaaaaaaaaaaaaaaull);
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kMaskedWrite64;
  req.addr = 704;
  req.arg0 = 0x5555555555555555ull;  // value
  req.arg1 = 0x00000000ffffffffull;  // mask: low half only
  sms.issue(req, scratch);
  EXPECT_EQ(sms.peek_u64(704), 0xaaaaaaaa55555555ull);
}

TEST_F(SmsTest, AddVec32SumsGradients) {
  std::vector<std::uint8_t> grads;
  for (std::uint32_t v : {10u, 20u, 30u, 40u}) {
    for (int i = 0; i < 4; ++i) grads.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kAddVec32;
  req.addr = 1024;
  req.data.assign(grads);
  sms.issue(req, scratch);
  sms.issue(req, scratch);
  EXPECT_EQ(sms.peek_u32(1024), 20u);
  EXPECT_EQ(sms.peek_u32(1028), 40u);
  EXPECT_EQ(sms.peek_u32(1032), 60u);
  EXPECT_EQ(sms.peek_u32(1036), 80u);
  EXPECT_EQ(sms.add32_ops(), 8u);
}

TEST_F(SmsTest, AddVec32WrapsAround32Bits) {
  sms.poke_u32(2048, 0xffffffffu);
  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kAddVec32;
  req.addr = 2048;
  req.data = {2, 0, 0, 0};
  sms.issue(req, scratch);
  EXPECT_EQ(sms.peek_u32(2048), 1u);  // modular arithmetic, no spill
}

TEST_F(SmsTest, PolicerConformsThenExceeds) {
  trio::PolicerConfig pc;
  pc.rate_bytes_per_sec = 1'000'000;  // 1 MB/s
  pc.burst_bytes = 3000;
  sms.configure_policer(4096, pc);

  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kPolicerCheck;
  req.addr = 4096;
  req.arg0 = 1500;
  EXPECT_EQ(issue_sync(req).value, 1u);  // conform (burst)
  EXPECT_EQ(issue_sync(req).value, 1u);  // conform (burst)
  EXPECT_EQ(issue_sync(req).value, 0u);  // exceed: bucket empty
}

TEST_F(SmsTest, PolicerRefillsOverTime) {
  trio::PolicerConfig pc;
  pc.rate_bytes_per_sec = 1'000'000'000;  // 1 GB/s
  pc.burst_bytes = 1000;
  sms.configure_policer(8192, pc);

  trio::XtxnRequest req;
  req.op = trio::XtxnOp::kPolicerCheck;
  req.addr = 8192;
  req.arg0 = 1000;
  EXPECT_EQ(issue_sync(req).value, 1u);
  EXPECT_EQ(issue_sync(req).value, 0u);
  // 1 us at 1 GB/s refills 1000 bytes.
  sim.schedule_in(sim::Duration::micros(2), [] {});
  sim.run();
  EXPECT_EQ(issue_sync(req).value, 1u);
}

TEST_F(SmsTest, SramLatencyFasterThanDram) {
  trio::XtxnRequest sram;
  sram.op = trio::XtxnOp::kRead;
  sram.addr = 64;  // SRAM region
  sram.len = 8;
  const sim::Time t0 = sim.now();
  const sim::Time sram_reply = sms.issue(sram, scratch);

  trio::XtxnRequest dram;
  dram.op = trio::XtxnOp::kRead;
  dram.addr = sms.dram_base() + (100u << 20);  // cold DRAM line
  dram.len = 8;
  const sim::Time dram_reply = sms.issue(dram, scratch);
  EXPECT_LT((sram_reply - t0).ns(), 150);
  EXPECT_GT((dram_reply - t0).ns(), 300);
}

TEST_F(SmsTest, DramCacheHitsAfterFirstTouch) {
  trio::XtxnRequest rd;
  rd.op = trio::XtxnOp::kRead;
  rd.addr = sms.dram_base() + 4096;
  rd.len = 8;
  sms.issue(rd, scratch);
  EXPECT_EQ(sms.dram_cache_misses(), 1u);
  sms.issue(rd, scratch);
  EXPECT_EQ(sms.dram_cache_hits(), 1u);
}

TEST_F(SmsTest, BankSerializationCreatesBackpressure) {
  // Hammer one bank with large vector adds: replies must spread out in
  // time (8 bytes/cycle/engine), unlike adds spread across banks.
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.addr = 0;  // bank 0
  add.data.assign(64, 1);  // 16 adds x 2 cycles = 32 cycles service
  sim::Time last;
  for (int i = 0; i < 10; ++i) last = sms.issue(add, scratch);
  // Total >= 10 * 32 cycles of service on one engine.
  EXPECT_GE((last - sim.now()).ns(), 10 * 32 - 32);
}

TEST_F(SmsTest, BanksAreInterleavedAt64Bytes) {
  EXPECT_EQ(sms.bank_of(0), 0);
  EXPECT_EQ(sms.bank_of(63), 0);
  EXPECT_EQ(sms.bank_of(64), 1);
  EXPECT_EQ(sms.bank_of(64 * static_cast<std::uint64_t>(sms.bank_count())),
            0);
}

TEST_F(SmsTest, LineOwnershipModeIsSlower) {
  // Ablation (§2.3): conventional lock-the-line RMW occupies the bank for
  // the full round trip; Trio's near-memory engines only for the op.
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.addr = 0;
  add.data.assign(64, 1);

  sim::Time rmw_last;
  for (int i = 0; i < 20; ++i) rmw_last = sms.issue(add, scratch);

  trio::SharedMemorySystem slow(sim, trio::Calibration{});
  slow.set_line_ownership_mode(true);
  sim::Time own_last;
  for (int i = 0; i < 20; ++i) own_last = slow.issue(add, scratch);
  EXPECT_GT((own_last - sim.now()).ns(), 2 * (rmw_last - sim.now()).ns());
}

TEST_F(SmsTest, AllocatorsRespectRegions) {
  const auto a = sms.alloc_sram(100);
  const auto b = sms.alloc_sram(100);
  EXPECT_LT(a, b);
  EXPECT_LT(b, trio::Calibration{}.sram_bytes);
  const auto d = sms.alloc_dram(1 << 20);
  EXPECT_GE(d, sms.dram_base());
}

TEST_F(SmsTest, SramExhaustionThrows) {
  EXPECT_THROW(sms.alloc_sram(trio::Calibration{}.sram_bytes + 1),
               std::runtime_error);
}

TEST_F(SmsTest, OutOfRangeAccessThrows) {
  trio::XtxnRequest rd;
  rd.op = trio::XtxnOp::kRead;
  rd.addr = sms.dram_base() + trio::Calibration{}.dram_bytes;
  rd.len = 8;
  EXPECT_THROW(sms.issue(rd, scratch), std::out_of_range);
}

}  // namespace
