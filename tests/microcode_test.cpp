#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string_view>

#include "microcode/bitfield.hpp"
#include "microcode/compiler.hpp"
#include "microcode/error.hpp"
#include "microcode/interpreter.hpp"
#include "microcode/lexer.hpp"
#include "microcode/parser.hpp"
#include "microcode/vmx.hpp"
#include "trio/router.hpp"

namespace {

using microcode::CompileError;

// ---------------------------------------------------------------------------
// Bitfields

TEST(Bitfield, MsbFirstSemantics) {
  net::Buffer b(4);
  microcode::write_bits(b, 0, 4, 0xA);
  microcode::write_bits(b, 4, 4, 0x5);
  EXPECT_EQ(b.u8(0), 0xA5);
  EXPECT_EQ(microcode::read_bits(b, 0, 8), 0xA5u);
}

TEST(Bitfield, CrossByteField) {
  net::Buffer b(4);
  microcode::write_bits(b, 4, 16, 0xbeef);
  EXPECT_EQ(microcode::read_bits(b, 4, 16), 0xbeefu);
  EXPECT_EQ(microcode::read_bits(b, 0, 4), 0u);
  EXPECT_EQ(microcode::read_bits(b, 20, 4), 0u);
}

TEST(Bitfield, WidthValidation) {
  net::Buffer b(16);
  EXPECT_THROW(microcode::read_bits(b, 0, 0), std::invalid_argument);
  EXPECT_THROW(microcode::read_bits(b, 0, 65), std::invalid_argument);
  EXPECT_THROW(microcode::read_bits(b, 16 * 8 - 4, 8), std::out_of_range);
}

TEST(Bitfield, SixtyFourBitRoundTrip) {
  net::Buffer b(9);
  microcode::write_bits(b, 3, 64, 0xfedcba9876543210ull);
  EXPECT_EQ(microcode::read_bits(b, 3, 64), 0xfedcba9876543210ull);
}

// ---------------------------------------------------------------------------
// Lexer

TEST(Lexer, TokenizesOperatorsAndNumbers) {
  const auto toks = microcode::lex("x == 0x0800 << 2 // comment\n != 10");
  ASSERT_GE(toks.size(), 7u);
  EXPECT_EQ(toks[0].kind, microcode::TokKind::kIdent);
  EXPECT_EQ(toks[1].kind, microcode::TokKind::kEq);
  EXPECT_EQ(toks[2].number, 0x800u);
  EXPECT_EQ(toks[3].kind, microcode::TokKind::kShl);
  EXPECT_EQ(toks[5].kind, microcode::TokKind::kNe);
  EXPECT_EQ(toks[6].number, 10u);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = microcode::lex("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_EQ(toks[2].col, 3);
}

TEST(Lexer, BlockComments) {
  const auto toks = microcode::lex("a /* x\ny */ b");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_THROW(microcode::lex("/* unterminated"), CompileError);
}

TEST(Lexer, RejectsGarbage) {
  EXPECT_THROW(microcode::lex("a @ b"), CompileError);
  EXPECT_THROW(microcode::lex("0xZZ"), CompileError);
}

// ---------------------------------------------------------------------------
// Parser

TEST(Parser, StructWithAnonymousPadding) {
  const auto m = microcode::parse(R"(
    struct hdr_t {
      a : 8;
        : 4;
      b : 12;
    };
  )");
  ASSERT_EQ(m.structs.size(), 1u);
  EXPECT_EQ(m.structs[0].fields.size(), 3u);
  EXPECT_TRUE(m.structs[0].fields[1].name.empty());
}

TEST(Parser, InstructionBlockWithIfGoto) {
  const auto m = microcode::parse(R"(
    start:
    begin
      ir0 = 1;
      if (ir0 == 1) { goto start; }
      goto start;
    end
  )");
  ASSERT_EQ(m.blocks.size(), 1u);
  EXPECT_EQ(m.blocks[0].stmts.size(), 3u);
}

TEST(Parser, SyntaxErrorsCarryLocation) {
  try {
    microcode::parse("start:\nbegin\n  ir0 = ;\nend\n");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Parser, GlobalStorageClasses) {
  const auto m = microcode::parse(R"(
    struct ether_t { etype : 16; };
    memory ether_t *ether_ptr = 0;
    register counter;
    virtual const BASE = 0x100;
  )");
  EXPECT_EQ(m.globals.size(), 3u);
  EXPECT_EQ(m.globals[0].storage, microcode::StorageClass::kMemory);
  EXPECT_TRUE(m.globals[0].is_pointer);
  EXPECT_EQ(m.globals[2].storage, microcode::StorageClass::kVirtual);
}

// ---------------------------------------------------------------------------
// Compiler (TC-style checks)

TEST(Compiler, VirtualConstFolding) {
  const auto p = microcode::compile(R"(
    virtual const A = 4;
    virtual const B = A * 2 + 1;
    main:
    begin
      ir0 = B;
      Exit();
    end
  )");
  EXPECT_EQ(p->vars.at("B").const_value, 9u);
}

TEST(Compiler, SizeofStruct) {
  const auto p = microcode::compile(R"(
    struct ipv4_t { ver : 4; ihl : 4; rest : 24; };
    main:
    begin
      ir0 = sizeof(ipv4_t);
      Exit();
    end
  )");
  // 32 bits -> 4 bytes.
  EXPECT_EQ(p->structs.at("ipv4_t")->size_bytes(), 4u);
}

TEST(Compiler, UndefinedLabelFails) {
  EXPECT_THROW(microcode::compile(R"(
    main:
    begin
      goto nowhere;
    end
  )"),
               CompileError);
}

TEST(Compiler, DuplicateLabelFails) {
  EXPECT_THROW(microcode::compile("a:\nbegin\nend\na:\nbegin\nend\n"),
               CompileError);
}

TEST(Compiler, UndeclaredVariableFails) {
  EXPECT_THROW(microcode::compile("main:\nbegin\nir0 = zork;\nend\n"),
               CompileError);
}

TEST(Compiler, UnknownFieldFails) {
  EXPECT_THROW(microcode::compile(R"(
    struct h_t { a : 8; };
    memory h_t *p = 0;
    main:
    begin
      ir0 = p->nope;
      Exit();
    end
  )"),
               CompileError);
}

TEST(Compiler, TooManyWritesDoesNotFit) {
  // Three writes in one instruction exceeds the two-write budget; TC
  // "fails the compilation because it cannot implement the requested
  // actions across multiple instructions" (§3.1).
  EXPECT_THROW(microcode::compile(R"(
    main:
    begin
      ir0 = 1;
      ir1 = 2;
      ir2 = 3;
    end
  )"),
               CompileError);
}

TEST(Compiler, TooManyLmemReadsDoesNotFit) {
  EXPECT_THROW(microcode::compile(R"(
    struct h_t { a : 8; b : 8; c : 8; };
    memory h_t *p = 0;
    main:
    begin
      ir0 = p->a + p->b + p->c;
      Exit();
    end
  )"),
               CompileError);
}

TEST(Compiler, SplittingAcrossInstructionsFits) {
  // The same work split over two instruction blocks compiles.
  EXPECT_NO_THROW(microcode::compile(R"(
    struct h_t { a : 8; b : 8; c : 8; };
    memory h_t *p = 0;
    first:
    begin
      ir0 = p->a + p->b;
      goto second;
    end
    second:
    begin
      ir0 = ir0 + p->c;
      Exit();
    end
  )"));
}

TEST(Compiler, ReportsResourceUsage) {
  const auto p = microcode::compile(R"(
    main:
    begin
      ir0 = ir1 + ir2;
      Exit();
    end
  )");
  EXPECT_EQ(p->resources[0].reg_reads, 2);
  EXPECT_EQ(p->resources[0].writes, 1);
  EXPECT_EQ(p->resources[0].alu_ops, 1);
}

TEST(Compiler, SyncIntrinsicOnlyAsTopLevelAssignment) {
  EXPECT_THROW(microcode::compile(R"(
    main:
    begin
      ir0 = SmsRead64(0) + 1;
      Exit();
    end
  )"),
               CompileError);
  EXPECT_NO_THROW(microcode::compile(R"(
    main:
    begin
      ir0 = SmsRead64(0);
      Exit();
    end
  )"));
}

TEST(Compiler, IntrinsicArityChecked) {
  EXPECT_THROW(microcode::compile(R"(
    main:
    begin
      CounterIncPhys(1);
      Exit();
    end
  )"),
               CompileError);
}

TEST(Compiler, EmptyProgramFails) {
  EXPECT_THROW(microcode::compile("memory x;"), CompileError);
}

// ---------------------------------------------------------------------------
// Interpreter on a simulated router: the paper's §3.2 filter application.

const char* kFilterProgram = R"(
// Forward all IP packets with no optional headers; drop all non-IP
// packets and IP packets with options, counting each drop class.
struct ether_t {
  dmac : 48;
  smac : 48;
  etype : 16;
};

struct ipv4_t {
  ver : 4;
  ihl : 4;
  tos : 8;
  len : 16;
};

virtual const DROP_CNT_BASE = 64;
virtual const FWD_NEXTHOP = 0;
memory ether_t *ether_ptr = 0;

process_ether:
begin
  ir0 = 0;
  if (ether_ptr->etype == 0x0800) {
    goto process_ip;
  }
  goto count_dropped;
end

process_ip:
begin
  const ipv4_t *ipv4_addr = ether_ptr + sizeof(ether_t);
  ir0 = 1;
  if (ipv4_addr->ver == 4 && ipv4_addr->ihl == 5) {
    goto forward_packet;
  }
  goto count_dropped;
end

count_dropped:
begin
  const : addr = DROP_CNT_BASE + ir0 * 2;
  CounterIncPhys(addr, r_work.pkt_len);
  goto drop_packet;
end

forward_packet:
begin
  Forward(FWD_NEXTHOP);
  Exit();
end

drop_packet:
begin
  Drop();
end
)";

class FilterProgramTest : public ::testing::Test {
 protected:
  FilterProgramTest() : router(sim, trio::Calibration{}, 1, 4) {
    program = microcode::compile(kFilterProgram);
    // Nexthop 0: out of port 1.
    auto& fwd = router.forwarding();
    const auto nh = fwd.add_nexthop(trio::NexthopUnicast{1, {}});
    EXPECT_EQ(nh, 0u);
    router.pfe(0).set_program_factory(
        microcode::make_program_factory(program));
    router.attach_port_sink(1, [this](net::PacketPtr p) {
      forwarded.push_back(std::move(p));
    });
  }

  net::Buffer ip_frame(std::uint8_t ihl = 5, std::uint8_t version = 4) {
    std::vector<std::uint8_t> payload(100, 0);
    auto f = net::build_udp_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                                  net::Ipv4Addr::from_string("10.0.0.1"),
                                  net::Ipv4Addr::from_string("10.0.0.2"),
                                  1, 2, payload);
    f.set_u8(net::UdpFrameLayout::kIpOff,
             static_cast<std::uint8_t>(version << 4 | ihl));
    return f;
  }

  net::Buffer non_ip_frame() {
    auto f = ip_frame();
    f.set_u16(12, 0x0806);  // ARP EtherType
    return f;
  }

  std::uint64_t drop_count(int idx) {
    // Counter word address 64 + idx*2 -> byte address * 8.
    return router.pfe(0).sms().peek_u64((64 + std::uint64_t(idx) * 2) * 8);
  }

  sim::Simulator sim;
  trio::Router router;
  std::shared_ptr<const microcode::CompiledProgram> program;
  std::vector<net::PacketPtr> forwarded;
};

TEST_F(FilterProgramTest, PaperExampleCompilesWithinBudget) {
  // "The Trio-ML Microcode program is quite compact" — the filter program
  // is 5 instructions and every block fits the VLIW resource budget.
  EXPECT_EQ(program->instruction_count(), 5u);
}

TEST_F(FilterProgramTest, ForwardsCleanIpPackets) {
  router.receive(net::Packet::make(ip_frame()), 0);
  sim.run();
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(drop_count(0), 0u);
  EXPECT_EQ(drop_count(1), 0u);
}

TEST_F(FilterProgramTest, DropsAndCountsNonIp) {
  router.receive(net::Packet::make(non_ip_frame()), 0);
  sim.run();
  EXPECT_TRUE(forwarded.empty());
  EXPECT_EQ(drop_count(0), 1u);  // non-IP counter
  EXPECT_EQ(drop_count(1), 0u);
}

TEST_F(FilterProgramTest, DropsAndCountsIpOptions) {
  router.receive(net::Packet::make(ip_frame(/*ihl=*/6)), 0);
  sim.run();
  EXPECT_TRUE(forwarded.empty());
  EXPECT_EQ(drop_count(1), 1u);  // IP-options counter
}

TEST_F(FilterProgramTest, ByteCounterTracksPacketLength) {
  router.receive(net::Packet::make(non_ip_frame()), 0);
  router.receive(net::Packet::make(non_ip_frame()), 0);
  sim.run();
  const std::uint64_t bytes = router.pfe(0).sms().peek_u64(64 * 8 + 8);
  EXPECT_EQ(bytes, 2u * (net::UdpFrameLayout::kPayloadOff + 100));
}

TEST_F(FilterProgramTest, MixedTrafficSortsCorrectly) {
  for (int i = 0; i < 10; ++i) {
    router.receive(net::Packet::make(ip_frame()), 0);
    router.receive(net::Packet::make(non_ip_frame()), 0);
    router.receive(net::Packet::make(ip_frame(6)), 0);
  }
  sim.run();
  EXPECT_EQ(forwarded.size(), 10u);
  EXPECT_EQ(drop_count(0), 10u);
  EXPECT_EQ(drop_count(1), 10u);
}

// ---------------------------------------------------------------------------
// Interpreter features beyond the filter example.

class MicroRunner : public ::testing::Test {
 protected:
  MicroRunner() : router(sim, trio::Calibration{}, 1, 2) {}

  /// Runs `source` against one dummy packet; returns final SMS state via
  /// the router.
  void run(const std::string& source) {
    auto prog = microcode::compile(source);
    router.pfe(0).set_program_factory(microcode::make_program_factory(prog));
    std::vector<std::uint8_t> payload(64, 0);
    auto frame = net::build_udp_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                                      net::Ipv4Addr::from_string("10.0.0.1"),
                                      net::Ipv4Addr::from_string("10.0.0.2"),
                                      1, 2, payload);
    router.receive(net::Packet::make(std::move(frame)), 0);
    sim.run();
  }

  sim::Simulator sim;
  trio::Router router;
};

TEST_F(MicroRunner, SmsWriteAndReadBack) {
  run(R"(
    first:
    begin
      SmsWrite64(4096, 777);
      goto second;
    end
    second:
    begin
      ir1 = SmsRead64(4096);
      goto third;
    end
    third:
    begin
      SmsWrite64(4104, ir1 + 1);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(4104), 778u);
}

TEST_F(MicroRunner, CallReturnNesting) {
  run(R"(
    main:
    begin
      ir0 = 1;
      call sub;
    end
    after:
    begin
      SmsWrite64(2048, ir0);
      Exit();
    end
    sub:
    begin
      ir0 = ir0 + 10;
      return;
    end
  )");
  // call sub -> ir0 = 11, return resumes after the call: falls through to
  // block 'after'.
  EXPECT_EQ(router.pfe(0).sms().peek_u64(2048), 11u);
}

TEST_F(MicroRunner, FetchAddReturnsOldValue) {
  run(R"(
    a:
    begin
      ir0 = FetchAdd32(512, 5);
      goto b;
    end
    b:
    begin
      ir1 = FetchAdd32(512, 5);
      goto c;
    end
    c:
    begin
      SmsWrite64(1024, ir1);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(1024), 5u);
  EXPECT_EQ(router.pfe(0).sms().peek_u32(512), 10u);
}

TEST_F(MicroRunner, FetchSwapReturnsPreviousValueAndStoresNew) {
  run(R"(
    seed:
    begin
      SmsWrite64(512, 41);
      goto a;
    end
    a:
    begin
      ir0 = FetchSwap64(512, 99);
      goto b;
    end
    b:
    begin
      SmsWrite64(1024, ir0);
      goto c;
    end
    c:
    begin
      ir1 = FetchSwap64(512, 7);
      goto d;
    end
    d:
    begin
      SmsWrite64(1032, ir1);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(1024), 41u);  // first swap: seed out
  EXPECT_EQ(router.pfe(0).sms().peek_u64(1032), 99u);  // second: first's new
  EXPECT_EQ(router.pfe(0).sms().peek_u64(512), 7u);    // final stored value
}

TEST_F(MicroRunner, HashLookupMissGivesZero) {
  run(R"(
    a:
    begin
      ir0 = HashLookup(12345);
      goto b;
    end
    b:
    begin
      SmsWrite64(256, ir0 + 1);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(256), 1u);
}

TEST_F(MicroRunner, StructFieldWriteIntoHeader) {
  run(R"(
    struct ether_t { dmac : 48; smac : 48; etype : 16; };
    memory ether_t *e = 0;
    a:
    begin
      e->etype = 0x86dd;
      goto b;
    end
    b:
    begin
      ir0 = e->etype;
      goto c;
    end
    c:
    begin
      SmsWrite64(128, ir0);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(128), 0x86ddu);
}

TEST_F(MicroRunner, CallDepthLimitTraps) {
  // Self-recursive call exceeds the 8-deep hardware stack (§2.2).
  EXPECT_THROW(run(R"(
    main:
    begin
      call main;
    end
  )"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Multi-way branch + vector/hash XTXN edge cases — the shapes the netrpc
// datapath leans on (an order of magnitude more blocks than the §3.2
// filter: dispatch fans out over op codes, undecided cases fall through).

TEST_F(MicroRunner, MultiWayBranchFirstMatchingArmWins) {
  // Two arms of the dispatch both match; the textually first one must
  // take the branch (the datapath orders arms most-specific first).
  run(R"(
    dispatch:
    begin
      ir0 = 7;
      if (ir0 == 7) { goto first; }
      if (ir0 != 0) { goto second; }
      goto second;
    end
    first:
    begin
      SmsWrite64(640, 1);
      Exit();
    end
    second:
    begin
      SmsWrite64(640, 2);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(640), 1u);
}

TEST_F(MicroRunner, MultiWayBranchFallsThroughInLexicalOrder) {
  // No arm matches: the block falls through to the next *lexical* block,
  // and chained fallthroughs visit blocks strictly in order (fill_evict ->
  // fill_new -> fill_insert in the netrpc cache path relies on this).
  run(R"(
    dispatch:
    begin
      ir0 = 5;
      ir1 = 0;
      if (ir0 == 1) { goto elsewhere; }
      if (ir0 == 2) { goto elsewhere; }
    end
    step_a:
    begin
      ir1 = ir1 * 10 + 1;
    end
    step_b:
    begin
      ir1 = ir1 * 10 + 2;
    end
    step_c:
    begin
      SmsWrite64(648, ir1 * 10 + 3);
      Exit();
    end
    elsewhere:
    begin
      SmsWrite64(648, 999);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(648), 123u);
}

TEST_F(MicroRunner, SyncXtxnInsideCalledBlockResumesCaller) {
  // A synchronous XTXN suspends the thread mid-subroutine; the reply must
  // resume inside `sub` and the return must still land after the call.
  run(R"(
    main:
    begin
      SmsWrite64(704, 40);
      call sub;
    end
    after:
    begin
      SmsWrite64(712, ir0 + 2);
      Exit();
    end
    sub:
    begin
      ir0 = SmsRead64(704);
      return;
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(712), 42u);
}

TEST_F(MicroRunner, VectorXtxnLmemRangeTrapsInsideCall) {
  // The operand fetch of a vector XTXN is bounds-checked against the
  // thread's LMEM at issue time; an out-of-range request aborts the
  // thread (trap) even when issued from a nested subroutine.
  EXPECT_THROW(run(R"(
    main:
    begin
      call sub;
    end
    after:
    begin
      Exit();
    end
    sub:
    begin
      ir0 = SmsReadVec(0, 100000, 64);
      return;
    end
  )"),
               std::runtime_error);
}

TEST_F(MicroRunner, MinVec32FoldsAgainstPreset) {
  // MinVec32 merges LMEM words into a 0xffffffff-preset buffer (the min
  // policy's rest state). Byte-symmetric values keep the check
  // endianness-neutral.
  run(R"(
    struct words_t { w0 : 32; w1 : 32; };
    memory words_t *v = 48;
    a:
    begin
      SmsFill32(768, 0xffffffff, 8);
      v->w0 = 0x07070707;
      v->w1 = 0x03030303;
      MinVec32(768, 48, 8);
      goto b;
    end
    b:
    begin
      v->w0 = 0x05050505;
      v->w1 = 0x09090909;
      MinVec32(768, 48, 8);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u32(768), 0x05050505u);
  EXPECT_EQ(router.pfe(0).sms().peek_u32(772), 0x03030303u);
}

TEST_F(MicroRunner, VoteVec32StreamsBoyerMooreMajority) {
  // Split-plane majority: candidates at addr, counts at addr+len. Three
  // votes, two for 0x05050505 — the candidate plane must settle on it.
  run(R"(
    struct words_t { w0 : 32; };
    memory words_t *v = 48;
    a:
    begin
      v->w0 = 0x05050505;
      VoteVec32(832, 48, 4);
      goto b;
    end
    b:
    begin
      v->w0 = 0x0a0a0a0a;
      VoteVec32(832, 48, 4);
      goto c;
    end
    c:
    begin
      v->w0 = 0x05050505;
      VoteVec32(832, 48, 4);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u32(832), 0x05050505u);
  EXPECT_EQ(router.pfe(0).sms().peek_u32(836), 1u);  // count plane
}

TEST_F(MicroRunner, HashInsertRefusesDuplicateDeleteReports) {
  // HashInsert is a refused no-op while a fresh entry lives (the cache
  // fill path calls it unconditionally); HashDelete reports whether it
  // removed anything (the PUT invalidation counter gates on it).
  run(R"(
    a:
    begin
      ir0 = HashInsert(777, 4096);
      goto b;
    end
    b:
    begin
      ir1 = HashInsert(777, 8192);
      goto c;
    end
    c:
    begin
      ir2 = HashDelete(777);
      goto d;
    end
    d:
    begin
      ir3 = HashDelete(777);
      goto e;
    end
    e:
    begin
      SmsWrite64(896, ir0 * 1000 + ir1 * 100 + ir2 * 10 + ir3);
      Exit();
    end
  )");
  EXPECT_EQ(router.pfe(0).sms().peek_u64(896), 1010u);
}

// ---------------------------------------------------------------------------
// Operand bounds: a vector intrinsic's LMEM range and SmsFill32's length
// are checked against the 1280-byte LMEM at issue time, and a range that
// wraps around 2^64 traps like any other.

TEST_F(MicroRunner, SmsFill32LongerThanLmemTraps) {
  EXPECT_THROW(run(R"(
    main:
    begin
      SmsFill32(0, 0, 1281);
      Exit();
    end
  )"),
               std::runtime_error);
}

TEST_F(MicroRunner, SmsFill32HugeLengthTrapsBeforeAllocating) {
  EXPECT_THROW(run(R"(
    main:
    begin
      SmsFill32(0, 0, 3000000000);
      Exit();
    end
  )"),
               std::runtime_error);
}

TEST_F(MicroRunner, WrappingLmemPayloadRangeTraps) {
  EXPECT_THROW(run(R"(
    main:
    begin
      SmsWriteVec(0, 0 - 64, 64);
      Exit();
    end
  )"),
               std::runtime_error);
}

TEST_F(MicroRunner, WrappingSmsReadVecRangeTraps) {
  EXPECT_THROW(run(R"(
    main:
    begin
      ir0 = SmsReadVec(0, 0 - 64, 64);
      Exit();
    end
  )"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Every row of the intrinsic table, run through the vMX forwarding plane:
// one block that calls the intrinsic (and, for a sync one, stores the
// reply), checked by its shared-memory, hash or forwarding effect.

struct IntrinsicCase {
  std::string block;  // the body of the program's one instruction
  std::function<void(microcode::vmx::VirtualForwardingPlane&)> seed;
  std::function<void(microcode::vmx::VirtualForwardingPlane&,
                     const microcode::vmx::VirtualForwardingPlane::Verdict&,
                     const net::Buffer& frame)>
      check;
};

std::uint32_t frame_word(const net::Buffer& frame, std::size_t i) {
  std::uint32_t w = 0;
  for (std::size_t b = 4; b-- > 0;) w = w << 8 | frame.u8(4 * i + b);
  return w;
}

const std::map<std::string_view, IntrinsicCase>& intrinsic_cases() {
  using Vfp = microcode::vmx::VirtualForwardingPlane;
  using Verdict = Vfp::Verdict;
  static const std::map<std::string_view, IntrinsicCase> cases = {
      {"CounterIncPhys",
       {"CounterIncPhys(64, r_work.pkt_len); Exit();", nullptr,
        [](Vfp& v, const Verdict&, const net::Buffer& f) {
          EXPECT_EQ(v.sms().peek_u64(512), 1u);  // word 64 = byte 512
          EXPECT_EQ(v.sms().peek_u64(520), f.size());
        }}},
      {"SmsWrite64",
       {"SmsWrite64(512, 0x1122334455667788); Exit();", nullptr,
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(512), 0x1122334455667788u);
        }}},
      {"SmsRead64",
       {"ir0 = SmsRead64(512); SmsWrite64(520, ir0); Exit();",
        [](Vfp& v) { v.sms().poke_u64(512, 0x0102030405060708u); },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(520), 0x0102030405060708u);
        }}},
      {"FetchAdd32",
       {"ir0 = FetchAdd32(512, 5); SmsWrite64(520, ir0); Exit();",
        [](Vfp& v) { v.sms().poke_u32(512, 10); },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(520), 10u);
          EXPECT_EQ(v.sms().peek_u32(512), 15u);
        }}},
      {"FetchOr64",
       {"ir0 = FetchOr64(512, 6); SmsWrite64(520, ir0); Exit();",
        [](Vfp& v) { v.sms().poke_u64(512, 9); },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(520), 9u);
          EXPECT_EQ(v.sms().peek_u64(512), 15u);
        }}},
      {"FetchSwap64",
       {"ir0 = FetchSwap64(512, 99); SmsWrite64(520, ir0); Exit();",
        [](Vfp& v) { v.sms().poke_u64(512, 41); },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(520), 41u);
          EXPECT_EQ(v.sms().peek_u64(512), 99u);
        }}},
      {"PolicerCheck",
       {"ir0 = PolicerCheck(512, 600); SmsWrite64(544, ir0); Exit();",
        [](Vfp& v) { v.sms().configure_policer(512, {0, 1000}); },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(544), 1u);         // conform
          EXPECT_EQ(v.sms().peek_u64(512 + 16), 400u);  // tokens left
        }}},
      {"HashLookup",
       {"ir0 = HashLookup(777); SmsWrite64(520, ir0); Exit();",
        [](Vfp& v) { v.hash_table().insert(777, 4242); },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(520), 4242u);
        }}},
      {"HashInsert",
       {"ir0 = HashInsert(777, 4242); SmsWrite64(520, ir0); Exit();", nullptr,
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(520), 1u);
          EXPECT_EQ(v.hash_table().lookup(777), 4242u);
        }}},
      {"HashDelete",
       {"ir0 = HashDelete(777); SmsWrite64(520, ir0); Exit();",
        [](Vfp& v) { v.hash_table().insert(777, 4242); },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          EXPECT_EQ(v.sms().peek_u64(520), 1u);
          EXPECT_FALSE(v.hash_table().contains(777));
        }}},
      {"SmsReadVec",
       // The reply's byte count sizes the write-back of what it landed.
       {"ir0 = SmsReadVec(512, 600, 16); SmsWriteVec(1024, 600, ir0); Exit();",
        [](Vfp& v) {
          for (std::uint32_t i = 0; i < 4; ++i) {
            v.sms().poke_u32(512 + 4 * i, 0xa0a0a0a0u + i);
          }
        },
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          for (std::uint32_t i = 0; i < 4; ++i) {
            EXPECT_EQ(v.sms().peek_u32(1024 + 4 * i), 0xa0a0a0a0u + i);
          }
          EXPECT_EQ(v.sms().peek_u32(1040), 0u);
        }}},
      {"SmsWriteVec",
       {"SmsWriteVec(1024, 0, 16); Exit();", nullptr,
        [](Vfp& v, const Verdict&, const net::Buffer& f) {
          for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(v.sms().peek_u32(1024 + 4 * i), frame_word(f, i));
          }
        }}},
      {"AddVec32",
       {"AddVec32(1024, 0, 8); Exit();",
        [](Vfp& v) {
          v.sms().poke_u32(1024, 1);
          v.sms().poke_u32(1028, 0x10000);
        },
        [](Vfp& v, const Verdict&, const net::Buffer& f) {
          EXPECT_EQ(v.sms().peek_u32(1024), frame_word(f, 0) + 1);
          EXPECT_EQ(v.sms().peek_u32(1028), frame_word(f, 1) + 0x10000);
        }}},
      {"MinVec32",
       {"MinVec32(1024, 0, 8); Exit();",
        [](Vfp& v) {
          v.sms().poke_u32(1024, 0xffffffffu);
          v.sms().poke_u32(1028, 1);
        },
        [](Vfp& v, const Verdict&, const net::Buffer& f) {
          EXPECT_EQ(v.sms().peek_u32(1024), frame_word(f, 0));
          EXPECT_EQ(v.sms().peek_u32(1028), 1u);
        }}},
      {"VoteVec32",
       {"VoteVec32(1024, 0, 4); Exit();", nullptr,
        [](Vfp& v, const Verdict&, const net::Buffer& f) {
          EXPECT_EQ(v.sms().peek_u32(1024), frame_word(f, 0));  // candidate
          EXPECT_EQ(v.sms().peek_u32(1028), 1u);                // count
        }}},
      {"SmsFill32",
       {"SmsFill32(1024, 0xdeadbeef, 12); Exit();", nullptr,
        [](Vfp& v, const Verdict&, const net::Buffer&) {
          for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(v.sms().peek_u32(1024 + 4 * i), 0xdeadbeefu);
          }
          EXPECT_EQ(v.sms().peek_u32(1036), 0u);
        }}},
      {"Forward",
       {"Forward(1); Exit();", nullptr,
        [](Vfp&, const Verdict& out, const net::Buffer&) {
          EXPECT_TRUE(out.forwarded);
          EXPECT_EQ(out.egress_port, 2);  // nexthop N leaves port N+1
        }}},
      {"Drop",
       {"Drop(); SmsWrite64(512, 1);", nullptr,
        [](Vfp& v, const Verdict& out, const net::Buffer&) {
          EXPECT_FALSE(out.forwarded);
          EXPECT_EQ(v.sms().peek_u64(512), 0u);  // the thread ended first
        }}},
      {"Exit",
       {"Exit(); SmsWrite64(512, 1);", nullptr,
        [](Vfp& v, const Verdict& out, const net::Buffer&) {
          EXPECT_FALSE(out.forwarded);
          EXPECT_EQ(v.sms().peek_u64(512), 0u);
        }}},
  };
  return cases;
}

TEST(IntrinsicTable, EveryRowRunsThroughTheForwardingPlane) {
  const auto& cases = intrinsic_cases();
  EXPECT_EQ(cases.size(), microcode::intrinsics().size());
  for (const microcode::IntrinsicInfo& in : microcode::intrinsics()) {
    SCOPED_TRACE(std::string(in.name));
    const auto it = cases.find(in.name);
    ASSERT_NE(it, cases.end()) << "no test case for this intrinsic";
    const IntrinsicCase& c = it->second;
    microcode::vmx::VirtualForwardingPlane vfp(
        microcode::compile("main:\nbegin\n" + c.block + "\nend\n"));
    if (c.seed) c.seed(vfp);
    std::vector<std::uint8_t> payload(64, 0x5a);
    const net::Buffer frame = net::build_udp_frame(
        {1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12},
        net::Ipv4Addr::from_string("10.0.0.1"),
        net::Ipv4Addr::from_string("10.0.0.2"), 1, 2, payload);
    const auto verdict = vfp.process(frame);
    c.check(vfp, verdict, frame);
  }
}

}  // namespace
