// Tests for the Microcode language's arrays and switch statements
// (paper §3.1: "Microcode also supports pointers and arrays, conditions,
// function calls and gotos, and switch statements").
#include <gtest/gtest.h>

#include <string>

#include "microcode/compiler.hpp"
#include "microcode/error.hpp"
#include "microcode/interpreter.hpp"
#include "trio/router.hpp"

namespace {

using microcode::CompileError;

class Lang2Runner : public ::testing::Test {
 protected:
  Lang2Runner() : router(sim, trio::Calibration{}, 1, 2) {}

  void run(const std::string& source) {
    auto prog = microcode::compile(source);
    router.pfe(0).set_program_factory(microcode::make_program_factory(prog));
    std::vector<std::uint8_t> payload(32, 0);
    router.receive(
        net::Packet::make(net::build_udp_frame(
            {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
            net::Ipv4Addr::from_octets(10, 0, 0, 1),
            net::Ipv4Addr::from_octets(10, 0, 0, 2), 1, 2, payload)),
        0);
    sim.run();
  }

  std::uint64_t sms64(std::uint64_t addr) {
    return router.pfe(0).sms().peek_u64(addr);
  }

  sim::Simulator sim;
  trio::Router router;
};

// ---------------------------------------------------------------------------
// Arrays

TEST_F(Lang2Runner, ArrayStoreAndLoad) {
  run(R"(
    memory table[4];
    a:
    begin
      table[0] = 11;
      table[3] = 44;
    end
    b:
    begin
      ir0 = table[0] + table[3];
    end
    c:
    begin
      SmsWrite64(1024, ir0);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(1024), 55u);
}

TEST_F(Lang2Runner, ArrayDynamicIndex) {
  run(R"(
    memory lut[8];
    a:
    begin
      ir1 = 5;
      lut[2] = 100;
    end
    b:
    begin
      lut[ir1] = 200;
    end
    c:
    begin
      ir0 = lut[ir1 - 3] + lut[ir1];
    end
    d:
    begin
      SmsWrite64(2048, ir0);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(2048), 300u);
}

TEST_F(Lang2Runner, ArrayOutOfBoundsTraps) {
  EXPECT_THROW(run(R"(
    memory small[2];
    a:
    begin
      ir1 = 7;
      small[ir1] = 1;
    end
  )"),
               std::runtime_error);
}

TEST(Lang2Compile, ArrayDeclarationRules) {
  EXPECT_THROW(microcode::compile(R"(
    memory bad[0];
    a:
    begin
      Exit();
    end
  )"),
               CompileError);
  EXPECT_THROW(microcode::compile(R"(
    struct h_t { a : 8; };
    memory h_t arr[4];
    a:
    begin
      Exit();
    end
  )"),
               CompileError);
  // An array too large for LMEM (1.25 KB minus the 192 B head area).
  EXPECT_THROW(microcode::compile(R"(
    memory huge[200];
    a:
    begin
      Exit();
    end
  )"),
               CompileError);
}

TEST(Lang2Compile, IndexingNonArrayFails) {
  EXPECT_THROW(microcode::compile(R"(
    memory x;
    a:
    begin
      ir0 = x[1];
    end
  )"),
               CompileError);
}

// ---------------------------------------------------------------------------
// Switch statements

TEST_F(Lang2Runner, SwitchSelectsMatchingArm) {
  run(R"(
    a:
    begin
      ir1 = 2;
      switch (ir1) {
        case 1: { ir0 = 100; }
        case 2: { ir0 = 200; }
        case 3: { ir0 = 300; }
        default: { ir0 = 999; }
      }
    end
    b:
    begin
      SmsWrite64(512, ir0);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(512), 200u);
}

TEST_F(Lang2Runner, SwitchFallsToDefault) {
  run(R"(
    a:
    begin
      ir1 = 77;
      switch (ir1) {
        case 1: { ir0 = 100; }
        default: { ir0 = 999; }
      }
    end
    b:
    begin
      SmsWrite64(512, ir0);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(512), 999u);
}

TEST_F(Lang2Runner, SwitchWithoutDefaultFallsThrough) {
  run(R"(
    a:
    begin
      ir0 = 5;
      switch (ir0) {
        case 9: { ir0 = 1; }
      }
    end
    b:
    begin
      SmsWrite64(512, ir0);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(512), 5u);
}

TEST_F(Lang2Runner, SwitchArmsCanBranch) {
  // The paper's multi-way branching: each arm picks the next instruction.
  run(R"(
    a:
    begin
      ir1 = 3;
      switch (ir1) {
        case 1: { goto one; }
        case 3: { goto three; }
        default: { goto other; }
      }
    end
    one:
    begin
      SmsWrite64(512, 1);
      Exit();
    end
    three:
    begin
      SmsWrite64(512, 3);
      Exit();
    end
    other:
    begin
      SmsWrite64(512, 0);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(512), 3u);
}

TEST(Lang2Compile, SwitchLimits) {
  // More than 8 targets exceeds one instruction's multi-way branch.
  std::string big = "a:\nbegin\n  switch (ir0) {\n";
  for (int i = 0; i < 9; ++i) {
    big += "    case " + std::to_string(i) + ": { goto a; }\n";
  }
  big += "  }\nend\n";
  EXPECT_THROW(microcode::compile(big), CompileError);

  EXPECT_THROW(microcode::compile(R"(
    a:
    begin
      switch (ir0) {
        case 1: { goto a; }
        case 1: { goto a; }
      }
    end
  )"),
               CompileError);
}

// ---------------------------------------------------------------------------
// A realistic combination: protocol dispatch via switch + per-protocol
// counters via an LMEM array staging the counter address.

TEST_F(Lang2Runner, ProtocolDispatchTable) {
  run(R"(
    struct ether_t { dmac : 48; smac : 48; etype : 16; };
    memory ether_t *e = 0;
    memory seen[4];
    a:
    begin
      switch (e->etype) {
        case 0x0800: { ir1 = 1; }
        case 0x86dd: { ir1 = 2; }
        case 0x0806: { ir1 = 3; }
        default: { ir1 = 0; }
      }
    end
    b:
    begin
      seen[ir1] = seen[ir1] + 1;
    end
    c:
    begin
      SmsWrite64(4096, seen[1]);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(4096), 1u);  // the test frame is IPv4
}

// ---------------------------------------------------------------------------
// The 'bus' storage class (§3.1): values that feed the ALUs directly,
// valid only within one instruction — and free of read/write ports.

TEST_F(Lang2Runner, BusVariablesCarryValuesWithinAnInstruction) {
  run(R"(
    bus t;
    a:
    begin
      t = ir1 + 5;
      ir0 = t * 2;
    end
    b:
    begin
      SmsWrite64(256, ir0);
      Exit();
    end
  )");
  EXPECT_EQ(sms64(256), 10u);  // (0 + 5) * 2
}

TEST(Lang2Bus, CrossInstructionReadRejected) {
  EXPECT_THROW(microcode::compile(R"(
    bus t;
    a:
    begin
      t = 1;
    end
    b:
    begin
      ir0 = t;
    end
  )"),
               CompileError);
}

TEST(Lang2Bus, ReadBeforeAssignmentRejected) {
  EXPECT_THROW(microcode::compile(R"(
    bus t;
    a:
    begin
      ir0 = t;
      t = 1;
    end
  )"),
               CompileError);
}

TEST(Lang2Bus, BusWritesDoNotConsumeWritePorts) {
  // Two register writes (the limit) PLUS two bus assignments in one
  // instruction compile fine: the bus is not a write port.
  EXPECT_NO_THROW(microcode::compile(R"(
    bus t0;
    bus t1;
    a:
    begin
      t0 = 1;
      t1 = 2;
      ir0 = t0;
      ir1 = t1;
      Exit();
    end
  )"));
}

TEST(Lang2Bus, OneVariablePerOperandBusLane) {
  // The lanes are a fixed per-thread resource, like the registers: eight
  // bus variables compile, a ninth is rejected.
  std::string decls;
  for (int i = 0; i < 8; ++i) decls += "bus t" + std::to_string(i) + ";\n";
  const std::string body = "a:\nbegin\n  Exit();\nend\n";
  EXPECT_NO_THROW(microcode::compile(decls + body));
  EXPECT_THROW(microcode::compile(decls + "bus t8;\n" + body), CompileError);
}

TEST(Lang2Bus, NoInitializersOrTypes) {
  EXPECT_THROW(microcode::compile(R"(
    bus t = 5;
    a:
    begin
      Exit();
    end
  )"),
               CompileError);
  EXPECT_THROW(microcode::compile(R"(
    struct h_t { a : 8; };
    bus h_t *t;
    a:
    begin
      Exit();
    end
  )"),
               CompileError);
}

}  // namespace
