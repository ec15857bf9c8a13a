// The Trio Compiler (TC) analogue (paper §3.1).
//
// Like TC, this stage has characteristics of both a compiler and an
// assembler: it translates C-style expressions, maps every variable to its
// underlying storage (thread registers, thread local memory, or virtual
// constants), and — because the programmer delineates instructions with
// begin/end — *fails compilation* when a block needs more reads, writes,
// or ALU operations than a single VLIW micro-instruction provides
// ("Typically, a single Microcode instruction can perform four registers
// or two local memory reads, and two registers or two local memory
// writes").
//
// There is no separate linking phase: compile() takes the complete source
// and produces a self-contained binary image (CompiledProgram) that the
// interpreter executes on a PPE thread.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "microcode/ast.hpp"
#include "trio/xtxn.hpp"

namespace microcode {

/// Hardware resource budget of one micro-instruction.
struct InstructionLimits {
  int max_reg_reads = 4;
  int max_lmem_reads = 2;
  int max_writes = 2;
  int max_alu_ops = 8;
  int max_xtxns = 2;
};

/// Where a variable lives after storage mapping.
struct Location {
  enum class Kind { kReg, kLmem, kConst, kBuiltin, kBus };
  Kind kind{};
  int reg = -1;                 // kReg
  std::size_t lmem_offset = 0;  // kLmem (bytes)
  std::size_t size_bytes = 8;   // kLmem extent
  std::uint64_t const_value = 0;  // kConst
  const StructDef* type = nullptr;  // struct type (if any)
  bool is_pointer = false;
  bool is_array = false;          // LMEM array of 64-bit elements
  std::size_t array_len = 0;
  int bus_slot = -1;              // kBus: operand-bus lane index
};

/// What kind of engine interaction an intrinsic performs.
enum class IntrinsicKind {
  kPosted,  // fire-and-forget XTXN (CounterIncPhys, SmsWrite64)
  kSync,    // suspends the thread for the reply (SmsRead64, ...)
  kAction,  // packet action (Forward, Drop, Exit)
};

/// How an intrinsic's evaluated arguments become an XtxnRequest (or, for
/// actions, what the thread does).
enum class OperandForm {
  kEnd,       // Drop() / Exit(): end the thread
  kNexthop,   // Forward(nexthop): unload the head and emit the packet
  kCounter,   // (word_addr, bytes): addr = word_addr * 8, arg0 = bytes
  kAddrArg,   // (addr, v): addr, arg0 -- the RMWs and the policer
  kWrite64,   // (addr, value): 8-byte little-endian payload
  kRead64,    // (addr): 8-byte read
  kKey,       // (key): arg0
  kKeyValue,  // (key, value): arg0, arg1
  kReadVec,   // (addr, lmem_off, len): the reply lands in LMEM at lmem_off
  kLmemVec,   // (addr, lmem_off, len): the payload is LMEM[lmem_off, +len)
  kFill32,    // (addr, word32, len): `word32` repeated over len bytes
};

/// What a synchronous intrinsic's reply assigns to its target.
enum class ReplyForm {
  kNone,    // posted XTXNs and actions: no reply
  kValue,   // reply.value
  kOk,      // 1 if reply.ok, else 0
  kLe64,    // the reply's first 8 data bytes, little-endian
  kToLmem,  // copies the data into LMEM; the byte count moved
};

/// One row of the intrinsic table: the single definition of an intrinsic
/// for both the compiler (kind, arity) and the interpreter (op, operand
/// and reply decoding).
struct IntrinsicInfo {
  std::string_view name;
  IntrinsicKind kind;
  int arity;
  trio::XtxnOp op;  // unused by actions
  OperandForm operands;
  ReplyForm reply;
};

/// Largest arity in the intrinsic table.
constexpr int kMaxIntrinsicArity = 3;

/// Every intrinsic the compiler accepts.
std::span<const IntrinsicInfo> intrinsics();

/// The ALU's operators on 64-bit values, shared by constant folding and
/// the interpreter. The caller rejects a zero divisor; kLAnd / kLOr here
/// do not short-circuit.
std::uint64_t apply(UnOp op, std::uint64_t v);
std::uint64_t apply(BinOp op, std::uint64_t a, std::uint64_t b);

/// Per-block resource usage, reported for introspection and enforced
/// against InstructionLimits.
struct BlockResources {
  int reg_reads = 0;
  int lmem_reads = 0;
  int writes = 0;
  int alu_ops = 0;
  int xtxns = 0;
};

struct CompiledProgram {
  CompiledProgram() = default;
  // The AST's resolved names point into this object's `vars` and
  // `module.structs` (ast.hpp), so a copy would point into the original.
  CompiledProgram(const CompiledProgram&) = delete;
  CompiledProgram& operator=(const CompiledProgram&) = delete;

  Module module;  // owns the AST the interpreter walks
  std::unordered_map<std::string, const StructDef*> structs;
  std::unordered_map<std::string, Location> vars;
  std::unordered_map<std::string, std::size_t> labels;  // block label -> idx
  std::vector<BlockResources> resources;  // parallel to module.blocks
  /// Register/LMEM initial values applied when a thread starts
  /// (compile-time-constant global initializers).
  std::vector<std::pair<const Location*, std::uint64_t>> initial_values;
  /// First LMEM byte available to variables (after the packet-head area —
  /// the binary "defines required symbols, such as the address in local
  /// memory where the packet header starts").
  std::size_t lmem_vars_base = 0;
  std::size_t lmem_used = 0;
  /// Operand-bus lanes used by 'bus'-class variables (§3.1): values that
  /// feed the ALUs directly and do not persist across instructions.
  int bus_slots = 0;

  std::size_t instruction_count() const { return module.blocks.size(); }
};

/// Compiles complete Microcode source. Throws CompileError on any error.
std::shared_ptr<const CompiledProgram> compile(
    const std::string& source, const InstructionLimits& limits = {},
    std::size_t lmem_bytes = 1280, std::size_t head_bytes = 192,
    int gpr_count = 32);

}  // namespace microcode
