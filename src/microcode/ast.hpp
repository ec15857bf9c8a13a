// Abstract syntax for the Microcode language (paper §3).
//
// A module is a list of struct definitions (bit-field packet header
// layouts), storage-class-qualified global variables, and labelled
// instruction blocks delimited by begin/end. Instruction delineation is
// explicit, exactly as in the Trio Compiler: one begin/end block is one
// VLIW micro-instruction, and the compiler *fails* if the block needs
// more resources than one instruction provides.
//
// The parser fills in the names; the compiler resolves each one once and
// stores the result on the node (the members marked "Resolved by the
// compiler"), so the interpreter walks the tree without a name lookup.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace microcode {

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr, kXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kLAnd, kLOr,
};

enum class UnOp { kNeg, kLNot, kBitNot };

struct Location;       // compiler.hpp
struct IntrinsicInfo;  // compiler.hpp
struct StructField;

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kNumber,     // literal
    kVar,        // identifier (possibly dotted builtin like r_work.pkt_len)
    kField,      // name->field (pointer deref) or name.field (struct var)
    kBinary,
    kUnary,
    kSizeof,     // sizeof(type) in bytes
    kIntrinsic,  // Name(args) in expression position (sync XTXNs)
    kIndex,      // name[expr]: 64-bit array element in local memory
  };

  Kind kind{};
  std::uint64_t number = 0;  // kNumber; kSizeof: the folded size
  std::string name;    // var / pointer / intrinsic / sizeof type
  std::string field;   // kField
  bool arrow = false;  // kField: true for '->', false for '.'
  BinOp bin{};
  UnOp un{};
  ExprPtr lhs;
  ExprPtr rhs;
  std::vector<ExprPtr> args;
  int line = 0;
  int col = 0;

  // Resolved by the compiler.
  const Location* loc = nullptr;  // kVar / kIndex / kField: `name`'s
                                  // storage, or a dotted builtin's
  const StructField* fld = nullptr;  // kField (null: dotted builtin)
  const IntrinsicInfo* intrinsic = nullptr;  // kIntrinsic
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct SwitchCase;

struct Stmt {
  enum class Kind {
    kAssign,     // lvalue = expr;
    kLocalDecl,  // [const] type [*] name = expr;
    kIf,         // if (cond) { ... } [else { ... }]
    kSwitch,     // switch (expr) { case N: {...} ... default: {...} }
    kGoto,
    kCall,
    kReturn,
    kIntrinsic,  // Name(args);
  };

  Kind kind{};
  ExprPtr target;  // kAssign: kVar or kField expression
  ExprPtr value;   // kAssign / kLocalDecl initializer
  ExprPtr cond;
  std::vector<StmtPtr> then_body;
  std::vector<StmtPtr> else_body;
  std::string label;      // kGoto / kCall
  std::string name;       // kIntrinsic / kLocalDecl variable name
  std::string type_name;  // kLocalDecl ("" = untyped scalar)
  bool is_pointer = false;
  std::vector<ExprPtr> args;
  std::vector<SwitchCase> cases;       // kSwitch arms
  std::vector<StmtPtr> default_body;   // kSwitch default arm (may be empty)
  int line = 0;
  int col = 0;

  // Resolved by the compiler.
  const Location* loc = nullptr;             // kLocalDecl
  std::size_t target_block = 0;              // kGoto / kCall
  const IntrinsicInfo* intrinsic = nullptr;  // kIntrinsic
};

/// One `case N: { ... }` arm. The sequencing logic selects among up to
/// eight targets per instruction (paper §2.2), which bounds the arm count.
struct SwitchCase {
  std::uint64_t value = 0;
  std::vector<StmtPtr> body;
};

struct StructField {
  std::string name;  // empty = anonymous padding (paper: unused bits)
  unsigned width = 0;
  unsigned bit_offset = 0;  // filled by layout
};

struct StructDef {
  std::string name;
  std::vector<StructField> fields;
  unsigned total_bits = 0;
  int line = 0;
  int col = 0;

  std::size_t size_bytes() const { return (total_bits + 7) / 8; }
  const StructField* find_field(const std::string& field) const {
    for (const auto& f : fields) {
      if (!f.name.empty() && f.name == field) return &f;
    }
    return nullptr;
  }
};

enum class StorageClass { kMemory, kRegister, kVirtual, kBus };

struct GlobalDecl {
  StorageClass storage{};
  bool is_const = false;
  std::string type_name;  // "" = untyped scalar
  bool is_pointer = false;
  std::size_t array_len = 0;  // > 0: array of 64-bit elements in LMEM
  std::string name;
  ExprPtr init;  // may be null
  int line = 0;
  int col = 0;
};

struct InstrBlock {
  std::string label;
  std::vector<StmtPtr> stmts;
  int line = 0;
  int col = 0;
};

struct Module {
  std::vector<StructDef> structs;
  std::vector<GlobalDecl> globals;
  std::vector<InstrBlock> blocks;
};

}  // namespace microcode
