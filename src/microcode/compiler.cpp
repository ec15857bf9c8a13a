#include "microcode/compiler.hpp"

#include <algorithm>
#include <unordered_set>

#include "microcode/error.hpp"
#include "microcode/parser.hpp"
#include "trio/program.hpp"

namespace microcode {

namespace {

using X = trio::XtxnOp;
using K = IntrinsicKind;
using O = OperandForm;
using R = ReplyForm;

// name, kind, arity, XTXN op, operand form, reply form.
constexpr IntrinsicInfo kIntrinsics[] = {
    {"CounterIncPhys", K::kPosted, 2, X::kCounterInc, O::kCounter, R::kNone},
    {"SmsWrite64", K::kPosted, 2, X::kWrite, O::kWrite64, R::kNone},
    {"SmsRead64", K::kSync, 1, X::kRead, O::kRead64, R::kLe64},
    {"FetchAdd32", K::kSync, 2, X::kFetchAdd32, O::kAddrArg, R::kValue},
    {"FetchOr64", K::kSync, 2, X::kFetchOr64, O::kAddrArg, R::kValue},
    {"FetchSwap64", K::kSync, 2, X::kFetchSwap64, O::kAddrArg, R::kValue},
    {"PolicerCheck", K::kSync, 2, X::kPolicerCheck, O::kAddrArg, R::kValue},
    {"HashLookup", K::kSync, 1, X::kHashLookup, O::kKey, R::kValue},
    {"HashInsert", K::kSync, 2, X::kHashInsert, O::kKeyValue, R::kOk},
    {"HashDelete", K::kSync, 1, X::kHashDelete, O::kKey, R::kOk},
    // Vector forms move (addr, lmem_off, len_bytes) between SMS and the
    // thread's LMEM; the RMW variants merge in place (netrpc §merge).
    {"SmsReadVec", K::kSync, 3, X::kRead, O::kReadVec, R::kToLmem},
    {"SmsWriteVec", K::kPosted, 3, X::kWrite, O::kLmemVec, R::kNone},
    {"AddVec32", K::kPosted, 3, X::kAddVec32, O::kLmemVec, R::kNone},
    {"MinVec32", K::kPosted, 3, X::kMinVec32, O::kLmemVec, R::kNone},
    {"VoteVec32", K::kPosted, 3, X::kVoteVec32, O::kLmemVec, R::kNone},
    {"SmsFill32", K::kPosted, 3, X::kWrite, O::kFill32, R::kNone},
    {"Forward", K::kAction, 1, {}, O::kNexthop, R::kNone},
    {"Drop", K::kAction, 0, {}, O::kEnd, R::kNone},
    {"Exit", K::kAction, 0, {}, O::kEnd, R::kNone},
};

static_assert(std::ranges::all_of(kIntrinsics, [](const IntrinsicInfo& i) {
  return i.arity <= kMaxIntrinsicArity &&
         (i.kind != K::kPosted || trio::xtxn_is_posted(i.op));
}));

}  // namespace

std::span<const IntrinsicInfo> intrinsics() { return kIntrinsics; }

std::uint64_t apply(UnOp op, std::uint64_t v) {
  switch (op) {
    case UnOp::kNeg: return ~v + 1;
    case UnOp::kLNot: return v == 0 ? 1 : 0;
    case UnOp::kBitNot: return ~v;
  }
  return 0;
}

std::uint64_t apply(BinOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return a * b;
    case BinOp::kDiv: return a / b;
    case BinOp::kMod: return a % b;
    case BinOp::kAnd: return a & b;
    case BinOp::kOr: return a | b;
    case BinOp::kXor: return a ^ b;
    case BinOp::kShl: return b >= 64 ? 0 : a << b;
    case BinOp::kShr: return b >= 64 ? 0 : a >> b;
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    case BinOp::kGe: return a >= b;
    case BinOp::kLAnd: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::kLOr: return (a != 0 || b != 0) ? 1 : 0;
  }
  return 0;
}

namespace {

class Compiler {
 public:
  Compiler(const InstructionLimits& limits, std::size_t lmem_bytes,
           std::size_t head_bytes, int gpr_count)
      : limits_(limits),
        lmem_bytes_(lmem_bytes),
        head_bytes_(head_bytes),
        gpr_count_(gpr_count) {}

  std::shared_ptr<const CompiledProgram> run(Module module) {
    auto out = std::make_shared<CompiledProgram>();
    prog_ = out.get();
    prog_->module = std::move(module);
    prog_->lmem_vars_base = head_bytes_;
    lmem_brk_ = head_bytes_;

    layout_structs();
    bind_builtins();
    bind_globals();
    index_labels();
    for (std::size_t i = 0; i < prog_->module.blocks.size(); ++i) {
      check_block(prog_->module.blocks[i], i);
    }
    prog_->lmem_used = lmem_brk_ - head_bytes_;
    return out;
  }

 private:
  void layout_structs() {
    for (auto& def : prog_->module.structs) {
      if (prog_->structs.contains(def.name)) {
        throw CompileError("duplicate struct '" + def.name + "'", def.line,
                           def.col);
      }
      unsigned off = 0;
      for (auto& f : def.fields) {
        f.bit_offset = off;
        off += f.width;
        if (!f.name.empty()) {
          for (const auto& g : def.fields) {
            if (&g != &f && g.name == f.name) {
              throw CompileError(
                  "duplicate field '" + f.name + "' in struct " + def.name,
                  def.line, def.col);
            }
          }
        }
      }
      def.total_bits = off;
      prog_->structs.emplace(def.name, &def);
    }
  }

  void bind_builtins() {
    // Intermediate registers ir0..ir7 map to GPRs 0..7 (the remaining
    // GPRs are the allocation pool for program variables).
    for (int i = 0; i < 8; ++i) {
      Location loc;
      loc.kind = Location::Kind::kReg;
      loc.reg = i;
      prog_->vars.emplace("ir" + std::to_string(i), loc);
    }
    Location pkt_len;
    pkt_len.kind = Location::Kind::kBuiltin;
    prog_->vars.emplace("r_work.pkt_len", pkt_len);
    next_reg_ = 8;
  }

  const StructDef* resolve_type(const std::string& name, int line, int col) {
    if (name.empty()) return nullptr;
    auto it = prog_->structs.find(name);
    if (it == prog_->structs.end()) {
      throw CompileError("unknown type '" + name + "'", line, col);
    }
    return it->second;
  }

  std::uint64_t const_eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return e.number;
      case Expr::Kind::kSizeof:
        return resolve_type(e.name, e.line, e.col)->size_bytes();
      case Expr::Kind::kVar: {
        auto it = prog_->vars.find(e.name);
        if (it != prog_->vars.end() &&
            it->second.kind == Location::Kind::kConst) {
          return it->second.const_value;
        }
        throw CompileError("initializer is not a compile-time constant",
                           e.line, e.col);
      }
      case Expr::Kind::kUnary:
        return apply(e.un, const_eval(*e.lhs));
      case Expr::Kind::kBinary: {
        const std::uint64_t a = const_eval(*e.lhs);
        const std::uint64_t b = const_eval(*e.rhs);
        if (b == 0 && (e.bin == BinOp::kDiv || e.bin == BinOp::kMod)) {
          throw CompileError("division by zero", e.line, e.col);
        }
        return apply(e.bin, a, b);
      }
      default:
        break;
    }
    throw CompileError("initializer is not a compile-time constant", e.line,
                       e.col);
  }

  Location allocate_scalar(const StructDef* type, bool is_pointer,
                           StorageClass storage, int line, int col) {
    Location loc;
    loc.type = type;
    loc.is_pointer = is_pointer;
    if (type != nullptr && !is_pointer) {
      // Struct values live in LMEM regardless of storage class.
      loc.kind = Location::Kind::kLmem;
      loc.lmem_offset = lmem_alloc(type->size_bytes(), line, col);
      loc.size_bytes = type->size_bytes();
      return loc;
    }
    // Scalars and pointers: registers first (the 'memory' class covers
    // both registers and LMEM, §3.1), spilling to LMEM when the pool is
    // exhausted.
    if (storage != StorageClass::kVirtual && next_reg_ < gpr_count_) {
      loc.kind = Location::Kind::kReg;
      loc.reg = next_reg_++;
      return loc;
    }
    loc.kind = Location::Kind::kLmem;
    loc.lmem_offset = lmem_alloc(8, line, col);
    return loc;
  }

  std::size_t lmem_alloc(std::size_t bytes, int line, int col) {
    const std::size_t at = (lmem_brk_ + 7) / 8 * 8;
    if (at + bytes > lmem_bytes_) {
      throw CompileError("thread local memory exhausted (1.25 KB)", line, col);
    }
    lmem_brk_ = at + bytes;
    return at;
  }

  const Location& define_var(const std::string& name, Location loc, int line,
                             int col) {
    auto [it, fresh] = prog_->vars.emplace(name, loc);
    if (!fresh) {
      throw CompileError("redefinition of '" + name + "'", line, col);
    }
    return it->second;
  }

  void bind_globals() {
    for (const auto& g : prog_->module.globals) {
      const StructDef* type = resolve_type(g.type_name, g.line, g.col);
      if (g.storage == StorageClass::kVirtual) {
        if (!g.init) {
          throw CompileError("virtual variable '" + g.name +
                                 "' requires a constant initializer",
                             g.line, g.col);
        }
        Location loc;
        loc.kind = Location::Kind::kConst;
        loc.const_value = const_eval(*g.init);
        loc.type = type;
        loc.is_pointer = g.is_pointer;
        define_var(g.name, loc, g.line, g.col);
        continue;
      }
      if (g.storage == StorageClass::kBus) {
        if (type != nullptr || g.is_pointer || g.array_len > 0 || g.init) {
          throw CompileError(
              "bus variables are plain scalars without initializers "
              "(they only exist within one instruction)",
              g.line, g.col);
        }
        if (prog_->bus_slots >= static_cast<int>(trio::kBusLanes)) {
          throw CompileError("at most " + std::to_string(trio::kBusLanes) +
                                 " bus variables (one per operand-bus lane)",
                             g.line, g.col);
        }
        Location loc;
        loc.kind = Location::Kind::kBus;
        loc.bus_slot = prog_->bus_slots++;
        define_var(g.name, loc, g.line, g.col);
        continue;
      }
      if (g.array_len > 0) {
        if (type != nullptr || g.is_pointer) {
          throw CompileError(
              "arrays hold 64-bit scalars (no struct/pointer arrays)",
              g.line, g.col);
        }
        Location loc;
        loc.kind = Location::Kind::kLmem;
        loc.lmem_offset = lmem_alloc(g.array_len * 8, g.line, g.col);
        loc.size_bytes = g.array_len * 8;
        loc.is_array = true;
        loc.array_len = g.array_len;
        define_var(g.name, loc, g.line, g.col);
        continue;
      }
      const Location& loc = define_var(
          g.name, allocate_scalar(type, g.is_pointer, g.storage, g.line, g.col),
          g.line, g.col);
      if (g.init) {
        prog_->initial_values.emplace_back(&loc, const_eval(*g.init));
      }
    }
  }

  void index_labels() {
    for (std::size_t i = 0; i < prog_->module.blocks.size(); ++i) {
      const auto& b = prog_->module.blocks[i];
      if (prog_->labels.contains(b.label)) {
        throw CompileError("duplicate instruction label '" + b.label + "'",
                           b.line, b.col);
      }
      prog_->labels.emplace(b.label, i);
    }
    if (prog_->module.blocks.empty()) {
      throw CompileError("program has no instruction blocks", 1, 1);
    }
  }

  // --- Per-block binding, validation, resource accounting -----------------

  static void add_into(BlockResources& r, const BlockResources& a) {
    r.reg_reads += a.reg_reads;
    r.lmem_reads += a.lmem_reads;
    r.writes += a.writes;
    r.alu_ops += a.alu_ops;
    r.xtxns += a.xtxns;
  }

  /// Element-wise max accumulator, for mutually exclusive arms.
  static void max_into(BlockResources& w, const BlockResources& a) {
    w.reg_reads = std::max(w.reg_reads, a.reg_reads);
    w.lmem_reads = std::max(w.lmem_reads, a.lmem_reads);
    w.writes = std::max(w.writes, a.writes);
    w.alu_ops = std::max(w.alu_ops, a.alu_ops);
    w.xtxns = std::max(w.xtxns, a.xtxns);
  }

  void count_read(const Location& loc, BlockResources& r) {
    switch (loc.kind) {
      case Location::Kind::kReg: ++r.reg_reads; break;
      case Location::Kind::kLmem: ++r.lmem_reads; break;
      // Constants/builtins are immediate operands; bus values ride the
      // operand bus straight into the ALUs (§3.1) and cost no read port.
      default: break;
    }
  }

  static const IntrinsicInfo* resolve_intrinsic(const std::string& name,
                                                std::size_t nargs, int line,
                                                int col) {
    const IntrinsicInfo* info =
        std::ranges::find(kIntrinsics, name, &IntrinsicInfo::name);
    if (info == std::end(kIntrinsics)) {
      throw CompileError("unknown intrinsic '" + name + "'", line, col);
    }
    if (nargs != static_cast<std::size_t>(info->arity)) {
      throw CompileError("intrinsic '" + name + "' expects " +
                             std::to_string(info->arity) + " argument(s)",
                         line, col);
    }
    return info;
  }

  const Location& resolve_var(Expr& e) {
    auto it = prog_->vars.find(e.name);
    if (it == prog_->vars.end()) {
      throw CompileError("use of undeclared variable '" + e.name + "'",
                         e.line, e.col);
    }
    e.loc = &it->second;
    return it->second;
  }

  // check_expr / check_lvalue / check_stmt validate a node, count its
  // resources, and store each name's resolution on it (ast.hpp).
  void check_expr(Expr& e, BlockResources& r, bool allow_sync) {
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return;
      case Expr::Kind::kSizeof:
        e.number = resolve_type(e.name, e.line, e.col)->size_bytes();
        return;
      case Expr::Kind::kVar: {
        const Location& loc = resolve_var(e);
        if (loc.kind == Location::Kind::kBus &&
            !bus_defined_.contains(e.name)) {
          throw CompileError(
              "bus variable '" + e.name +
                  "' read before being assigned in this instruction (bus "
                  "values do not persist across instructions)",
              e.line, e.col);
        }
        count_read(loc, r);
        return;
      }
      case Expr::Kind::kField: {
        // Dotted builtins (r_work.pkt_len) parse as kField with '.'.
        if (!e.arrow) {
          auto dotted = prog_->vars.find(e.name + "." + e.field);
          if (dotted != prog_->vars.end()) {
            e.loc = &dotted->second;
            return;
          }
        }
        const Location& base = resolve_var(e);
        if (base.type == nullptr) {
          throw CompileError("'" + e.name + "' has no struct type", e.line,
                             e.col);
        }
        if (e.arrow && !base.is_pointer) {
          throw CompileError("'->' applied to non-pointer '" + e.name + "'",
                             e.line, e.col);
        }
        if (!e.arrow && base.is_pointer) {
          throw CompileError("'.' applied to pointer '" + e.name +
                                 "' (use '->')",
                             e.line, e.col);
        }
        e.fld = base.type->find_field(e.field);
        if (e.fld == nullptr) {
          throw CompileError("struct " + base.type->name + " has no field '" +
                                 e.field + "'",
                             e.line, e.col);
        }
        if (e.arrow) count_read(base, r);  // pointer operand
        ++r.lmem_reads;                    // the field itself
        return;
      }
      case Expr::Kind::kUnary:
        ++r.alu_ops;
        check_expr(*e.lhs, r, false);
        return;
      case Expr::Kind::kBinary:
        ++r.alu_ops;
        check_expr(*e.lhs, r, false);
        check_expr(*e.rhs, r, false);
        return;
      case Expr::Kind::kIndex:
        if (!resolve_var(e).is_array) {
          throw CompileError("'" + e.name + "' is not an array", e.line,
                             e.col);
        }
        ++r.lmem_reads;
        check_expr(*e.lhs, r, false);
        return;
      case Expr::Kind::kIntrinsic: {
        const IntrinsicInfo* info =
            resolve_intrinsic(e.name, e.args.size(), e.line, e.col);
        if (info->kind != IntrinsicKind::kSync) {
          throw CompileError("intrinsic '" + e.name +
                                 "' cannot be used in an expression",
                             e.line, e.col);
        }
        if (!allow_sync) {
          throw CompileError(
              "synchronous intrinsic '" + e.name +
                  "' only allowed as the entire right-hand side of a "
                  "top-level assignment",
              e.line, e.col);
        }
        e.intrinsic = info;
        ++r.xtxns;
        for (const auto& a : e.args) check_expr(*a, r, false);
        return;
      }
    }
  }

  void check_lvalue(Expr& e, BlockResources& r) {
    if (e.kind == Expr::Kind::kVar) {
      const Location& loc = resolve_var(e);
      if (loc.kind == Location::Kind::kConst ||
          loc.kind == Location::Kind::kBuiltin) {
        throw CompileError("cannot assign to constant '" + e.name + "'",
                           e.line, e.col);
      }
      if (loc.kind == Location::Kind::kBus) {
        // Routing an ALU result onto the operand bus: no write port.
        bus_defined_.insert(e.name);
        return;
      }
      ++r.writes;
      return;
    }
    if (e.kind == Expr::Kind::kIndex) {
      if (!resolve_var(e).is_array) {
        throw CompileError("assignment to non-array '" + e.name + "'",
                           e.line, e.col);
      }
      check_expr(*e.lhs, r, false);
      ++r.writes;
      return;
    }
    if (e.kind == Expr::Kind::kField) {
      BlockResources scratch;  // reads of the base pointer count as reads
      check_expr(e, scratch, false);
      if (e.fld == nullptr) {
        throw CompileError("cannot assign to builtin '" + e.name + "." +
                               e.field + "'",
                           e.line, e.col);
      }
      r.reg_reads += scratch.reg_reads;
      // The field write is a write, not a read.
      r.lmem_reads += scratch.lmem_reads - 1;
      ++r.writes;
      return;
    }
    throw CompileError("invalid assignment target", e.line, e.col);
  }

  void check_stmt(Stmt& s, BlockResources& r, bool top_level) {
    switch (s.kind) {
      case Stmt::Kind::kAssign:
        check_lvalue(*s.target, r);
        check_expr(*s.value, r, top_level);
        return;
      case Stmt::Kind::kLocalDecl: {
        const StructDef* type = resolve_type(s.type_name, s.line, s.col);
        // Program-scoped: first declaration allocates the storage; later
        // blocks may re-initialize the same name.
        auto it = prog_->vars.find(s.name);
        s.loc = it != prog_->vars.end()
                    ? &it->second
                    : &define_var(s.name,
                                  allocate_scalar(type, s.is_pointer,
                                                  StorageClass::kRegister,
                                                  s.line, s.col),
                                  s.line, s.col);
        ++r.writes;
        check_expr(*s.value, r, top_level);
        return;
      }
      case Stmt::Kind::kIf: {
        ++r.alu_ops;  // the condition feeds the sequencing logic
        check_expr(*s.cond, r, false);
        // The arms are mutually exclusive: one instruction provisions the
        // *widest* arm, not the sum (the sequencing logic selects which
        // operations fire).
        BlockResources then_r, else_r;
        for (auto& t : s.then_body) check_stmt(*t, then_r, false);
        for (auto& t : s.else_body) check_stmt(*t, else_r, false);
        max_into(then_r, else_r);
        add_into(r, then_r);
        return;
      }
      case Stmt::Kind::kSwitch: {
        // Multi-way branch: the sequencing logic selects among at most
        // eight targets per instruction (§2.2).
        if (s.cases.size() + 1 > 8) {
          throw CompileError(
              "switch has more than 8 targets (one instruction's "
              "multi-way branch limit)",
              s.line, s.col);
        }
        for (std::size_t i = 0; i < s.cases.size(); ++i) {
          for (std::size_t j = i + 1; j < s.cases.size(); ++j) {
            if (s.cases[i].value == s.cases[j].value) {
              throw CompileError("duplicate case value " +
                                     std::to_string(s.cases[i].value),
                                 s.line, s.col);
            }
          }
        }
        ++r.alu_ops;
        check_expr(*s.cond, r, false);
        BlockResources widest;
        for (auto& arm : s.cases) {
          BlockResources arm_r;
          for (auto& t : arm.body) check_stmt(*t, arm_r, false);
          max_into(widest, arm_r);
        }
        BlockResources def_r;
        for (auto& t : s.default_body) check_stmt(*t, def_r, false);
        max_into(widest, def_r);
        add_into(r, widest);
        return;
      }
      case Stmt::Kind::kGoto:
      case Stmt::Kind::kCall: {
        auto it = prog_->labels.find(s.label);
        if (it == prog_->labels.end()) {
          throw CompileError("undefined label '" + s.label + "'", s.line,
                             s.col);
        }
        s.target_block = it->second;
        return;
      }
      case Stmt::Kind::kReturn:
        return;
      case Stmt::Kind::kIntrinsic: {
        const IntrinsicInfo* info =
            resolve_intrinsic(s.name, s.args.size(), s.line, s.col);
        if (info->kind == IntrinsicKind::kSync) {
          throw CompileError("synchronous intrinsic '" + s.name +
                                 "' returns a value; assign it",
                             s.line, s.col);
        }
        s.intrinsic = info;
        if (info->kind == IntrinsicKind::kPosted) ++r.xtxns;
        for (const auto& a : s.args) check_expr(*a, r, false);
        return;
      }
    }
  }

  void check_block(InstrBlock& b, std::size_t index) {
    bus_defined_.clear();  // bus values die at the instruction boundary
    BlockResources r;
    for (auto& s : b.stmts) check_stmt(*s, r, /*top_level=*/true);
    const auto over = [&](const char* what, int used, int limit) {
      throw CompileError(
          "instruction '" + b.label + "' does not fit: " + what + " used " +
              std::to_string(used) + ", limit " + std::to_string(limit) +
              " (split the work across instructions)",
          b.line, b.col);
    };
    if (r.reg_reads > limits_.max_reg_reads) {
      over("register reads", r.reg_reads, limits_.max_reg_reads);
    }
    if (r.lmem_reads > limits_.max_lmem_reads) {
      over("local-memory reads", r.lmem_reads, limits_.max_lmem_reads);
    }
    if (r.writes > limits_.max_writes) {
      over("writes", r.writes, limits_.max_writes);
    }
    if (r.alu_ops > limits_.max_alu_ops) {
      over("ALU operations", r.alu_ops, limits_.max_alu_ops);
    }
    if (r.xtxns > limits_.max_xtxns) {
      over("external transactions", r.xtxns, limits_.max_xtxns);
    }
    prog_->resources.resize(index + 1);
    prog_->resources[index] = r;
  }

  InstructionLimits limits_;
  std::size_t lmem_bytes_;
  std::size_t head_bytes_;
  int gpr_count_;
  CompiledProgram* prog_ = nullptr;
  std::size_t lmem_brk_ = 0;
  int next_reg_ = 8;
  std::unordered_set<std::string> bus_defined_;
};

}  // namespace

std::shared_ptr<const CompiledProgram> compile(const std::string& source,
                                               const InstructionLimits& limits,
                                               std::size_t lmem_bytes,
                                               std::size_t head_bytes,
                                               int gpr_count) {
  Compiler c(limits, lmem_bytes, head_bytes, gpr_count);
  return c.run(parse(source));
}

}  // namespace microcode
