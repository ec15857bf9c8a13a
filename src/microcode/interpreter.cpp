#include "microcode/interpreter.hpp"

#include <stdexcept>
#include <tuple>

#include "microcode/bitfield.hpp"

namespace microcode {

namespace {

/// Runtime faults are programming errors in the Microcode program; the
/// simulated hardware traps loudly instead of corrupting state.
[[noreturn]] void trap(const std::string& msg, int line, int col) {
  throw std::runtime_error("microcode runtime trap at " +
                           std::to_string(line) + ":" + std::to_string(col) +
                           ": " + msg);
}

}  // namespace

MicrocodeThread::MicrocodeThread(
    std::shared_ptr<const CompiledProgram> program)
    : prog_(std::move(program)) {}

std::uint64_t MicrocodeThread::load(const Location& loc,
                                    trio::ThreadContext& ctx) const {
  switch (loc.kind) {
    case Location::Kind::kReg:
      return ctx.regs[static_cast<std::size_t>(loc.reg)];
    case Location::Kind::kLmem:
      return ctx.lmem.u64(loc.lmem_offset);
    case Location::Kind::kConst:
      return loc.const_value;
    case Location::Kind::kBuiltin:
      return ctx.packet ? ctx.packet->size() : 0;  // r_work.pkt_len
    case Location::Kind::kBus:
      return ctx.bus[static_cast<std::size_t>(loc.bus_slot)];
  }
  return 0;
}

void MicrocodeThread::store(const Location& loc, std::uint64_t v,
                            trio::ThreadContext& ctx) const {
  switch (loc.kind) {
    case Location::Kind::kReg:
      ctx.regs[static_cast<std::size_t>(loc.reg)] = v;
      return;
    case Location::Kind::kLmem:
      ctx.lmem.set_u64(loc.lmem_offset, v);
      return;
    case Location::Kind::kBus:
      ctx.bus[static_cast<std::size_t>(loc.bus_slot)] = v;
      return;
    default:
      throw std::logic_error("store to non-writable location");
  }
}

std::uint64_t MicrocodeThread::eval(const Expr& e, trio::ThreadContext& ctx) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
    case Expr::Kind::kSizeof:
      return e.number;
    case Expr::Kind::kVar:
      return load(*e.loc, ctx);
    case Expr::Kind::kField:
      if (e.fld == nullptr) return load(*e.loc, ctx);  // dotted builtin
      return read_bits(ctx.lmem, field_bit(e, ctx), e.fld->width);
    case Expr::Kind::kUnary:
      return apply(e.un, eval(*e.lhs, ctx));
    case Expr::Kind::kBinary: {
      // Short-circuit forms first.
      if (e.bin == BinOp::kLAnd) {
        return eval(*e.lhs, ctx) != 0 && eval(*e.rhs, ctx) != 0 ? 1 : 0;
      }
      if (e.bin == BinOp::kLOr) {
        return eval(*e.lhs, ctx) != 0 || eval(*e.rhs, ctx) != 0 ? 1 : 0;
      }
      const std::uint64_t a = eval(*e.lhs, ctx);
      const std::uint64_t b = eval(*e.rhs, ctx);
      if (b == 0 && (e.bin == BinOp::kDiv || e.bin == BinOp::kMod)) {
        trap(e.bin == BinOp::kDiv ? "division by zero" : "modulo by zero",
             e.line, e.col);
      }
      return apply(e.bin, a, b);
    }
    case Expr::Kind::kIndex:
      return ctx.lmem.u64(element_offset(e, ctx));
    case Expr::Kind::kIntrinsic:
      throw std::logic_error(
          "sync intrinsic evaluated outside assignment (compiler bug)");
  }
  return 0;
}

MicrocodeThread::Args MicrocodeThread::eval_args(
    const std::vector<ExprPtr>& exprs, trio::ThreadContext& ctx) {
  Args args{};
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    args[i] = eval(*exprs[i], ctx);
  }
  return args;
}

std::size_t MicrocodeThread::element_offset(const Expr& e,
                                            trio::ThreadContext& ctx) {
  const std::uint64_t idx = eval(*e.lhs, ctx);
  if (idx >= e.loc->array_len) {
    trap("array index " + std::to_string(idx) + " out of bounds (len " +
             std::to_string(e.loc->array_len) + ")",
         e.line, e.col);
  }
  return e.loc->lmem_offset + idx * 8;
}

std::size_t MicrocodeThread::field_bit(const Expr& e,
                                       trio::ThreadContext& ctx) const {
  const std::size_t base_bytes =
      e.arrow ? load(*e.loc, ctx) : e.loc->lmem_offset;
  return base_bytes * 8 + e.fld->bit_offset;
}

void MicrocodeThread::assign(const Expr& target, std::uint64_t v,
                             trio::ThreadContext& ctx) {
  switch (target.kind) {
    case Expr::Kind::kVar:
      store(*target.loc, v, ctx);
      return;
    case Expr::Kind::kIndex:
      ctx.lmem.set_u64(element_offset(target, ctx), v);
      return;
    default:  // kField
      write_bits(ctx.lmem, field_bit(target, ctx), target.fld->width, v);
      return;
  }
}

void MicrocodeThread::complete(const Stmt& s, std::uint64_t v,
                               trio::ThreadContext& ctx) {
  if (s.kind == Stmt::Kind::kAssign) {
    assign(*s.target, v, ctx);
  } else {
    store(*s.loc, v, ctx);
  }
}

trio::XtxnRequest MicrocodeThread::build_request(const IntrinsicInfo& in,
                                                 const Args& a, int line,
                                                 int col,
                                                 trio::ThreadContext& ctx) {
  // The vector forms' LMEM range is checked at issue time, like the
  // hardware's operand fetch; the form of the test keeps a range that
  // wraps around 2^64 from slipping past it.
  const std::size_t lmem_size = ctx.lmem.size();
  const auto check_lmem_range = [&](std::uint64_t off, std::uint64_t len) {
    if (off > lmem_size || len > lmem_size - off) {
      trap(std::string(in.name) + " LMEM range of " + std::to_string(len) +
               " bytes at offset " + std::to_string(off) +
               " exceeds LMEM size " + std::to_string(lmem_size),
           line, col);
    }
  };
  trio::XtxnRequest req;
  req.op = in.op;
  switch (in.operands) {
    case OperandForm::kCounter:
      // Counter addresses are in 8-byte words (Fig 6: adjacent 16-byte
      // counters are 2 words apart).
      req.addr = a[0] * 8;
      req.arg0 = a[1];
      break;
    case OperandForm::kAddrArg:
      req.addr = a[0];
      req.arg0 = a[1];
      break;
    case OperandForm::kWrite64:
      req.addr = a[0];
      req.data.resize(8);
      for (std::size_t i = 0; i < 8; ++i) {
        req.data[i] = static_cast<std::uint8_t>(a[1] >> (8 * i));
      }
      break;
    case OperandForm::kRead64:
      req.addr = a[0];
      req.len = 8;
      break;
    case OperandForm::kKeyValue:
      req.arg1 = a[1];
      [[fallthrough]];
    case OperandForm::kKey:
      req.arg0 = a[0];
      break;
    case OperandForm::kReadVec:
      check_lmem_range(a[1], a[2]);
      req.addr = a[0];
      req.len = static_cast<std::uint32_t>(a[2]);
      pending_vec_off_ = static_cast<std::size_t>(a[1]);
      break;
    case OperandForm::kLmemVec:
      check_lmem_range(a[1], a[2]);
      req.addr = a[0];
      req.data.assign(ctx.lmem.view(a[1], a[2]));
      break;
    case OperandForm::kFill32:
      // The datapath's buffer-reset primitive (0 for sum/majority, ~0 for
      // min presets), bounded by the LMEM size like the other vector forms.
      if (a[2] > lmem_size) {
        trap(std::string(in.name) + " length " + std::to_string(a[2]) +
                 " exceeds LMEM size " + std::to_string(lmem_size),
             line, col);
      }
      req.addr = a[0];
      req.data.resize(a[2]);
      for (std::size_t i = 0; i < req.data.size(); ++i) {
        req.data[i] = static_cast<std::uint8_t>(a[1] >> (8 * (i % 4)));
      }
      break;
    case OperandForm::kEnd:
    case OperandForm::kNexthop:
      throw std::logic_error("action issued as an XTXN (compiler bug)");
  }
  return req;
}

std::uint64_t MicrocodeThread::reply_value(const IntrinsicInfo& in,
                                           const trio::XtxnReply& reply,
                                           trio::ThreadContext& ctx) const {
  switch (in.reply) {
    case ReplyForm::kLe64: {
      std::uint64_t v = 0;
      for (std::size_t i = 8; i-- > 0;) {
        v = v << 8 | (i < reply.data.size() ? reply.data[i] : 0);
      }
      return v;
    }
    case ReplyForm::kToLmem:
      // Land the payload in LMEM at the offset captured at issue time; the
      // assignment target receives the byte count moved.
      ctx.lmem.write(pending_vec_off_, reply.data);
      return reply.data.size();
    case ReplyForm::kOk:
      return reply.ok ? 1 : 0;
    default:
      return reply.value;
  }
}

MicrocodeThread::Control MicrocodeThread::exec_stmt(
    const Stmt& s, trio::ThreadContext& ctx) {
  switch (s.kind) {
    case Stmt::Kind::kAssign:
    case Stmt::Kind::kLocalDecl: {
      const Expr& value = *s.value;
      if (value.kind == Expr::Kind::kIntrinsic) {
        // Synchronous XTXN: suspend; the assignment completes on resume.
        Control c{Control::Kind::kSync, 0,
                  build_request(*value.intrinsic, eval_args(value.args, ctx),
                                value.line, value.col, ctx)};
        pending_ = &s;
        return c;
      }
      complete(s, eval(value, ctx), ctx);
      return {};
    }
    case Stmt::Kind::kIf: {
      const auto& body =
          eval(*s.cond, ctx) != 0 ? s.then_body : s.else_body;
      return exec_stmts(body, 0, false, ctx);
    }
    case Stmt::Kind::kSwitch: {
      const std::uint64_t v = eval(*s.cond, ctx);
      for (const auto& arm : s.cases) {
        if (arm.value == v) return exec_stmts(arm.body, 0, false, ctx);
      }
      return exec_stmts(s.default_body, 0, false, ctx);
    }
    case Stmt::Kind::kGoto:
      return {Control::Kind::kGoto, s.target_block};
    case Stmt::Kind::kCall:
      if (call_depth_ >= kMaxCallDepth) {
        trap("call depth exceeds 8 (hardware limit)", s.line, s.col);
      }
      return {Control::Kind::kCallXfer, s.target_block};
    case Stmt::Kind::kReturn:
      if (call_depth_ == 0) {
        trap("return without call", s.line, s.col);
      }
      return {Control::Kind::kReturnXfer};
    case Stmt::Kind::kIntrinsic: {
      const IntrinsicInfo& in = *s.intrinsic;
      if (in.operands == OperandForm::kEnd) return {Control::Kind::kExit};
      const Args args = eval_args(s.args, ctx);
      if (in.operands == OperandForm::kNexthop) {
        // Unload the modified head from LMEM back into the frame (§2.2)
        // and hand the packet to forwarding.
        if (!ctx.packet) trap("Forward() on a packet-less thread", s.line, s.col);
        const std::size_t head = ctx.packet->head_size();
        ctx.packet->frame().write(0, ctx.lmem.view(0, head));
        ctx.actions.push_back(trio::ActEmitPacket{
            ctx.packet, static_cast<std::uint32_t>(args[0]), 0});
        return {};
      }
      ctx.actions.push_back(trio::ActAsyncXtxn{
          build_request(in, args, s.line, s.col, ctx), 0});
      return {};
    }
  }
  return {};
}

MicrocodeThread::Control MicrocodeThread::exec_stmts(
    const std::vector<StmtPtr>& stmts, std::size_t from, bool top_level,
    trio::ThreadContext& ctx) {
  for (std::size_t i = from; i < stmts.size(); ++i) {
    if (top_level) stmt_idx_ = i;
    Control c = exec_stmt(*stmts[i], ctx);
    if (c.kind != Control::Kind::kFallthrough) return c;
  }
  return {};
}

trio::Action MicrocodeThread::step(trio::ThreadContext& ctx) {
  if (!ctx.actions.empty()) return ctx.actions.pop_front();
  if (exited_) return trio::ActExit{0};
  if (!started_) {
    started_ = true;
    for (const auto& [loc, value] : prog_->initial_values) {
      store(*loc, value, ctx);
    }
  }
  if (pending_ != nullptr) {
    complete(*pending_,
             reply_value(*pending_->value->intrinsic, ctx.reply, ctx), ctx);
    pending_ = nullptr;
    ++stmt_idx_;  // the assignment's statement is complete
  }

  Control c = exec_stmts(prog_->module.blocks[pc_].stmts, stmt_idx_,
                         /*top_level=*/true, ctx);

  // Translate the block's control transfer into the primary action; any
  // posted XTXNs / emits collected in ctx.actions follow as zero-instruction
  // actions (they belong to this same micro-instruction).
  trio::Action primary = trio::ActContinue{1};
  switch (c.kind) {
    case Control::Kind::kFallthrough:
      stmt_idx_ = 0;
      if (++pc_ >= prog_->module.blocks.size()) {
        exited_ = true;
        primary = trio::ActExit{1};
      }
      break;
    case Control::Kind::kCallXfer:
      call_stack_[call_depth_++] = {pc_, stmt_idx_ + 1};
      [[fallthrough]];
    case Control::Kind::kGoto:
      pc_ = c.target;
      stmt_idx_ = 0;
      break;
    case Control::Kind::kReturnXfer:
      std::tie(pc_, stmt_idx_) = call_stack_[--call_depth_];
      break;
    case Control::Kind::kSync:
      primary = trio::ActSyncXtxn{std::move(c.sync_req), 1};
      break;
    case Control::Kind::kExit:
      exited_ = true;
      primary = trio::ActExit{1};
      break;
  }

  if (!ctx.actions.empty()) {
    // Emit/posted actions first (they happen inside the instruction),
    // then the control action. Charge the single instruction on the first
    // action returned.
    std::visit([](auto& a) { a.instructions = 0; }, primary);
    ctx.actions.push_back(std::move(primary));
    trio::Action first = ctx.actions.pop_front();
    std::visit([](auto& a) { a.instructions = 1; }, first);
    return first;
  }
  return primary;
}

trio::ProgramFactory make_program_factory(
    std::shared_ptr<const CompiledProgram> program) {
  return [program](const net::Packet&) -> std::unique_ptr<trio::PpeProgram> {
    return std::make_unique<MicrocodeThread>(program);
  };
}

}  // namespace microcode
