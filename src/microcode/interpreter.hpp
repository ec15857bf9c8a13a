// Executes a CompiledProgram on a simulated PPE thread.
//
// Each begin/end block is one VLIW micro-instruction: executing it charges
// one instruction of engine time, and its external transactions become
// thread actions (posted XTXNs continue, synchronous XTXNs suspend the
// thread until the reply). Control transfers follow the paper's model —
// goto selects the next instruction, call/return nests up to eight levels,
// falling off the end of an instruction block falls through to the next
// one, and Exit()/Drop() destroy the thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "microcode/compiler.hpp"
#include "trio/program.hpp"

namespace microcode {

class MicrocodeThread : public trio::PpeProgram {
 public:
  explicit MicrocodeThread(std::shared_ptr<const CompiledProgram> program);

  trio::Action step(trio::ThreadContext& ctx) override;

  std::size_t pc() const { return pc_; }

 private:
  using Args = std::array<std::uint64_t, kMaxIntrinsicArity>;

  // Result of running one block to its control transfer.
  struct Control {
    enum class Kind {
      kFallthrough, kGoto, kCallXfer, kReturnXfer, kSync, kExit
    };
    Kind kind = Kind::kFallthrough;
    std::size_t target = 0;          // kGoto / kCallXfer
    trio::XtxnRequest sync_req{};    // kSync
  };

  Control exec_stmts(const std::vector<StmtPtr>& stmts, std::size_t from,
                     bool top_level, trio::ThreadContext& ctx);
  Control exec_stmt(const Stmt& s, trio::ThreadContext& ctx);
  /// Stores `v` into the target of an assignment or local declaration.
  void complete(const Stmt& s, std::uint64_t v, trio::ThreadContext& ctx);

  std::uint64_t eval(const Expr& e, trio::ThreadContext& ctx);
  Args eval_args(const std::vector<ExprPtr>& exprs, trio::ThreadContext& ctx);
  std::uint64_t load(const Location& loc, trio::ThreadContext& ctx) const;
  void store(const Location& loc, std::uint64_t v,
             trio::ThreadContext& ctx) const;
  void assign(const Expr& target, std::uint64_t v, trio::ThreadContext& ctx);
  /// LMEM byte offset of array element `e` (kIndex), bounds-checked.
  std::size_t element_offset(const Expr& e, trio::ThreadContext& ctx);
  /// LMEM bit offset of struct field `e` (kField).
  std::size_t field_bit(const Expr& e, trio::ThreadContext& ctx) const;
  trio::XtxnRequest build_request(const IntrinsicInfo& in, const Args& args,
                                  int line, int col, trio::ThreadContext& ctx);
  std::uint64_t reply_value(const IntrinsicInfo& in,
                            const trio::XtxnReply& reply,
                            trio::ThreadContext& ctx) const;

  std::shared_ptr<const CompiledProgram> prog_;
  std::size_t pc_ = 0;
  std::size_t stmt_idx_ = 0;
  bool started_ = false;
  bool exited_ = false;

  // Synchronous-XTXN continuation: the assignment or local declaration
  // awaiting the reply value.
  const Stmt* pending_ = nullptr;
  // SmsReadVec continuation: LMEM offset the reply payload lands at.
  std::size_t pending_vec_off_ = 0;

  // Return points (block, statement) of the active calls: the hardware
  // nests calls at most eight deep, so the stack is a fixed array. Posted
  // XTXNs and emits produced by a block wait in the thread's action
  // queue, and 'bus'-class variables live in its operand-bus lanes.
  static constexpr std::size_t kMaxCallDepth = 8;
  std::array<std::pair<std::size_t, std::size_t>, kMaxCallDepth> call_stack_{};
  std::size_t call_depth_ = 0;
};

/// Wraps a compiled program as a per-packet program factory for
/// trio::Pfe::set_program_factory.
trio::ProgramFactory make_program_factory(
    std::shared_ptr<const CompiledProgram> program);

}  // namespace microcode
