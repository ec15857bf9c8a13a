// The programming model for PPE threads.
//
// A PpeProgram is the software that runs on one Trio thread: a
// run-to-completion state machine whose step() returns the next *action*
// — "execute k datapath instructions, then …". The PPE engine charges the
// instruction time (per-thread latency and per-PPE issue bandwidth) and
// performs the action:
//
//   Continue     keep executing; step() is called again
//   SyncXtxn     suspend the thread until the XTXN reply arrives (reply
//                visible in ThreadContext::reply) — paper §3.1
//   AsyncXtxn    issue and keep running (posted ops only)
//   JoinAsync    wait until every outstanding AsyncXtxn has completed
//   EmitPacket   hand a packet to forwarding via a nexthop
//   Exit         destroy the thread (hardware-managed, §2.2)
//
// Microcode programs compiled by src/microcode run through an adapter that
// implements this same interface, so interpreted and native programs share
// the engine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "net/buffer.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "trio/xtxn.hpp"

namespace trio {

struct ActContinue {
  std::uint32_t instructions = 1;
};

struct ActSyncXtxn {
  XtxnRequest req;
  std::uint32_t instructions = 1;
};

struct ActAsyncXtxn {
  XtxnRequest req;  // must satisfy xtxn_is_posted()
  std::uint32_t instructions = 1;
};

struct ActJoinAsync {
  std::uint32_t instructions = 1;
};

struct ActEmitPacket {
  net::PacketPtr pkt;
  std::uint32_t nexthop_id = 0;
  std::uint32_t instructions = 1;
};

struct ActExit {
  std::uint32_t instructions = 1;
};

using Action = std::variant<ActContinue, ActSyncXtxn, ActAsyncXtxn,
                            ActJoinAsync, ActEmitPacket, ActExit>;

inline std::uint32_t action_instructions(const Action& a) {
  return std::visit([](const auto& x) { return x.instructions; }, a);
}

/// FIFO of actions a program has queued for its next steps. One vector
/// that rewinds once drained: a program that queues in bursts reuses the
/// same storage instead of allocating a node per burst, and the queue
/// lives in the thread slot, so the storage also outlives the thread.
class ActionQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void push_back(Action a) { items_.push_back(std::move(a)); }
  /// Drops every queued action, keeping the storage.
  void clear() {
    items_.clear();
    head_ = 0;
  }
  Action pop_front() {
    Action a = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return a;
  }

 private:
  std::vector<Action> items_;
  std::size_t head_ = 0;
};

/// Operand-bus lanes per thread: the most 'bus'-class variables one
/// microcode program may declare (the compiler enforces it).
inline constexpr std::size_t kBusLanes = 8;

/// Per-thread state: the paper's per-thread local storage (§2.2) plus the
/// engine's bookkeeping that programs may read. A Ppe owns one per thread
/// slot and resets it in place at spawn, so every vector here keeps its
/// capacity across thread lifetimes.
struct ThreadContext {
  net::Buffer lmem;                  // 1.25 KB local memory (head preloaded)
  std::vector<std::uint64_t> regs;   // 32 x 64-bit GPRs
  std::array<std::uint64_t, kBusLanes> bus{};  // operand-bus lanes
  /// Actions the program queued for its next steps; the program pops
  /// them itself inside step(). Emptied at spawn and when the thread
  /// finishes.
  ActionQueue actions;
  net::PacketPtr packet;             // null for timer/internal threads
  XtxnReply reply;                   // most recent sync-XTXN reply
  std::uint32_t timer_index = 0;     // which timer fired (timer threads)
  std::uint64_t instructions_executed = 0;
  sim::Time spawn_time;
  int ppe_index = -1;
  int thread_slot = -1;
};

class PpeProgram {
 public:
  virtual ~PpeProgram() = default;
  /// Advances the state machine by one action. Called by the engine after
  /// the previous action's time has been charged (and, for SyncXtxn, after
  /// the reply landed in ctx.reply).
  virtual Action step(ThreadContext& ctx) = 0;
};

/// Factory chosen by the application: given an arriving packet (head
/// already parsed into LMEM), produce the program that will process it.
/// Returning nullptr drops the packet at dispatch.
using ProgramFactory =
    std::function<std::unique_ptr<PpeProgram>(const net::Packet&)>;

}  // namespace trio
