// Discrete-event queue: a near-time wheel of 1 ns buckets in front of an
// indexed 4-ary min-heap, with O(1) near scheduling and *true*
// cancellation on both tiers.
//
// Determinism: events fire in (time, schedule order), so two events
// scheduled for the same instant fire in the order they were scheduled and
// simulation runs are exactly reproducible for a given seed regardless of
// queue internals.
//
// Layout (docs/performance.md §2):
//   * Slots. Callbacks live in a slot table of fixed chunks that never
//     move, so a callback runs in place. Each slot carries a generation
//     counter: an EventId is (slot, generation), and a handle goes stale
//     the moment its event starts running or is cancelled.
//   * Wheel (near tier). A ring of kWheelNs buckets, one per nanosecond of
//     [base, base + kWheelNs), where base is the last popped time. A
//     bucket holds exactly one instant as an intrusive doubly-linked list
//     through the slots, appended in schedule order, so its FIFO order is
//     already the (time, seq) order. Cancel is an O(1) unlink; a two-level
//     occupancy bitmap makes next_time() O(1).
//   * Heap (far tier). Events at base + kWheelNs or later wait in an
//     indexed 4-ary heap of 24-byte (time, seq, slot) PODs; cancellation
//     removes the entry from the middle of the heap at once.
//   * Migration. Before the first event at a new time t runs, every far
//     event with time < t + kWheelNs moves into the wheel in heap order.
//     A direct insert for an instant X happens only once X is inside the
//     window, by which time every earlier-scheduled far event for X has
//     already moved in ahead of it, so every bucket stays in seq order.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Generation-tagged: a handle goes stale the moment its event fires or is
/// cancelled, so cancelling twice (or cancelling a fired event) is a safe
/// no-op even after the slot is reused.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return slot_ != kInvalidSlot; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class EventQueue;
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kInvalidSlot;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Span of the near-time wheel, in 1 ns buckets. Sized from measured
  /// schedule-ahead delays: 98% of pfe_stream's and 94% of netrpc_kv's
  /// schedules land under 2 us ahead, and another 5% of netrpc_kv's at
  /// 4-8 us, so 8192 ns keeps nearly every event off the heap.
  static constexpr std::int64_t kWheelNs = 8192;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to fire at absolute time `at`. Scheduling in the past
  /// (before the most recently popped event) is a programming error and
  /// throws std::logic_error.
  EventId schedule(Time at, Callback cb);

  /// Cancels a pending event. Returns false if the event already fired,
  /// is running, or was already cancelled. The event leaves the queue now
  /// — O(1) from the wheel, O(log n) from the heap — and its callback (and
  /// everything the closure owns) is destroyed now.
  bool cancel(EventId id);

  bool empty() const { return size() == 0; }
  std::size_t size() const { return near_size_ + heap_.size(); }

  /// Time of the earliest pending event; Time::max() when empty.
  Time next_time() const {
    if (near_size_ != 0) return time_of(first_bucket());
    return heap_.empty() ? Time::max() : heap_.front().at;
  }

  /// Pops and runs the earliest event. Returns its time. Precondition:
  /// !empty().
  Time pop_and_run();

  /// Runs every event queued for the earliest pending timestamp as one
  /// batch (a *cohort*): the clock-advance and migration work is paid once,
  /// then the instant's bucket is drained from its head until it is empty.
  /// Same-instant events a member schedules join the tail of the same
  /// bucket and run in this call, and a member may cancel() a not-yet-run
  /// sibling (it simply leaves the list) — the execution order is exactly
  /// the serial pop_and_run() loop's. Returns the number of events run.
  /// Precondition: !empty(). Callbacks must not call pop_and_run() or
  /// pop_cohort_and_run() on this queue while a cohort drains.
  std::size_t pop_cohort_and_run();

  Time last_popped() const { return base_; }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    /// Far tier: the entry's heap position. Wheel: kInWheel | bucket.
    std::uint32_t where = 0;
    /// Bucket list links (`next` also threads the freelist).
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
  };
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Meaningful only while the bucket's occupancy bit is set.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  static constexpr std::uint32_t kNil = EventId::kInvalidSlot;
  static constexpr std::uint32_t kInWheel = 0x80000000u;
  static constexpr std::size_t kBuckets = kWheelNs;
  static constexpr std::size_t kWords = kBuckets / 64;
  static_assert((kBuckets & (kBuckets - 1)) == 0 && kWords % 64 == 0,
                "the wheel is a power-of-two ring of whole summary words");
  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  static constexpr std::size_t kArity = 4;

  Slot& slot(std::uint32_t id) {
    return chunks_[id >> kChunkShift][id & kChunkMask];
  }
  static std::size_t bucket_of(Time at) {
    return static_cast<std::size_t>(at.ns()) & (kBuckets - 1);
  }
  Time time_of(std::size_t bucket) const {
    return base_ + Duration(static_cast<std::int64_t>(
                       (bucket - bucket_of(base_)) & (kBuckets - 1)));
  }
  /// Index of the bucket holding the earliest near event. Precondition:
  /// near_size_ != 0.
  std::size_t first_bucket() const;
  bool occupied(std::size_t b) const {
    return (occupied_[b >> 6] >> (b & 63)) & 1;
  }

  /// Moves the clock base to the earliest pending instant, migrating the
  /// far events the new window covers, and returns that instant's bucket.
  /// Precondition: !empty().
  std::size_t advance();
  /// Pops the head of bucket `b` and runs its callback in place.
  void run_front(std::size_t b);

  void link_near(std::uint32_t id, Time at);
  void unlink_near(std::uint32_t id);

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  void put(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slot(e.slot).where = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Removes the entry at heap position `pos` (the hole is filled by the
  /// last entry, which is then sifted whichever way restores the
  /// invariant).
  void remove_at(std::size_t pos);

  std::uint32_t alloc_slot();
  /// Destroys the slot's callback and returns it to the freelist. The
  /// caller has already bumped its generation.
  void release_slot(std::uint32_t id);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNil;
  std::unique_ptr<Bucket[]> buckets_;
  /// Bit b: bucket b is non-empty. Summary bit w: occupied_[w] != 0.
  std::array<std::uint64_t, kWords> occupied_{};
  std::array<std::uint64_t, kWords / 64> summary_{};
  std::size_t near_size_ = 0;
  std::vector<HeapEntry> heap_;
  std::uint64_t next_seq_ = 1;
  Time base_ = Time::zero();
};

}  // namespace sim
