#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace sim {

namespace {

constexpr Duration kWheel(EventQueue::kWheelNs);

/// First set bit at or after bit `from`, scanning `words` as a ring.
/// Precondition: some bit is set.
template <std::size_t N>
std::size_t circular_first(const std::array<std::uint64_t, N>& words,
                           std::size_t from) {
  std::size_t w = from >> 6;
  std::uint64_t bits = words[w] & (~std::uint64_t{0} << (from & 63));
  // The last probe revisits word `from >> 6` whole, so its bits below
  // `from` — the far end of the ring — are found last.
  for (std::size_t i = 0; bits == 0 && i < N; ++i) {
    w = (w + 1) % N;
    bits = words[w];
  }
  return (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
}

}  // namespace

EventQueue::EventQueue()
    : buckets_(std::make_unique_for_overwrite<Bucket[]>(kBuckets)) {}

EventId EventQueue::schedule(Time at, Callback cb) {
  if (at < base_) {
    throw std::logic_error("EventQueue::schedule: event scheduled in the past");
  }
  const std::uint32_t id = alloc_slot();
  Slot& s = slot(id);
  s.cb = std::move(cb);
  if (at - base_ < kWheel) {
    link_near(id, at);
  } else {
    heap_.push_back(HeapEntry{at, next_seq_++, id});
    sift_up(heap_.size() - 1);
  }
  return EventId(id, s.gen);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || (id.slot_ >> kChunkShift) >= chunks_.size()) {
    return false;
  }
  Slot& s = slot(id.slot_);
  // A pending slot's generation matches the handle; running, fired and
  // cancelled slots were bumped, so stale handles fail here.
  if (s.gen != id.gen_) return false;
  if (s.where & kInWheel) {
    unlink_near(id.slot_);
  } else {
    remove_at(s.where);
  }
  ++s.gen;
  release_slot(id.slot_);
  return true;
}

Time EventQueue::pop_and_run() {
  if (empty()) {
    throw std::logic_error("EventQueue::pop_and_run: queue is empty");
  }
  run_front(advance());
  return base_;
}

std::size_t EventQueue::pop_cohort_and_run() {
  if (empty()) {
    throw std::logic_error("EventQueue::pop_cohort_and_run: queue is empty");
  }
  const std::size_t b = advance();
  // The bucket is this instant alone: an event a member schedules for the
  // same instant joins its tail (it carries a later seq than every member)
  // and one at base + kWheelNs, which shares the bucket index, goes to the
  // heap. So draining to empty is the serial pop order.
  std::size_t ran = 0;
  while (occupied(b)) {
    run_front(b);
    ++ran;
  }
  return ran;
}

std::size_t EventQueue::first_bucket() const {
  const std::size_t b0 = bucket_of(base_);
  const std::size_t w0 = b0 >> 6;
  const std::uint64_t here = occupied_[w0] & (~std::uint64_t{0} << (b0 & 63));
  if (here != 0) {
    return (w0 << 6) | static_cast<std::size_t>(std::countr_zero(here));
  }
  const std::size_t w = circular_first(summary_, (w0 + 1) % kWords);
  return (w << 6) | static_cast<std::size_t>(std::countr_zero(occupied_[w]));
}

std::size_t EventQueue::advance() {
  const Time t = near_size_ != 0 ? time_of(first_bucket()) : heap_.front().at;
  if (t != base_) {
    base_ = t;
    // Far events the window [t, t + kWheelNs) now covers move in, earliest
    // (time, seq) first. Their buckets were empty: any event for those
    // instants was scheduled while they lay beyond the window.
    while (!heap_.empty() && heap_.front().at - t < kWheel) {
      const HeapEntry e = heap_.front();
      remove_at(0);
      link_near(e.slot, e.at);
    }
  }
  return bucket_of(t);
}

void EventQueue::run_front(std::size_t b) {
  const std::uint32_t id = buckets_[b].head;
  unlink_near(id);
  Slot& s = slot(id);
  // Stale the handle before the callback runs (a self-cancel reports
  // false) but keep the slot off the freelist until it returns or throws:
  // the closure runs where it lies, and chunks never move, so the
  // callback may schedule, cancel and grow the table freely.
  ++s.gen;
  struct Release {
    EventQueue* q;
    std::uint32_t id;
    ~Release() { q->release_slot(id); }
  } release{this, id};
  s.cb();
}

// Bucket lists are told apart from their ends by the bucket's head and
// tail, not by kNil links: a head's `prev` and a tail's `next` are never
// read, so popping the head leaves its successor's cache line alone.
void EventQueue::link_near(std::uint32_t id, Time at) {
  const std::size_t b = bucket_of(at);
  Bucket& k = buckets_[b];
  Slot& s = slot(id);
  s.where = kInWheel | static_cast<std::uint32_t>(b);
  if (occupied(b)) {
    s.prev = k.tail;
    slot(k.tail).next = id;
  } else {
    k.head = id;
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    summary_[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
  }
  k.tail = id;
  ++near_size_;
}

void EventQueue::unlink_near(std::uint32_t id) {
  const Slot& s = slot(id);
  const std::size_t b = s.where & ~kInWheel;
  Bucket& k = buckets_[b];
  const bool head = k.head == id;
  const bool tail = k.tail == id;
  if (head && tail) {  // the only member: the bucket is now empty
    std::uint64_t& word = occupied_[b >> 6];
    word &= ~(std::uint64_t{1} << (b & 63));
    if (word == 0) summary_[b >> 12] &= ~(std::uint64_t{1} << ((b >> 6) & 63));
  } else if (head) {
    k.head = s.next;
  } else if (tail) {
    k.tail = s.prev;
  } else {
    slot(s.prev).next = s.next;
    slot(s.next).prev = s.prev;
  }
  --near_size_;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    put(pos, heap_[parent]);
    pos = parent;
  }
  put(pos, e);
}

void EventQueue::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    put(pos, heap_[best]);
    pos = best;
  }
  put(pos, e);
}

void EventQueue::remove_at(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    put(pos, heap_[last]);
    heap_.pop_back();
    // The transplanted entry may violate the invariant in either
    // direction (it came from a different subtree).
    if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / kArity])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  } else {
    heap_.pop_back();
  }
}

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ == kNil) {
    // A new chunk joins the freelist lowest index first; existing chunks
    // stay where they are.
    const auto first =
        static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<Slot[]>(std::size_t{kChunkMask} + 1));
    for (std::uint32_t i = kChunkMask + 1; i-- > 0;) {
      slot(first + i).next = free_head_;
      free_head_ = first + i;
    }
  }
  const std::uint32_t id = free_head_;
  free_head_ = slot(id).next;
  return id;
}

void EventQueue::release_slot(std::uint32_t id) {
  Slot& s = slot(id);
  s.cb = nullptr;
  s.next = free_head_;
  free_head_ = id;
}

}  // namespace sim
