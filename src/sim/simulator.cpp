#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/shard.hpp"

namespace sim {

// The clock must advance to the event's time *before* its callback runs,
// so callbacks observe a consistent now() and may schedule relative work.
//
// Ordering rule shared by every loop below (the *band rule*): at each
// instant, local queue events run first (FIFO, including same-instant
// follow-ups they schedule), then boundary deliveries one at a time in
// (at, src, seq) order — re-preferring the queue after each delivery, since
// a delivery may schedule same-instant local work. The serial loop and
// run_window() produce the same total order, which is what the shard-count
// invariance tests pin down.

// One loop for run() and run_until(); kBounded compiles the deadline test
// out of run(), so draining to empty pays nothing per event for the share.
template <bool kBounded>
std::uint64_t Simulator::run_serial(Time deadline) {
  std::uint64_t n = 0;
  while (pending()) {
    const Time tq = queue_.next_time();
    const Time td = next_delivery_time();
    if constexpr (kBounded) {
      if ((tq <= td ? tq : td) > deadline) break;
    }
    if (tq <= td) {
      now_ = tq;
      queue_.pop_and_run();
    } else {
      now_ = td;
      pop_delivery_and_run();
    }
    ++n;
  }
  events_executed_ += n;
  return n;
}

std::uint64_t Simulator::run() {
  if (engine_ != nullptr) return engine_->run();
  return run_serial</*kBounded=*/false>(Time::max());
}

std::uint64_t Simulator::run_until(Time deadline) {
  if (engine_ != nullptr) return engine_->run_until(deadline);
  const std::uint64_t n = run_serial</*kBounded=*/true>(deadline);
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Simulator::events_executed() const {
  if (engine_ != nullptr) return engine_->events_executed();
  return events_executed_;
}

void Simulator::post_delivery(Time at, std::uint32_t src_domain,
                              std::uint64_t seq, EventQueue::Callback fn) {
  if (at < now_) {
    throw std::logic_error(
        "Simulator::post_delivery: delivery scheduled in the past "
        "(lookahead violated?)");
  }
  deliveries_.push_back(Delivery{at, src_domain, seq, std::move(fn)});
  std::push_heap(deliveries_.begin(), deliveries_.end(), delivery_after);
}

void Simulator::pop_delivery_and_run() {
  std::pop_heap(deliveries_.begin(), deliveries_.end(), delivery_after);
  EventQueue::Callback fn = std::move(deliveries_.back().fn);
  deliveries_.pop_back();
  fn();
}

std::uint64_t Simulator::run_window(Time end) {
  std::uint64_t n = 0;
  while (true) {
    const Time tq = queue_.next_time();
    const Time td = next_delivery_time();
    const Time t = tq <= td ? tq : td;
    if (t >= end) break;
    now_ = t;
    if (tq <= td) {
      // The cohort also drains same-instant follow-ups, so after this call
      // every queue event at t scheduled before the first delivery at t
      // has run — exactly the serial band order.
      n += queue_.pop_cohort_and_run();
    } else {
      pop_delivery_and_run();
      ++n;
    }
  }
  events_executed_ += n;
  return n;
}

}  // namespace sim
