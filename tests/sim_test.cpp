#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/digest.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace {

TEST(Time, Arithmetic) {
  const sim::Time t(1000);
  const sim::Duration d = sim::Duration::micros(2);
  EXPECT_EQ((t + d).ns(), 3000);
  EXPECT_EQ(((t + d) - t).ns(), 2000);
  EXPECT_LT(t, t + d);
}

TEST(Time, CycleConversionIsExactAtOneGigahertz) {
  EXPECT_EQ(sim::Duration::cycles(7).ns(), 7);
  EXPECT_EQ(sim::Duration::cycles(3, 500'000'000).ns(), 6);
  // Rounds up: 3 cycles of a 2 GHz clock is 1.5 ns -> 2 ns.
  EXPECT_EQ(sim::Duration::cycles(3, 2'000'000'000).ns(), 2);
}

TEST(Time, Formatting) {
  EXPECT_EQ(sim::Duration::nanos(17).to_string(), "17ns");
  EXPECT_EQ(sim::Duration::micros(2).to_string(), "2.000us");
  EXPECT_EQ(sim::Duration::millis(5).to_string(), "5.000ms");
  EXPECT_EQ(sim::Duration::seconds(3).to_string(), "3.000s");
}

TEST(EventQueue, RunsInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(sim::Time(30), [&] { order.push_back(3); });
  q.schedule(sim::Time(10), [&] { order.push_back(1); });
  q.schedule(sim::Time(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameInstant) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule(sim::Time(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  sim::EventQueue q;
  bool ran = false;
  auto id = q.schedule(sim::Time(10), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel reports false
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  sim::EventQueue q;
  q.schedule(sim::Time(100), [] {});
  q.pop_and_run();
  EXPECT_THROW(q.schedule(sim::Time(50), [] {}), std::logic_error);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  sim::EventQueue q;
  auto id = q.schedule(sim::Time(10), [] {});
  q.schedule(sim::Time(20), [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), sim::Time(20));
}

TEST(EventQueue, CohortPopRunsWholeInstantInFifoOrder) {
  // pop_cohort_and_run() dispatches every event at the earliest instant
  // as one batch; FIFO order within the batch must match pop_and_run().
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    q.schedule(sim::Time(5), [&order, i] { order.push_back(i); });
  }
  q.schedule(sim::Time(9), [&order] { order.push_back(999); });
  const std::size_t n = q.pop_cohort_and_run();
  EXPECT_EQ(n, 50u);  // the t=9 event is not part of the t=5 cohort
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(q.pop_cohort_and_run(), 1u);
  EXPECT_EQ(order.back(), 999);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CohortMemberCanCancelUnfiredSibling) {
  // A cohort member cancelling a later member of the same batch: the
  // sibling is still in the instant's bucket, so cancel() unlinks it and
  // the sibling must not fire.
  sim::EventQueue q;
  std::vector<int> order;
  sim::EventId victim;
  q.schedule(sim::Time(5), [&] {
    order.push_back(0);
    EXPECT_TRUE(q.cancel(victim));
    EXPECT_FALSE(q.cancel(victim));  // double-cancel still reports false
  });
  victim = q.schedule(sim::Time(5), [&] { order.push_back(1); });
  q.schedule(sim::Time(5), [&] { order.push_back(2); });
  q.pop_cohort_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CohortFollowUpsAtSameInstantRunAfterTheBatch) {
  // Same-instant follow-ups scheduled by cohort members run within the
  // same pop_cohort_and_run() call, after all original members — the
  // band rule's "local events first, FIFO including cascades".
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(sim::Time(5), [&] {
    order.push_back(0);
    q.schedule(sim::Time(5), [&] {
      order.push_back(10);
      q.schedule(sim::Time(5), [&] { order.push_back(20); });
    });
  });
  q.schedule(sim::Time(5), [&] { order.push_back(1); });
  const std::size_t n = q.pop_cohort_and_run();
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 20}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MigratedFarEventRunsBeforeLaterDirectInsertAtSameInstant) {
  // An event scheduled beyond the wheel waits in the heap; once the
  // window reaches its instant it migrates into the bucket, and a direct
  // insert for the same instant made afterwards must still run second.
  sim::EventQueue q;
  const sim::Time far(3 * sim::EventQueue::kWheelNs);
  std::vector<int> order;
  q.schedule(far, [&] { order.push_back(1); });
  q.schedule(far - sim::Duration(sim::EventQueue::kWheelNs - 1), [&] {
    order.push_back(0);
    q.schedule(far, [&] { order.push_back(2); });  // inside the window now
  });
  q.schedule(far + sim::Duration(1), [&] { order.push_back(3); });
  EXPECT_EQ(q.next_time(), far - sim::Duration(sim::EventQueue::kWheelNs - 1));
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.last_popped(), far + sim::Duration(1));
}

// Drives a Simulator with a seeded mix of schedules, cancels, cohort
// drains (run_window) and run_until stops, and checks every step against a
// reference ordered set of (time, seq): each event must be the reference
// minimum when it fires, every cancel must report exactly whether the
// event was still pending, and size and next time must agree throughout.
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

  void step() {
    switch (rng_.next_below(8)) {
      case 0:
      case 1:
      case 2:
        schedule();
        break;
      case 3:
        cancel_one();
        break;
      case 4: {  // run_until stop: everything due runs, nothing later does
        const sim::Time deadline = sim_.now() + pick_delay();
        sim_.run_until(deadline);
        EXPECT_EQ(sim_.now(), deadline);
        if (!ref_.empty()) {
          EXPECT_GT(ref_.begin()->first, deadline.ns());
        }
        break;
      }
      case 5: {  // a shard window: whole instants run as cohorts
        const sim::Time end = sim_.now() + pick_delay() + sim::Duration(1);
        sim_.run_window(end);
        if (!ref_.empty()) {
          EXPECT_GE(ref_.begin()->first, end.ns());
        }
        break;
      }
      case 6:  // exactly one cohort
        if (sim_.pending()) {
          sim_.run_window(sim_.next_event_time() + sim::Duration(1));
        }
        break;
      default:  // one instant, through the serial loop
        if (sim_.pending()) sim_.run_until(sim_.next_event_time());
        break;
    }
    check_front();
  }

  void drain() {
    sim_.run();
    EXPECT_TRUE(ref_.empty());
    check_front();
  }

  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancelled() const { return cancelled_; }
  /// Cancels of events beyond the wheel, i.e. in the heap.
  std::uint64_t cancelled_far() const { return cancelled_far_; }
  /// Cancels, from a callback, of a pending event at the running instant.
  std::uint64_t cancelled_siblings() const { return cancelled_siblings_; }
  std::uint64_t far_schedules() const { return far_schedules_; }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time ns, seq)

  sim::Duration pick_delay() {
    constexpr std::uint64_t kW = sim::EventQueue::kWheelNs;
    const auto ns = [](std::uint64_t v) {
      return sim::Duration(static_cast<std::int64_t>(v));
    };
    switch (rng_.next_below(6)) {
      case 0:
        return ns(0);  // same instant: cohort follow-ups
      case 1:
        return ns(rng_.next_below(64));
      case 2:
        return ns(rng_.next_below(kW));
      case 3:  // the wheel's edge: kW - 2 .. kW + 2
        return ns(kW - 2 + rng_.next_below(5));
      case 4:
        return ns(kW + rng_.next_below(3 * kW));
      default:  // jumps far longer than the wheel
        return ns(rng_.next_below(40 * kW));
    }
  }

  void schedule() { schedule_in(pick_delay()); }

  void schedule_in(sim::Duration delay) {
    if (delay.ns() >= sim::EventQueue::kWheelNs) ++far_schedules_;
    const Key key{(sim_.now() + delay).ns(), next_seq_++};
    ref_.insert(key);
    const sim::EventId id =
        sim_.schedule_in(delay, [this, key] { fire(key); });
    // The most recent handles, most of them still pending.
    if (handles_.size() < 64) {
      handles_.emplace_back(id, key);
    } else {
      handles_[key.second % 64] = {id, key};
    }
  }

  // Cancels a remembered handle: pending in the wheel or the heap, a
  // not-yet-run member of the running cohort, the running event itself,
  // or one already fired or cancelled.
  void cancel_one() {
    if (handles_.empty()) return;
    // Half the time one of the last few, often at the running instant.
    const std::size_t pick =
        rng_.next_below(2) == 0
            ? (next_seq_ - 1 - rng_.next_below(4)) % handles_.size()
            : rng_.next_below(handles_.size());
    const auto& [id, key] = handles_[pick];
    const bool pending = ref_.erase(key) == 1;
    EXPECT_EQ(sim_.cancel(id), pending) << "time " << key.first << " seq "
                                        << key.second;
    if (!pending) return;
    ++cancelled_;
    if (key.first - sim_.now().ns() >= sim::EventQueue::kWheelNs) {
      ++cancelled_far_;
    }
    if (firing_ && key.first == sim_.now().ns()) ++cancelled_siblings_;
  }

  void fire(const Key& key) {
    ASSERT_FALSE(ref_.empty());
    EXPECT_EQ(*ref_.begin(), key);
    EXPECT_EQ(sim_.now().ns(), key.first);
    ref_.erase(key);
    ++fired_;
    firing_ = true;
    // Callbacks schedule and cancel too, including same-instant follow-ups
    // and siblings of their own cohort.
    switch (rng_.next_below(5)) {
      case 0:
        schedule();
        break;
      case 1:
        cancel_one();
        break;
      case 2:
        schedule();
        cancel_one();
        break;
      case 3:  // grow the running cohort, then maybe cancel a member
        schedule_in(sim::Duration(0));
        schedule_in(sim::Duration(0));
        cancel_one();
        break;
      default:
        break;
    }
    firing_ = false;
  }

  void check_front() {
    EXPECT_EQ(sim_.queue_size(), ref_.size());
    const sim::Time expected =
        ref_.empty() ? sim::Time::max() : sim::Time(ref_.begin()->first);
    EXPECT_EQ(sim_.next_event_time(), expected);
  }

  sim::Simulator sim_;
  sim::Rng rng_;
  std::set<Key> ref_;
  std::vector<std::pair<sim::EventId, Key>> handles_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t cancelled_far_ = 0;
  std::uint64_t cancelled_siblings_ = 0;
  bool firing_ = false;
  std::uint64_t far_schedules_ = 0;
};

TEST(EventQueue, MatchesReferenceOrderUnderSeededScheduleCancelRun) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    QueueModel model(seed);
    for (int i = 0; i < 20000; ++i) model.step();
    model.drain();
    // The mix must really exercise both tiers and cancellation.
    EXPECT_GT(model.fired(), 10000u);
    EXPECT_GT(model.cancelled(), 1000u);
    EXPECT_GT(model.cancelled_far(), 100u);
    EXPECT_GT(model.cancelled_siblings(), 100u);
    EXPECT_GT(model.far_schedules(), 5000u);
  }
}

TEST(Simulator, ClockAdvancesWithEvents) {
  sim::Simulator s;
  sim::Time seen;
  s.schedule_in(sim::Duration::micros(5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, sim::Time(5000));
  EXPECT_EQ(s.now(), sim::Time(5000));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  sim::Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) s.schedule_in(sim::Duration(1), chain);
  };
  s.schedule_in(sim::Duration(1), chain);
  s.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(s.now(), sim::Time(10));
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  sim::Simulator s;
  bool late_ran = false;
  s.schedule_in(sim::Duration(100), [&] { late_ran = true; });
  s.run_until(sim::Time(50));
  EXPECT_EQ(s.now(), sim::Time(50));
  EXPECT_FALSE(late_ran);
  s.run_until(sim::Time(200));
  EXPECT_TRUE(late_ran);
}

TEST(Rng, DeterministicForSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBoundsRespected) {
  sim::Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform(0.5, 2.0);
    EXPECT_GE(v, 0.5);
    EXPECT_LT(v, 2.0);
  }
}

TEST(Rng, NextBelowUnbiasedEnough) {
  sim::Rng r(9);
  std::array<int, 6> hist{};
  for (int i = 0; i < 60'000; ++i) ++hist[r.next_below(6)];
  for (int h : hist) EXPECT_NEAR(h, 10'000, 500);
}

TEST(Rng, BernoulliMatchesProbability) {
  sim::Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.bernoulli(0.16) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.16, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  sim::Rng r(13);
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / 100'000.0, 5.0, 0.15);
}

TEST(Stats, SummaryMoments) {
  sim::Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, Percentiles) {
  sim::Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100);
}

TEST(Stats, EmptySamplesSafe) {
  sim::Samples s;
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Digest, MatchesPublishedFnv1a64Vectors) {
  EXPECT_EQ(sim::Digest().str("").value(), 0xcbf29ce484222325ull);
  EXPECT_EQ(sim::Digest().str("a").value(), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(sim::Digest().str("foobar").value(), 0x85944171f73967e8ull);
}

TEST(Digest, U64FoldsEightLittleEndianBytes) {
  const std::uint64_t v = 0x0123456789abcdefull;
  const unsigned char le[8] = {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(sim::Digest().u64(v).value(), sim::Digest().bytes(le, 8).value());
  EXPECT_EQ(sim::Digest(sim::Digest::kLegacySeed).u64(v).value(),
            sim::Digest(sim::Digest::kLegacySeed).bytes(le, 8).value());
}

TEST(Digest, ActionLogFoldsTimeThenTextFromItsStart) {
  sim::ActionLog log;
  log.record(sim::Time(1500), "kill spine");
  log.record(sim::Time(2500), "revive spine");
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.entries()[1].what, "revive spine");
  EXPECT_EQ(log.digest(), log.digest(sim::Digest::kOffsetBasis));
  for (const std::uint64_t start :
       {sim::Digest::kOffsetBasis, std::uint64_t(42)}) {
    sim::Digest d(start);
    d.u64(1500).str("kill spine").u64(2500).str("revive spine");
    EXPECT_EQ(log.digest(start), d.value());
  }
  EXPECT_EQ(sim::ActionLog().digest(7), 7u);
}

}  // namespace
