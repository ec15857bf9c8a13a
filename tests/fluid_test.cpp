// Fluid fidelity-boundary tests (docs/fluid.md): the max-min allocator,
// byte-exact completion and pause/credit round trips at the engine level;
// demote/re-materialise byte identity, digest invariance of a lossy run
// with fluid vs packet background traffic, chaos windows forcing packet
// mode, and shard-count invariance at the FluidController level.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "jobs/fluid.hpp"
#include "recovery/recovery.hpp"
#include "sim/digest.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"

namespace {

using cluster::Cluster;
using cluster::ClusterSpec;
using sim::Duration;
using sim::FluidEngine;
using sim::Time;

Time ms(int v) { return Time(Duration::millis(v).ns()); }
Time us(int v) { return Time(Duration::micros(v).ns()); }

// --- FluidEngine: the max-min allocator --------------------------------

// A lone demand-capped flow gets its demand; an uncapped one takes the
// residual.
TEST(FluidEngine, SingleFlowRates) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr);
  const auto l = eng.add_link(100.0);
  const auto a = eng.add_flow({{l}, 40.0, 0, nullptr});
  EXPECT_NEAR(eng.flow_rate_gbps(a), 40.0, 1e-9);
  const auto b = eng.add_flow({{l}, 0.0, 0, nullptr});
  EXPECT_NEAR(eng.flow_rate_gbps(a), 40.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(b), 60.0, 1e-9);
  EXPECT_NEAR(eng.link_fluid_gbps(l), 100.0, 1e-9);
  eng.stop();
}

// Two uncapped flows split a link evenly; removing one returns its share.
TEST(FluidEngine, FairShareAndDeparture) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr);
  const auto l = eng.add_link(100.0);
  const auto a = eng.add_flow({{l}, 0.0, 0, nullptr});
  const auto b = eng.add_flow({{l}, 0.0, 0, nullptr});
  EXPECT_NEAR(eng.flow_rate_gbps(a), 50.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(b), 50.0, 1e-9);
  eng.remove_flow(b);
  EXPECT_NEAR(eng.flow_rate_gbps(a), 100.0, 1e-9);
  eng.stop();
}

// The classic two-link example: flow B crosses a 30 Gbps bottleneck, so
// max-min gives it 30 and hands flow A the 70 left on the shared link —
// not the 50/50 a naive equal split would produce.
TEST(FluidEngine, MaxMinBottleneck) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr);
  const auto wide = eng.add_link(100.0);
  const auto narrow = eng.add_link(30.0);
  const auto a = eng.add_flow({{wide}, 0.0, 0, nullptr});
  const auto b = eng.add_flow({{wide, narrow}, 0.0, 0, nullptr});
  EXPECT_NEAR(eng.flow_rate_gbps(b), 30.0, 1e-9);
  EXPECT_NEAR(eng.flow_rate_gbps(a), 70.0, 1e-9);
  EXPECT_NEAR(eng.link_fluid_gbps(wide), 100.0, 1e-9);
  EXPECT_NEAR(eng.link_fluid_gbps(narrow), 30.0, 1e-9);
  eng.stop();
}

// A finite flow completes at the latency-correct instant — exactly
// ceil(bytes * 8 / rate) ns after it starts — carrying exactly its byte
// total (no drift from fractional accrual).
TEST(FluidEngine, ByteExactCompletion) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr);
  const auto l = eng.add_link(100.0);
  const std::uint64_t total = 1'000'000;  // 8 Mbit at 100 Gbps = 80 us
  Time done_at;
  bool done = false;
  const auto f = eng.add_flow({{l}, 0.0, total, [&](Time at) {
                                 done_at = at;
                                 done = true;
                               }});
  s.run_until(ms(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(done_at, us(80));
  EXPECT_TRUE(eng.flow_done(f));
  EXPECT_EQ(eng.flow_bytes(f), total);
  EXPECT_EQ(eng.flow_remaining(f), 0u);
  EXPECT_EQ(eng.completions(), 1u);
  eng.stop();
}

// An odd rate whose per-tick byte accrual is fractional must still carry
// exactly total_bytes by the completion instant.
TEST(FluidEngine, FractionalRateStaysByteExact) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr);
  const auto l = eng.add_link(100.0);
  const std::uint64_t total = 999'983;  // prime
  bool done = false;
  const auto f = eng.add_flow({{l}, 3.7, total, [&](Time) { done = true; }});
  s.run_until(ms(100));
  ASSERT_TRUE(done);
  EXPECT_EQ(eng.flow_bytes(f), total);
  eng.stop();
}

// Pause releases bandwidth to the remaining flows; credit_flow counts
// re-materialised packet bytes toward the total; resume continues from
// the credited position. The round trip ends with carried == total and a
// single completion — byte identity across the fidelity boundary.
TEST(FluidEngine, PauseCreditResumeRoundTrip) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr);
  const auto l = eng.add_link(100.0);
  const auto bg = eng.add_flow({{l}, 0.0, 0, nullptr});
  const std::uint64_t total = 2'000'000;
  int completions = 0;
  const auto f = eng.add_flow({{l}, 0.0, total, [&](Time) { ++completions; }});
  EXPECT_NEAR(eng.flow_rate_gbps(bg), 50.0, 1e-9);

  s.schedule_at(us(40), [&] {
    eng.pause_flow(f);  // advances accrual to now, then releases the share
    EXPECT_TRUE(eng.flow_paused(f));
    EXPECT_EQ(eng.flow_bytes(f), 250'000u);  // 40 us at 50 Gbps
    EXPECT_NEAR(eng.flow_rate_gbps(bg), 100.0, 1e-9);
    EXPECT_NEAR(eng.flow_rate_gbps(f), 0.0, 1e-9);
  });
  s.schedule_at(us(60), [&] {
    EXPECT_EQ(eng.flow_bytes(f), 250'000u);  // no accrual while paused
    eng.credit_flow(f, 750'000);             // packet frames carried these
    eng.resume_flow(f);
    EXPECT_EQ(eng.flow_bytes(f), 1'000'000u);
  });
  s.run_until(ms(10));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(eng.flow_bytes(f), total);
  eng.stop();
}

// Crediting the full remainder while paused completes the flow without a
// resume — the re-materialised stream finished the transfer on its own.
TEST(FluidEngine, CreditWhilePausedCompletes) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr);
  const auto l = eng.add_link(100.0);
  int completions = 0;
  const auto f = eng.add_flow({{l}, 0.0, 1000, [&](Time) { ++completions; }});
  s.schedule_at(Time(Duration::nanos(100).ns()), [&] {
    eng.pause_flow(f);
    eng.credit_flow(f, eng.flow_remaining(f));
  });
  s.run_until(ms(1));
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(eng.flow_done(f));
  eng.stop();
}

// The packet-occupancy probe reserves measured packet bandwidth away from
// the fluid allocation on the next tick.
TEST(FluidEngine, PacketProbeReservesCapacity) {
  sim::Simulator s;
  FluidEngine eng(s, nullptr, FluidEngine::Config{Duration::micros(10)});
  const auto l = eng.add_link(100.0);
  std::uint64_t packet_bytes = 0;
  eng.set_packet_probe(l, [&] { return packet_bytes; });
  const auto f = eng.add_flow({{l}, 0.0, 0, nullptr});
  EXPECT_NEAR(eng.flow_rate_gbps(f), 100.0, 1e-9);
  // 25 KB over the [0, 10 us) probe window = 20 Gbps of packet traffic.
  s.schedule_at(us(5), [&] { packet_bytes = 25'000; });
  s.schedule_at(us(12), [&] {  // after the 10 us tick re-sampled the probe
    EXPECT_NEAR(eng.link_packet_gbps(l), 20.0, 1e-6);
    EXPECT_NEAR(eng.flow_rate_gbps(f), 80.0, 1e-6);
  });
  s.run_until(us(15));
  eng.stop();
}

// --- FluidController: the fidelity boundary on a Cluster ---------------

ClusterSpec small_spec(int shards = 1) {
  ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 512;
  spec.fabric_link.gbps = 400.0;
  spec.fabric_link.latency = Duration::micros(2);
  spec.shards = shards;
  return spec;
}

// Results + timing fingerprint (the fig17 shape): any scheduling or
// ordering divergence shows up here even when values agree.
std::uint64_t run_digest(const cluster::AllreduceRun& run, Time now) {
  sim::Digest d;
  d.u64(run.finished).u64(run.finish.ns()).u64(now.ns());
  for (const auto& r : run.results) d.f32_bits(r.grads);
  return d.value();
}

struct ControllerRun {
  cluster::AllreduceRun run;
  std::uint64_t digest = 0;
  std::uint64_t fluid_bytes = 0;
  std::uint64_t packet_frames = 0;
  std::uint64_t transitions = 0;
};

// One allreduce against background aggressors on every host, with
// optional chaos. `forced_packet` holds packet mode for the whole run,
// so the re-materialised generators do all the work — the full-fidelity
// comparator fluid runs are measured against.
ControllerRun run_with_background(const ClusterSpec& spec, bool forced_packet,
                                  const faults::FaultSchedule* schedule,
                                  Time deadline) {
  Cluster cl(spec);
  for (int w = 0; w < cl.num_workers(); ++w) {
    cl.worker(w).enable_retransmit(Duration::micros(200));
  }
  jobs::FluidController fluid(cl);
  for (int h = 0; h < cl.num_workers(); ++h) {
    fluid.add_background_stream(h, /*tenant=*/9, /*load=*/0.5);
  }
  faults::FaultInjector injector(cl.simulator());
  if (schedule != nullptr) {
    injector.bind(cl);
    injector.arm(*schedule);
    fluid.observe(*schedule);
  }
  if (forced_packet) fluid.enter_packet_mode();

  ControllerRun out;
  out.run = cluster::run_allreduce(
      cl, cluster::patterned_gradients(cl.num_workers(), 128 * 8),
      /*gen_id=*/1, deadline);
  fluid.stop();
  out.digest = run_digest(out.run, cl.simulator().now());
  out.fluid_bytes = fluid.fluid_bytes();
  out.packet_frames = fluid.packet_frames();
  out.transitions = fluid.transitions();
  return out;
}

// Fluid-mode and forced-packet-mode background traffic produce the same
// allreduce values (the aggregation arithmetic never sees the aggressor
// bytes, only their contention), and each mode really ran in its mode.
TEST(FluidController, FluidVsPacketBackgroundValueIdentical) {
  const auto fluid = run_with_background(small_spec(), false, nullptr, ms(5));
  const auto packet = run_with_background(small_spec(), true, nullptr, ms(5));
  ASSERT_EQ(fluid.run.finished, 4);
  ASSERT_EQ(packet.run.finished, 4);
  EXPECT_TRUE(cluster::bit_identical(fluid.run.results, packet.run.results));
  EXPECT_GT(fluid.fluid_bytes, 0u);
  EXPECT_EQ(fluid.packet_frames, 0u);  // no fault window: never demoted
  EXPECT_EQ(packet.fluid_bytes, 0u);   // forced packet: never fluid
  EXPECT_GT(packet.packet_frames, 0u);
}

// Same comparison through a lossy fabric (the fig13 shape): drops on the
// trunk uplinks, worker retransmission repairing them. Values must stay
// bit-identical to the clean flat-testbed baseline in both modes.
TEST(FluidController, LossyRunDigestInvariantFluidVsPacket) {
  for (const bool forced_packet : {false, true}) {
    auto spec = small_spec();
    Cluster cl(spec);
    for (int r = 0; r < spec.racks; ++r) {
      cl.fabric_link(r).a_to_b().set_loss(0.3, 91 + std::uint64_t(r));
    }
    for (int w = 0; w < cl.num_workers(); ++w) {
      cl.worker(w).enable_retransmit(Duration::micros(200));
    }
    jobs::FluidController fluid(cl);
    for (int h = 0; h < cl.num_workers(); ++h) {
      fluid.add_background_stream(h, 9, 0.5);
    }
    if (forced_packet) fluid.enter_packet_mode();
    const auto grads = cluster::patterned_gradients(4, 128 * 8);
    const auto run = cluster::run_allreduce(cl, grads, 1, ms(10));
    fluid.stop();
    ASSERT_EQ(run.finished, 4) << "forced_packet=" << forced_packet;
    std::uint64_t dropped = 0;
    for (int r = 0; r < spec.racks; ++r) {
      dropped += cl.fabric_link(r).a_to_b().frames_dropped();
    }
    EXPECT_GT(dropped, 0u) << "forced_packet=" << forced_packet;
    EXPECT_TRUE(cluster::bit_identical(run.results,
                                       cluster::testbed_baseline(spec, grads)))
        << "forced_packet=" << forced_packet;
  }
}

// A chaos window forces packet mode: burst loss on rack 0's trunk opens a
// packet-fidelity region; re-materialised frames flow (and some really
// drop), then the streams demote back to fluid after the padded window.
TEST(FluidController, ChaosWindowForcesPacketMode) {
  auto spec = small_spec();
  faults::FaultSchedule schedule;
  schedule.burst_loss(
      ms(1), {faults::TargetKind::kFabricLink, 0, faults::LinkDir::kUp},
      net::GilbertElliott{0.05, 0.2, 0.0, 1.0},
      /*window=*/Duration::millis(2), /*seed=*/7);

  Cluster cl(spec);
  for (int w = 0; w < cl.num_workers(); ++w) {
    cl.worker(w).enable_retransmit(Duration::micros(200));
  }
  jobs::FluidController fluid(cl);
  for (int h = 0; h < cl.num_workers(); ++h) {
    fluid.add_background_stream(h, 9, 0.5);
  }
  faults::FaultInjector injector(cl.simulator());
  injector.bind(cl);
  injector.arm(schedule);
  fluid.observe(schedule);
  EXPECT_EQ(fluid.windows_observed(), 1u);

  // Watch the mode at the window edges: fluid before, packet inside,
  // fluid again after the padded exit (3 ms end + 100 us < 4 ms).
  bool before = false, inside = false, after = false;
  cl.engine().schedule_global(us(999), [&] { before = !fluid.packet_mode(); });
  cl.engine().schedule_global(ms(2), [&] { inside = fluid.packet_mode(); });
  cl.engine().schedule_global(ms(4), [&] { after = !fluid.packet_mode(); });

  const auto run = cluster::run_allreduce(
      cl, cluster::patterned_gradients(4, 128 * 8), 1, ms(5));
  fluid.stop();

  ASSERT_EQ(run.finished, 4);
  EXPECT_TRUE(before);
  EXPECT_TRUE(inside);
  EXPECT_TRUE(after);
  EXPECT_EQ(fluid.transitions(), 2u);  // one enter + one exit
  EXPECT_GT(fluid.packet_frames(), 0u);
  EXPECT_GT(fluid.fluid_bytes(), 0u);
  EXPECT_GT(cl.fabric_link(0).a_to_b().frames_dropped(), 0u);
}

// Demote/re-materialise round trip is byte-exact: a finite bulk transfer
// that crosses a packet window completes carrying exactly its byte
// total, every byte counted once — fluid accrual plus credited emitter
// frames.
TEST(FluidController, BulkTransferRoundTripByteIdentity) {
  auto spec = small_spec();
  faults::FaultSchedule schedule;
  // The faulted link (host 1's uplink) is not the stream's path: the
  // window demotes the stream without eating its frames.
  schedule.burst_loss(ms(1),
                      {faults::TargetKind::kHostLink, 1, faults::LinkDir::kUp},
                      net::GilbertElliott{0.01, 0.5, 0.0, 1.0},
                      Duration::millis(1), /*seed=*/3);

  Cluster cl(spec);
  jobs::FluidController fluid(cl);
  const std::uint64_t total = 40'000'000;  // ~4 ms at load 0.8: spans the
                                           // [1 ms, 2 ms] window
  Time done_at;
  bool done = false;
  const int s = fluid.add_bulk_transfer(/*host=*/0, /*tenant=*/9,
                                        /*load=*/0.8, total, [&](Time at) {
                                          done_at = at;
                                          done = true;
                                        });
  faults::FaultInjector injector(cl.simulator());
  injector.bind(cl);
  injector.arm(schedule);
  fluid.observe(schedule);

  cl.engine().run_until(ms(20));
  fluid.stop();

  ASSERT_TRUE(done);
  EXPECT_TRUE(fluid.stream_done(s));
  EXPECT_EQ(fluid.stream_bytes(s), total);
  EXPECT_EQ(fluid.transitions(), 2u);
  EXPECT_GT(fluid.packet_frames(), 0u);  // the window really re-materialised
  EXPECT_GT(fluid.fluid_bytes(), 0u);    // and fluid carried the rest
  // Fluid bytes + credited packet bytes account for every byte once.
  EXPECT_EQ(fluid.fluid_bytes() + fluid.packet_bytes(), total);
  EXPECT_GT(done_at, ms(2));  // the window pause pushes completion past it
}

// The dynamic region: a spine kill opens a recovery epoch, and the
// polled recovery_epoch_open() predicate re-materialises every stream
// within one probe period — no static fault window needed. The epoch
// never closes (no rejoin), so the controller holds packet mode to the
// end and the allreduce still completes via failover.
TEST(FluidController, RecoveryEpochProbeForcesPacketMode) {
  cluster::ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 1024;
  spec.backup_spine = true;
  spec.host_link.gbps = 10.0;  // stretch the epoch past the kill + detect
  Cluster cl(spec);
  for (int w = 0; w < cl.num_workers(); ++w) {
    cl.worker(w).enable_hardened_retransmit(Duration::millis(1),
                                            /*retry_budget=*/50,
                                            Duration::millis(8));
  }

  recovery::RecoveryConfig rc;
  rc.heartbeat.period = Duration::micros(20);
  rc.heartbeat.check_period = Duration::micros(10);
  rc.heartbeat.phi_threshold = 4.0;
  recovery::RecoveryManager mgr(cl, rc);
  mgr.start();

  jobs::FluidController fluid(cl);
  for (int h = 0; h < cl.num_workers(); ++h) {
    fluid.add_background_stream(h, 9, 0.3);
  }
  fluid.set_packet_mode_probe([&mgr] { return mgr.recovery_epoch_open(); });

  faults::FaultInjector injector(cl.simulator());
  injector.bind(cl);
  faults::FaultSchedule schedule;
  schedule.kill(us(100), faults::FaultSchedule::spine_router());
  injector.arm(schedule);

  const auto run = cluster::run_allreduce(
      cl, cluster::patterned_gradients(4, 128 * 8), 1, ms(50));
  const bool held = fluid.packet_mode();
  fluid.stop();
  mgr.stop();

  ASSERT_EQ(run.finished, 4);
  EXPECT_EQ(mgr.failovers(), 1u);
  EXPECT_TRUE(held);                   // the epoch never closed
  EXPECT_EQ(fluid.transitions(), 1u);  // one enter, no exit
  EXPECT_GT(fluid.fluid_bytes(), 0u);  // fluid before the kill...
  EXPECT_GT(fluid.packet_frames(), 0u);  // ...re-materialised after
}

// The digest of a fluid-enabled chaos run — allreduce under fluid
// background load with a burst-loss window that overlaps the transfer —
// is bit-identical across shard counts: every fluid transition and rate
// update runs as a global action at a deterministic simulated time.
TEST(FluidController, ShardCountInvariantDigest) {
  faults::FaultSchedule schedule;
  schedule.burst_loss(
      us(100), {faults::TargetKind::kFabricLink, 0, faults::LinkDir::kUp},
      net::GilbertElliott{0.05, 0.2, 0.0, 1.0}, Duration::millis(1),
      /*seed=*/7);

  std::uint64_t base_digest = 0;
  std::uint64_t base_fluid = 0;
  std::uint64_t base_frames = 0;
  for (const int shards : {1, 3}) {
    const auto res =
        run_with_background(small_spec(shards), false, &schedule, ms(5));
    ASSERT_EQ(res.run.finished, 4) << "shards=" << shards;
    EXPECT_GT(res.transitions, 0u) << "shards=" << shards;
    if (shards == 1) {
      base_digest = res.digest;
      base_fluid = res.fluid_bytes;
      base_frames = res.packet_frames;
    } else {
      EXPECT_EQ(res.digest, base_digest) << "shards=" << shards;
      EXPECT_EQ(res.fluid_bytes, base_fluid) << "shards=" << shards;
      EXPECT_EQ(res.packet_frames, base_frames) << "shards=" << shards;
    }
  }
}

}  // namespace
