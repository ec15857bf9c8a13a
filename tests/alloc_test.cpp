// Allocation-count regression tests for the event-core fast path and the
// simulated chip's datapaths.
//
// The perf contract (docs/performance.md): once the queue's slot table,
// the heap array, and the packet pools are warm, the hot paths never touch
// the global allocator — not per scheduled event (InlineCallback storage
// is inline), not per recycled packet (BufferPool + the packet cell
// freelist). This binary overrides global operator new to count
// allocations and asserts *zero* across the measured steady-state windows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/cluster.hpp"
#include "jobs/job_manager.hpp"
#include "microcode/compiler.hpp"
#include "microcode/interpreter.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "trio/router.hpp"
#include "trioml/testbed.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Counting overrides: every allocation path funnels through these. delete
// is intentionally uncounted — the tests only care that the hot loops stop
// *acquiring* memory. All of them stay out of line: inlined into container
// code, GCC pairs the malloc()/free() inside with the opposite operator
// and reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// A link-delivery-sized capture (~40 bytes): the event queue must store
/// it inline.
struct LinkSizedWork {
  std::uint64_t* sink;
  void* peer;
  int port;
  std::uint64_t a, b, c;
  void operator()() const { *sink += a + b + c + std::uint64_t(port); }
};

TEST(AllocCount, SteadyStateEventSchedulingIsAllocationFree) {
  static_assert(sim::InlineCallback::stores_inline<LinkSizedWork>());
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  // Every fourth event lands beyond the near-time wheel, so the heap tier
  // and migration into the wheel run too.
  const auto delay = [](int i) {
    return i % 4 == 0
               ? sim::Duration(sim::EventQueue::kWheelNs + (i % 13) * 997)
               : sim::Duration(i % 17);
  };
  // Warm-up: grows the heap array and the slot table to their
  // steady-state footprint.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_in(delay(i), work);
    }
    sim.run();
  }
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_in(delay(i), work);
    }
    sim.run();
  }
  EXPECT_EQ(allocs() - before, 0u) << "16384 events should allocate nothing";
  EXPECT_GT(sink, 0u);
}

TEST(AllocCount, CancelAndRescheduleIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 5, 4, 5, 6};
  std::vector<sim::EventId> ids(512);
  auto batch = [&] {
    for (int i = 0; i < 512; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule_in(sim::Duration(100 + i % 13), work);
    }
    for (int i = 0; i < 512; ++i) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < 256; ++i) {
      sim.schedule_in(sim::Duration(i % 7), work);
    }
    sim.run();
  };
  for (int round = 0; round < 4; ++round) batch();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) batch();
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocCount, CohortPopSteadyStateIsAllocationFree) {
  // run_window() drains each instant's wheel bucket as one cohort; once
  // the slot table is warm, crowded timestamps must not allocate.
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  auto batch = [&] {
    for (int i = 0; i < 1024; ++i) {
      // 1024 events crowded onto 4 distinct instants: big cohorts.
      sim.schedule_in(sim::Duration(1 + i % 4), work);
    }
    sim.run_window(sim::Time::max());
  };
  for (int round = 0; round < 4; ++round) batch();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) batch();
  EXPECT_EQ(allocs() - before, 0u) << "cohort dispatch should allocate nothing";
  EXPECT_GT(sink, 0u);
}

TEST(AllocCount, DeliveryBandSteadyStateIsAllocationFree) {
  // The cross-shard mailbox path: post() -> delivery band heap -> banded
  // pop. With link-sized captures and warm vectors the per-message cost
  // must be zero allocations.
  sim::ShardedSimulator engine(/*num_domains=*/2, /*num_shards=*/1,
                               sim::Duration::micros(1));
  sim::Simulator& s = engine.domain_sim(0);
  std::uint64_t sink = 0;
  const LinkSizedWork work{&sink, nullptr, 3, 1, 2, 3};
  auto batch = [&] {
    for (int i = 0; i < 512; ++i) {
      engine.post(/*src_domain=*/0, /*dst_domain=*/1,
                  s.now() + sim::Duration(1 + i % 5), work);
    }
    engine.run();
  };
  for (int round = 0; round < 4; ++round) batch();  // warm-up
  const std::uint64_t before = allocs();
  for (int round = 0; round < 16; ++round) batch();
  EXPECT_EQ(allocs() - before, 0u)
      << "8192 boundary messages should allocate nothing";
  EXPECT_GT(sink, 0u);
}

net::PacketPtr make_test_packet(const std::vector<std::uint8_t>& payload) {
  return net::Packet::make(net::build_udp_frame(
      {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
      net::Ipv4Addr::from_octets(10, 0, 0, 1),
      net::Ipv4Addr::from_octets(10, 0, 0, 2), 1, 2, payload));
}

TEST(AllocCount, RecycledPacketsAreAllocationFree) {
  const std::vector<std::uint8_t> payload(1024, 0xab);
  for (int i = 0; i < 64; ++i) {
    auto p = make_test_packet(payload);  // warm the pools
  }
  const std::uint64_t before = allocs();
  for (int i = 0; i < 4096; ++i) {
    auto p = make_test_packet(payload);
    // Dropped here: frame storage -> BufferPool, cell -> packet cell pool.
  }
  EXPECT_EQ(allocs() - before, 0u) << "4096 recycled packets, zero allocs";
}

/// Echo node: immediately retransmits every received frame on its own
/// endpoint — with its peer doing the same, one packet ping-pongs across
/// the two links forever, exercising link scheduling + packet transport.
class EchoNode : public net::Node {
 public:
  void attach(net::LinkEndpoint& tx) { tx_ = &tx; }
  void receive(net::PacketPtr pkt, int) override { tx_->send(std::move(pkt)); }
  std::string name() const override { return "echo"; }

 private:
  net::LinkEndpoint* tx_ = nullptr;
};

TEST(AllocCount, LinkEchoLoopSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  EchoNode a, b;
  net::Link ab(sim, 100.0, sim::Duration::micros(1));
  ab.attach(a, 0, b, 0);
  a.attach(ab.a_to_b());
  b.attach(ab.b_to_a());
  const std::vector<std::uint8_t> payload(1024, 0x5a);
  ASSERT_TRUE(ab.a_to_b().send(make_test_packet(payload)));
  // Warm-up: a few thousand hops.
  sim.run_until(sim::Time(0) + sim::Duration::millis(2));
  const std::uint64_t frames_before = ab.a_to_b().frames_sent();
  const std::uint64_t before = allocs();
  sim.run_until(sim::Time(0) + sim::Duration::millis(12));
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(ab.a_to_b().frames_sent(), frames_before + 100)
      << "the loop must actually have forwarded frames";
}

TEST(AllocCount, RouterForwardingSteadyStateStaysUnderBudget) {
  // Measured 2809 allocations for the 1024 packets (2.7 each):
  //   * 1024: the per-packet PpeProgram (ProgramFactory returns a
  //     unique_ptr);
  //   * 768 + 768: a frame buffer and a packet cell for each packet
  //     beyond the 256 the warm-up parked in the pools;
  //   * 192: first spawn of the 64 thread slots the warm-up never used
  //     (LMEM, registers and action queue, once per slot);
  //   * 57: the dispatch deque's blocks and the Reorder Engine's ticket
  //     ring growing to the 1024-packet burst.
  // Reorder tickets, their outputs, actions and event closures allocate
  // nothing. This pins the budget so regressions stay visible.
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  const auto nh = router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  router.forwarding().add_route(net::Ipv4Addr::from_octets(0, 0, 0, 0), 0, nh);
  int delivered = 0;
  router.attach_port_sink(1, [&delivered](net::PacketPtr) { ++delivered; });
  const std::vector<std::uint8_t> payload(256, 0x11);
  auto inject = [&](int n) {
    for (int i = 0; i < n; ++i) {
      router.receive(make_test_packet(payload), 0);
    }
    sim.run();
  };
  inject(256);  // warm-up
  const int warm_delivered = delivered;
  const std::uint64_t before = allocs();
  inject(1024);
  const std::uint64_t per_packet = (allocs() - before) / 1024;
  EXPECT_EQ(delivered - warm_delivered, 1024);
  EXPECT_LE(per_packet, 2u)
      << "per-packet allocation budget regressed: " << per_packet;
}

TEST(AllocCount, TrioMlAggregationSteadyStateStaysUnderBudget) {
  // Four workers stream 512-gradient packets into one PFE. Measured 2733
  // allocations for the 1024 packets (2.7 each):
  //   * 1024: the per-packet AggregationProgram;
  //   * 1024: the host's outstanding-block entry (an unordered_map node
  //     per block sent);
  //   * 249: hash-table buckets a new generation's block keys reach for
  //     the first time;
  //   * 256: frames beyond the pools' warm depth (154 multicast result
  //     copies, 93 gradient frames, 9 result frames);
  //   * 114 + 3: SMS pages the second generation touches first;
  //   * 49: the dispatch deque's blocks;
  //   * 14: host-side result and latency bookkeeping.
  // The action queue, carry buffer, reorder tickets, XTXN payloads and
  // reply closures allocate nothing. This pins the budget so regressions
  // stay visible.
  constexpr int kWorkers = 4;
  constexpr std::uint16_t kGrads = 512;
  constexpr std::size_t kBlocks = 256;  // per worker and allreduce
  trioml::TestbedConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.grads_per_packet = kGrads;
  cfg.window = 64;
  cfg.slab_pool = kWorkers * (64 + 64);
  trioml::Testbed tb(cfg);
  std::vector<std::uint32_t> grads(kBlocks * kGrads);
  for (std::size_t i = 0; i < grads.size(); ++i) {
    grads[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  int done = 0;
  auto allreduce = [&](std::uint16_t gen) {
    for (int w = 0; w < kWorkers; ++w) {
      tb.worker(w).start_allreduce(
          grads, gen, [&done](trioml::AllreduceResult) { ++done; });
    }
    tb.simulator().run();
  };
  allreduce(1);  // warm-up
  const std::uint64_t packets_before = tb.app(0).stats().packets;
  const std::uint64_t before = allocs();
  allreduce(2);
  const std::uint64_t packets = tb.app(0).stats().packets - packets_before;
  ASSERT_EQ(done, 2 * kWorkers);
  ASSERT_EQ(packets, kWorkers * kBlocks);
  const std::uint64_t per_packet = (allocs() - before) / packets;
  EXPECT_LE(per_packet, 2u)
      << "per-packet allocation budget regressed: " << per_packet;
}

TEST(AllocCount, MicrocodeFilterSteadyStateStaysUnderBudget) {
  // The §3.2 filter (the source of bench/micro_substrates.cpp's
  // BM_MicrocodeFilterProgram), compiled and run per packet through
  // make_program_factory. IPv4 packets are forwarded; the others are
  // counted with CounterIncPhys and dropped. Measured 2809 allocations
  // for the 1024 packets (2.7 each), the same as plain forwarding:
  //   * 1024: the per-packet MicrocodeThread;
  //   * 768 + 768: frame buffers and packet cells beyond the pools'
  //     warm depth;
  //   * 192: first spawn of the 64 thread slots the warm-up never used;
  //   * 57: the dispatch deque's blocks and the ticket ring's growth.
  // The action queue that carries a block's emit or posted XTXN, the
  // operand-bus lanes and the call stack live in fixed per-thread storage;
  // names are resolved at compile time and intrinsic operands live in a
  // fixed array, so none of them allocates.
  static const char* kFilter = R"(
    struct ether_t { dmac : 48; smac : 48; etype : 16; };
    struct ipv4_t { ver : 4; ihl : 4; tos : 8; len : 16; };
    virtual const DROP_CNT_BASE = 64;
    memory ether_t *ether_ptr = 0;
    process_ether:
    begin
      ir0 = 0;
      if (ether_ptr->etype == 0x0800) { goto process_ip; }
      goto count_dropped;
    end
    process_ip:
    begin
      const ipv4_t *ipv4_addr = ether_ptr + sizeof(ether_t);
      ir0 = 1;
      if (ipv4_addr->ver == 4 && ipv4_addr->ihl == 5) { goto fwd; }
      goto count_dropped;
    end
    count_dropped:
    begin
      const : addr = DROP_CNT_BASE + ir0 * 2;
      CounterIncPhys(addr, r_work.pkt_len);
      goto drop;
    end
    fwd:
    begin
      Forward(0);
      Exit();
    end
    drop:
    begin
      Drop();
    end
  )";
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  int delivered = 0;
  router.attach_port_sink(1, [&delivered](net::PacketPtr) { ++delivered; });
  router.pfe(0).set_program_factory(
      microcode::make_program_factory(microcode::compile(kFilter)));
  const std::vector<std::uint8_t> payload(64, 0);
  auto inject = [&](int n) {
    for (int i = 0; i < n; ++i) {
      net::PacketPtr pkt = make_test_packet(payload);
      if (i % 2 == 1) pkt->frame().set_u16(12, 0x0806);  // ARP: dropped
      router.receive(std::move(pkt), 0);
    }
    sim.run();
  };
  inject(256);  // warm-up
  const int warm_delivered = delivered;
  const std::uint64_t before = allocs();
  inject(1024);
  const std::uint64_t per_packet = (allocs() - before) / 1024;
  EXPECT_EQ(delivered - warm_delivered, 512);
  EXPECT_LE(per_packet, 2u)
      << "per-packet allocation budget regressed: " << per_packet;
}

TEST(AllocCount, NetRpcDatapathSteadyStateStaysUnderBudget) {
  // A NetRPC tenant (docs/netrpc.md) on leaf 0 of a 2x4 cluster, driven
  // by the job manager's closed-loop client: PUTs, GETs over hot keys and
  // windowed 3-replica fan-out calls through the compiled datapath.
  // Measured 1536 allocations for the 548 datapath packets (2.8 each):
  //   * 548: the per-packet NetRpcThread;
  //   * 20 + 4: the aging timer threads' scan programs and aged-key lists;
  //   * 26: the dispatch deque's blocks;
  //   * the rest, about 940, on the hosts: the server's reply values, the
  //     client's pending-op map nodes, result vectors, completion
  //     closures and latency samples.
  // The datapath's action queues, bus lanes, reorder tickets, cache and
  // merge XTXNs and response frames allocate nothing.
  cluster::ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 4;
  spec.grads_per_packet = 128;
  spec.slab_pool = 1024;
  cluster::Cluster cl(spec);
  jobs::JobManager mgr(cl);
  jobs::TenantSpec t;
  t.id = 4;
  t.kind = jobs::TenantKind::kNetRpc;
  t.rpc_value_words = 8;
  t.rpc_servers = 3;
  t.rpc_clients = 1;
  t.rpc_window = 8;
  t.rpc_calls = 64;
  t.rpc_gets = 128;
  t.rpc_puts = 16;
  t.rpc_hot_keys = 4;
  ASSERT_TRUE(mgr.admit(t).admitted);
  const sim::Time deadline = sim::Time(sim::Duration::millis(500).ns());
  ASSERT_EQ(mgr.run(1, deadline).tenant(4)->netrpc.calls, 64u);  // warm-up
  const std::uint64_t packets_before = mgr.netrpc_app()->stats().packets;
  const std::uint64_t before = allocs();
  const auto run = mgr.run(2, deadline);
  const std::uint64_t packets =
      mgr.netrpc_app()->stats().packets - packets_before;
  ASSERT_EQ(run.tenant(4)->netrpc.calls, 64u);
  ASSERT_GT(packets, 0u);
  const std::uint64_t per_packet = (allocs() - before) / packets;
  EXPECT_LE(per_packet, 2u)
      << "per-packet allocation budget regressed: " << per_packet;
}

}  // namespace
