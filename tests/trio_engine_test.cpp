#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trio/forwarding.hpp"
#include "trio/reorder.hpp"
#include "trio/router.hpp"

namespace {

// ---------------------------------------------------------------------------
// ReorderEngine

TEST(Reorder, SameFlowReleasesInArrivalOrder) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto t1 = re.open(5);
  const auto t2 = re.open(5);
  re.attach(t2, {nullptr, 2});
  re.close(t2);  // finished first, must wait for t1
  EXPECT_TRUE(released.empty());
  re.attach(t1, {nullptr, 1});
  re.close(t1);
  EXPECT_EQ(released, (std::vector<std::uint32_t>{1, 2}));
}

TEST(Reorder, DifferentFlowsIndependent) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto a = re.open(1);
  const auto b = re.open(2);
  re.attach(b, {nullptr, 20});
  re.close(b);  // flow 2 not blocked by flow 1
  EXPECT_EQ(released, (std::vector<std::uint32_t>{20}));
  re.attach(a, {nullptr, 10});
  re.close(a);
  EXPECT_EQ(released, (std::vector<std::uint32_t>{20, 10}));
}

TEST(Reorder, ConsumedPacketUnblocksSuccessors) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto t1 = re.open(9);
  const auto t2 = re.open(9);
  re.attach(t2, {nullptr, 2});
  re.close(t2);
  re.close(t1);  // consumed: zero outputs
  EXPECT_EQ(released, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(re.pending(), 0u);
}

TEST(Reorder, MultipleOutputsPerTicket) {
  std::vector<std::uint32_t> released;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
  });
  const auto t = re.open(1);
  re.attach(t, {nullptr, 1});
  re.attach(t, {nullptr, 2});
  re.close(t);
  EXPECT_EQ(released, (std::vector<std::uint32_t>{1, 2}));
}

TEST(Reorder, DoubleCloseThrows) {
  trio::ReorderEngine re([](trio::ReorderEngine::Output) {});
  const auto t = re.open(1);
  re.close(t);
  EXPECT_THROW(re.close(t), std::logic_error);
}

TEST(Reorder, ReleaseSinkMayOpenTicketsOnTheSameFlow) {
  // A released output that re-enters the PFE on the same flow (a local
  // loop) opens its ticket from inside the release; the new ticket heads
  // the flow and releases on its own close.
  std::vector<std::uint32_t> released;
  trio::ReorderEngine* engine = nullptr;
  std::uint64_t reopened = 0;
  trio::ReorderEngine re([&](trio::ReorderEngine::Output out) {
    released.push_back(out.nexthop_id);
    if (out.nexthop_id == 1) reopened = engine->open(7);
  });
  engine = &re;
  const auto t = re.open(7);
  re.attach(t, {nullptr, 1});
  re.close(t);
  ASSERT_NE(reopened, 0u);
  EXPECT_EQ(re.pending(), 1u);
  re.attach(reopened, {nullptr, 2});
  re.close(reopened);
  EXPECT_EQ(released, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(re.pending(), 0u);
}

/// The original map-based engine: one unordered_map entry per ticket
/// with its own output vector, and a deque of ticket ids per flow. The
/// ring engine must release exactly what this model releases, in the same
/// order, and throw where it throws.
class ReferenceReorder {
 public:
  using Output = trio::ReorderEngine::Output;

  explicit ReferenceReorder(std::vector<std::uint32_t>& released)
      : released_(released) {}

  std::uint64_t open(std::uint64_t flow) {
    const std::uint64_t id = next_ticket_++;
    tickets_.emplace(id, Ticket{flow, false, {}});
    flows_[flow].push_back(id);
    return id;
  }
  void attach(std::uint64_t ticket, Output out) {
    auto it = tickets_.find(ticket);
    if (it == tickets_.end()) throw std::logic_error("unknown ticket");
    if (it->second.closed) throw std::logic_error("ticket already closed");
    it->second.outputs.push_back(std::move(out));
  }
  void close(std::uint64_t ticket) {
    auto it = tickets_.find(ticket);
    if (it == tickets_.end()) throw std::logic_error("unknown ticket");
    if (it->second.closed) throw std::logic_error("ticket closed twice");
    it->second.closed = true;
    auto fit = flows_.find(it->second.flow);
    auto& q = fit->second;
    while (!q.empty()) {
      auto tit = tickets_.find(q.front());
      if (!tit->second.closed) break;
      for (auto& out : tit->second.outputs) released_.push_back(out.nexthop_id);
      tickets_.erase(tit);
      q.pop_front();
    }
    if (q.empty()) flows_.erase(fit);
  }
  std::size_t pending() const { return tickets_.size(); }

 private:
  struct Ticket {
    std::uint64_t flow;
    bool closed = false;
    std::vector<Output> outputs;
  };
  std::vector<std::uint32_t>& released_;
  std::unordered_map<std::uint64_t, Ticket> tickets_;
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> flows_;
  std::uint64_t next_ticket_ = 1;
};

/// Runs `fn` on both engines and checks that either both throw a
/// logic_error or neither does. Returns true when they threw.
template <typename Fn>
bool both_throw_alike(Fn&& fn, trio::ReorderEngine& ring,
                      ReferenceReorder& ref) {
  bool ring_threw = false;
  bool ref_threw = false;
  try {
    fn(ring);
  } catch (const std::logic_error&) {
    ring_threw = true;
  }
  try {
    fn(ref);
  } catch (const std::logic_error&) {
    ref_threw = true;
  }
  EXPECT_EQ(ring_threw, ref_threw);
  return ring_threw;
}

TEST(Reorder, RingMatchesMapReferenceUnderRandomTraffic) {
  // Seeded random open/attach/close over many flows. Some tickets are
  // held open for thousands of operations, so the live window outgrows
  // the ring (growth) while ids run far past its size (wrap-around).
  // Every so often an operation targets a released, never-opened or
  // already-closed ticket, and both engines must reject it.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    sim::Rng rng(seed);
    std::vector<std::uint32_t> ring_out;
    std::vector<std::uint32_t> ref_out;
    trio::ReorderEngine ring([&ring_out](trio::ReorderEngine::Output out) {
      ring_out.push_back(out.nexthop_id);
    });
    ReferenceReorder ref(ref_out);
    std::vector<std::uint64_t> open_tickets;
    std::vector<std::uint64_t> closed_tickets;  // closed, maybe released
    std::uint32_t tag = 0;
    std::uint64_t next_id = 1;
    std::size_t rejected = 0;
    std::uint64_t widest = 0;  // largest live id window seen
    for (int op = 0; op < 40000; ++op) {
      const std::uint64_t r = rng.next_below(100);
      if (r < 36 || open_tickets.empty()) {
        // Many flows, including the zero flow and wide hash values.
        const std::uint64_t flow = rng.next_below(4) == 0
                                       ? rng.next_u64()
                                       : rng.next_below(97);
        const std::uint64_t a = ring.open(flow);
        const std::uint64_t b = ref.open(flow);
        ASSERT_EQ(a, b);
        ASSERT_EQ(a, next_id++);
        open_tickets.push_back(a);
        widest = std::max(
            widest, a - *std::min_element(open_tickets.begin(),
                                          open_tickets.end()));
      } else if (r < 60) {
        const std::uint64_t t =
            open_tickets[rng.next_below(open_tickets.size())];
        const std::uint32_t nh = ++tag;
        ring.attach(t, {nullptr, nh});
        ref.attach(t, {nullptr, nh});
      } else if (r < 97) {
        // Close a random open ticket, but mostly spare the oldest four:
        // they live for hundreds of operations, so the window between
        // them and the newest id spans several ring sizes.
        std::size_t k = rng.next_below(open_tickets.size());
        if (rng.next_below(32) == 0) {
          k = 0;
        } else if (k < 4) {
          k = open_tickets.size() - 1;
        }
        const std::uint64_t t = open_tickets[k];
        open_tickets.erase(open_tickets.begin() +
                           static_cast<std::ptrdiff_t>(k));
        ring.close(t);
        ref.close(t);
        closed_tickets.push_back(t);
      } else {
        // A rejected operation: attach to or close a closed or released
        // ticket, or name one that was never opened.
        std::uint64_t t = next_id + rng.next_below(8);
        if (!closed_tickets.empty() && rng.next_below(4) != 0) {
          t = closed_tickets[rng.next_below(closed_tickets.size())];
        } else if (rng.next_below(8) == 0) {
          t = 0;
        }
        const bool close = rng.next_below(2) == 0;
        const std::uint32_t nh = ++tag;
        const bool threw = both_throw_alike(
            [&](auto& engine) {
              if (close) {
                engine.close(t);
              } else {
                engine.attach(t, {nullptr, nh});
              }
            },
            ring, ref);
        ASSERT_TRUE(threw) << "ticket " << t;
        ++rejected;
      }
      ASSERT_EQ(ring.pending(), ref.pending()) << "op " << op;
      ASSERT_EQ(ring_out, ref_out) << "op " << op;
    }
    // Drain: every ticket closes, so both engines release everything.
    for (const std::uint64_t t : open_tickets) {
      ring.close(t);
      ref.close(t);
    }
    EXPECT_EQ(ring.pending(), 0u);
    EXPECT_EQ(ref.pending(), 0u);
    EXPECT_EQ(ring_out, ref_out);
    EXPECT_EQ(ring.released(), ring_out.size());
    EXPECT_GT(rejected, 100u);
    EXPECT_GT(widest, 256u) << "the live window must outgrow the ring";
    EXPECT_GT(next_id, 10 * widest) << "ids must wrap the ring many times";
  }
}

// ---------------------------------------------------------------------------
// ForwardingTable

TEST(Forwarding, LongestPrefixMatchWins) {
  trio::ForwardingTable fwd;
  const auto nh_default = fwd.add_nexthop(trio::NexthopDiscard{});
  const auto nh_slash8 =
      fwd.add_nexthop(trio::NexthopUnicast{1, {}});
  const auto nh_slash24 =
      fwd.add_nexthop(trio::NexthopUnicast{2, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh_default);
  fwd.add_route(net::Ipv4Addr::from_string("10.0.0.0"), 8, nh_slash8);
  fwd.add_route(net::Ipv4Addr::from_string("10.1.2.0"), 24, nh_slash24);

  EXPECT_EQ(fwd.lookup(net::Ipv4Addr::from_string("10.1.2.3")), nh_slash24);
  EXPECT_EQ(fwd.lookup(net::Ipv4Addr::from_string("10.9.9.9")), nh_slash8);
  EXPECT_EQ(fwd.lookup(net::Ipv4Addr::from_string("192.168.0.1")),
            nh_default);
}

TEST(Forwarding, LookupWithoutRoutesIsEmpty) {
  trio::ForwardingTable fwd;
  EXPECT_FALSE(fwd.lookup(net::Ipv4Addr::from_string("1.2.3.4")).has_value());
}

TEST(Forwarding, MulticastGroupAccumulatesMembers) {
  trio::ForwardingTable fwd;
  const auto m1 = fwd.add_nexthop(trio::NexthopUnicast{1, {}});
  const auto m2 = fwd.add_nexthop(trio::NexthopUnicast{2, {}});
  const auto group = net::Ipv4Addr::from_string("239.0.0.7");
  const auto g1 = fwd.join_group(group, m1);
  const auto g2 = fwd.join_group(group, m2);
  EXPECT_EQ(g1, g2);
  const auto& mc = std::get<trio::NexthopMulticast>(fwd.nexthop(g1));
  EXPECT_EQ(mc.members, (std::vector<std::uint32_t>{m1, m2}));
  EXPECT_EQ(fwd.lookup(group), g1);
}

TEST(Forwarding, BadRouteArgumentsThrow) {
  trio::ForwardingTable fwd;
  const auto nh = fwd.add_nexthop(trio::NexthopDiscard{});
  EXPECT_THROW(fwd.add_route(net::Ipv4Addr(), 33, nh),
               std::invalid_argument);
  EXPECT_THROW(fwd.add_route(net::Ipv4Addr(), 8, nh + 1),
               std::invalid_argument);
  EXPECT_THROW(fwd.nexthop(99), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Router end-to-end IP forwarding (default program on PPE threads)

class RouterForwardingTest : public ::testing::Test {
 protected:
  RouterForwardingTest()
      : router(sim, trio::Calibration{}, /*pfes=*/2, /*ports=*/4) {}

  net::Buffer make_frame(const std::string& dst, std::size_t payload = 64) {
    std::vector<std::uint8_t> body(payload, 0x5a);
    return net::build_udp_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                                net::Ipv4Addr::from_string("10.0.0.1"),
                                net::Ipv4Addr::from_string(dst), 1000, 2000,
                                body);
  }

  sim::Simulator sim;
  trio::Router router;
};

TEST_F(RouterForwardingTest, ForwardsByLpmAndDecrementsTtl) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(
      trio::NexthopUnicast{2, {0xde, 0xad, 0, 0, 0, 1}});
  fwd.add_route(net::Ipv4Addr::from_string("10.0.1.0"), 24, nh);

  std::vector<net::PacketPtr> out;
  router.attach_port_sink(2, [&](net::PacketPtr p) { out.push_back(std::move(p)); });

  router.receive(net::Packet::make(make_frame("10.0.1.9")), 0);
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  const auto ip = net::Ipv4Header::parse(out[0]->frame(),
                                         net::UdpFrameLayout::kIpOff);
  EXPECT_EQ(ip.ttl, 63);  // decremented
  const auto eth = net::EthernetHeader::parse(out[0]->frame(), 0);
  EXPECT_EQ(eth.dst, (net::MacAddr{0xde, 0xad, 0, 0, 0, 1}));
}

TEST_F(RouterForwardingTest, CrossPfeForwardingTransitsFabric) {
  auto& fwd = router.forwarding();
  // Port 5 lives on PFE 1; ingress arrives on PFE 0.
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{5, {}});
  fwd.add_route(net::Ipv4Addr::from_string("10.0.2.0"), 24, nh);

  std::vector<net::PacketPtr> out;
  router.attach_port_sink(5, [&](net::PacketPtr p) { out.push_back(std::move(p)); });
  router.receive(net::Packet::make(make_frame("10.0.2.1")), 0);
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(router.fabric().packets(), 1u);
}

TEST_F(RouterForwardingTest, NoRouteIsDropped) {
  router.receive(net::Packet::make(make_frame("172.16.0.1")), 0);
  sim.run();
  EXPECT_EQ(router.no_route_drops(), 1u);
  EXPECT_EQ(router.packets_transmitted(), 0u);
}

TEST_F(RouterForwardingTest, TtlExpiryIsDropped) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{1, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh);

  auto frame = make_frame("10.0.0.2");
  net::Ipv4Header ip = net::Ipv4Header::parse(frame, net::UdpFrameLayout::kIpOff);
  ip.ttl = 1;
  ip.write(frame, net::UdpFrameLayout::kIpOff);

  std::vector<net::PacketPtr> out;
  router.attach_port_sink(1, [&](net::PacketPtr p) { out.push_back(std::move(p)); });
  router.receive(net::Packet::make(std::move(frame)), 0);
  sim.run();
  EXPECT_TRUE(out.empty());
}

TEST_F(RouterForwardingTest, MulticastReplicatesToAllMembers) {
  auto& fwd = router.forwarding();
  const auto group = net::Ipv4Addr::from_string("239.1.1.1");
  for (int port : {1, 2, 3}) {
    fwd.join_group(group, fwd.add_nexthop(trio::NexthopUnicast{port, {}}));
  }
  int delivered = 0;
  for (int port : {1, 2, 3}) {
    router.attach_port_sink(port, [&](net::PacketPtr) { ++delivered; });
  }
  router.receive(net::Packet::make(make_frame("239.1.1.1")), 0);
  sim.run();
  EXPECT_EQ(delivered, 3);
}

TEST_F(RouterForwardingTest, ManyPacketsAllForwardedUnderLoad) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{3, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh);
  int delivered = 0;
  router.attach_port_sink(3, [&](net::PacketPtr) { ++delivered; });
  for (int i = 0; i < 2000; ++i) {
    router.receive(net::Packet::make(make_frame("10.0.0.9", 200)), 0);
  }
  sim.run();
  EXPECT_EQ(delivered, 2000);
  EXPECT_GT(router.pfe(0).instructions_issued(), 0u);
}

TEST_F(RouterForwardingTest, SameFlowStaysInOrder) {
  auto& fwd = router.forwarding();
  const auto nh = fwd.add_nexthop(trio::NexthopUnicast{3, {}});
  fwd.add_route(net::Ipv4Addr::from_string("0.0.0.0"), 0, nh);
  std::vector<std::uint64_t> order;
  router.attach_port_sink(3, [&](net::PacketPtr p) {
    order.push_back(p->id());
  });
  for (std::uint64_t i = 0; i < 500; ++i) {
    auto pkt = net::Packet::make(make_frame("10.0.0.9"));
    pkt->set_id(i);
    router.receive(std::move(pkt), 0);
  }
  sim.run();
  ASSERT_EQ(order.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------------------------
// Timer threads

class CountingProgram : public trio::PpeProgram {
 public:
  explicit CountingProgram(int* counter) : counter_(counter) {}
  trio::Action step(trio::ThreadContext&) override {
    ++*counter_;
    return trio::ActExit{4};
  }

 private:
  int* counter_;
};

TEST(TimerWheel, PhaseShiftedPeriodicFiring) {
  sim::Simulator sim;
  trio::Calibration cal;
  trio::Router router(sim, cal, 1, 2);
  int count = 0;
  router.pfe(0).timers().start(
      /*count=*/10, sim::Duration::millis(1),
      [&](std::uint32_t) { return std::make_unique<CountingProgram>(&count); });
  sim.run_until(sim::Time(sim::Duration::millis(10).ns()));
  // 10 timers x ~10 periods in 10 ms: about 100 firings.
  EXPECT_GE(count, 90);
  EXPECT_LE(count, 110);
  EXPECT_EQ(router.pfe(0).timers().skips(), 0u);
  router.pfe(0).timers().stop();
  const int before = count;
  sim.run_until(sim::Time(sim::Duration::millis(20).ns()));
  // No NEW firings after stop; threads already spawned may still run.
  EXPECT_LE(count, before + 10);
}

TEST(TimerWheel, RejectsBadArguments) {
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 2);
  EXPECT_THROW(router.pfe(0).timers().start(0, sim::Duration::millis(1),
                                            [](std::uint32_t) { return nullptr; }),
               std::invalid_argument);
  EXPECT_THROW(router.pfe(0).timers().start(1, sim::Duration::nanos(10),
                                            [](std::uint32_t) { return nullptr; }),
               std::invalid_argument);
}

}  // namespace
