// The Reorder Engine (paper §2.1): packets of the same flow must leave in
// arrival order even though their threads run to completion independently
// and may finish out of order.
//
// Each dispatched packet opens a *ticket* on its flow. A thread attaches
// zero or more output packets to its ticket (zero = packet consumed, e.g.
// an aggregation packet absorbed into a block; more than one = locally
// generated packets such as aggregation results). When the ticket at the
// front of the flow queue closes, its outputs — and those of any
// subsequently contiguous closed tickets — are released downstream.
//
// Like the hardware's fixed per-PFE tables, the engine keeps its state in
// pre-sized storage that only grows to the steady-state footprint:
//   * a ring of tickets indexed by ticket id (ids come from a counter, so
//     every live ticket sits in the window [oldest live, next id), and the
//     ring doubles only when that window outgrows it);
//   * an intrusive next-on-flow link per ticket, so a flow's queue is a
//     chain through the ring rather than a container of its own;
//   * an open-addressed flow table mapping a flow to its newest ticket;
//   * a pool of output nodes with a free list, chained per ticket.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "telemetry/metrics.hpp"

namespace trio {

class ReorderEngine {
 public:
  struct Output {
    net::PacketPtr pkt;
    std::uint32_t nexthop_id;
  };
  /// Downstream sink: the PFE's transmit path.
  using Release = std::function<void(Output)>;

  explicit ReorderEngine(Release release) : release_(std::move(release)) {}

  /// Opens a ticket on `flow`. Tickets on one flow release in open order.
  std::uint64_t open(std::uint64_t flow);

  /// Attaches an output to an open ticket.
  void attach(std::uint64_t ticket, Output out);

  /// Marks the ticket's processing complete; releases any now-unblocked
  /// contiguous outputs.
  void close(std::uint64_t ticket);

  std::size_t pending() const { return live_; }
  std::uint64_t released() const { return released_; }

  /// Registers `<prefix>pending` (open-ticket gauge) and
  /// `<prefix>released` (released-output counter). Normally called by the
  /// owning Pfe; un-instrumented engines pay nothing.
  void instrument(telemetry::Registry& registry, const std::string& prefix) {
    pending_gauge_ = registry.gauge(prefix + "pending");
    released_ctr_ = registry.counter(prefix + "released");
  }

 private:
  static constexpr std::uint32_t kNoOutput = ~std::uint32_t{0};

  struct Ticket {
    std::uint64_t id = 0;            // 0: the ring slot is free
    std::uint64_t flow = 0;
    std::uint64_t next_on_flow = 0;  // next ticket opened on the flow, or 0
    std::uint32_t first_out = kNoOutput;
    std::uint32_t last_out = kNoOutput;
    bool closed = false;
    bool flow_head = false;  // oldest live ticket of its flow
  };
  struct OutputNode {
    Output out;
    std::uint32_t next = kNoOutput;
  };
  struct FlowEntry {
    std::uint64_t flow = 0;
    std::uint64_t newest = 0;  // newest live ticket of the flow; 0: empty
  };

  /// The live ticket `id`, or null when it was never opened or has been
  /// released.
  Ticket* find(std::uint64_t id);
  Ticket& slot(std::uint64_t id) { return ring_[id & (ring_.size() - 1)]; }
  void grow_ring();
  /// Releases `id` (a closed flow head) and every closed ticket queued
  /// behind it on its flow.
  void release_from(std::uint64_t id);

  std::size_t flow_home(std::uint64_t flow) const;
  /// The flow's entry, inserting an empty one when absent.
  FlowEntry& flow_entry(std::uint64_t flow);
  void erase_flow(std::uint64_t flow);
  void grow_flows();

  Release release_;
  std::vector<Ticket> ring_;  // power-of-two size, indexed by id
  std::uint64_t oldest_ = 1;  // no live ticket has a smaller id
  std::uint64_t next_ticket_ = 1;
  std::size_t live_ = 0;
  std::vector<FlowEntry> flows_;  // power-of-two size, linear probing
  std::size_t flow_count_ = 0;
  std::vector<OutputNode> outputs_;
  std::uint32_t free_output_ = kNoOutput;
  std::uint64_t released_ = 0;
  telemetry::Gauge pending_gauge_;
  telemetry::Counter released_ctr_;
};

}  // namespace trio
