#include "trio/reorder.hpp"

#include <stdexcept>

#include "trio/hash.hpp"

namespace trio {

namespace {
constexpr std::size_t kInitialRing = 64;
constexpr std::size_t kInitialFlows = 16;
}  // namespace

std::uint64_t ReorderEngine::open(std::uint64_t flow) {
  const std::uint64_t id = next_ticket_++;
  if (id - oldest_ >= ring_.size()) grow_ring();
  Ticket& t = slot(id);
  t = Ticket{id, flow};
  FlowEntry& f = flow_entry(flow);
  if (f.newest == 0) {
    t.flow_head = true;
  } else {
    slot(f.newest).next_on_flow = id;
  }
  f.newest = id;
  ++live_;
  pending_gauge_.set(static_cast<std::int64_t>(live_));
  return id;
}

void ReorderEngine::attach(std::uint64_t ticket, Output out) {
  Ticket* t = find(ticket);
  if (t == nullptr) {
    throw std::logic_error("ReorderEngine::attach: unknown ticket");
  }
  if (t->closed) {
    throw std::logic_error("ReorderEngine::attach: ticket already closed");
  }
  std::uint32_t node = free_output_;
  if (node != kNoOutput) {
    free_output_ = outputs_[node].next;
    outputs_[node] = OutputNode{std::move(out)};
  } else {
    node = static_cast<std::uint32_t>(outputs_.size());
    outputs_.push_back(OutputNode{std::move(out)});
  }
  if (t->last_out == kNoOutput) {
    t->first_out = node;
  } else {
    outputs_[t->last_out].next = node;
  }
  t->last_out = node;
}

void ReorderEngine::close(std::uint64_t ticket) {
  Ticket* t = find(ticket);
  if (t == nullptr) {
    throw std::logic_error("ReorderEngine::close: unknown ticket");
  }
  if (t->closed) {
    throw std::logic_error("ReorderEngine::close: ticket closed twice");
  }
  t->closed = true;
  // Only a flow's head can unblock anything: a closed ticket behind an
  // open one waits for that one's close to release it.
  if (t->flow_head) release_from(ticket);
}

ReorderEngine::Ticket* ReorderEngine::find(std::uint64_t id) {
  if (id < oldest_ || id >= next_ticket_) return nullptr;
  Ticket& t = slot(id);
  return t.id == id ? &t : nullptr;
}

void ReorderEngine::grow_ring() {
  std::vector<Ticket> grown(ring_.empty() ? kInitialRing : ring_.size() * 2);
  for (const Ticket& t : ring_) {
    if (t.id != 0) grown[t.id & (grown.size() - 1)] = t;
  }
  ring_ = std::move(grown);
}

void ReorderEngine::release_from(std::uint64_t id) {
  // The release sink may re-enter open() (growing the ring or the output
  // pool), so every ticket and node is re-fetched by index after it runs,
  // and each ticket is unlinked before its outputs leave.
  while (true) {
    Ticket& t = slot(id);
    if (!t.closed) {
      t.flow_head = true;
      break;
    }
    const std::uint64_t next = t.next_on_flow;
    std::uint32_t node = t.first_out;
    if (next == 0) erase_flow(t.flow);
    t = Ticket{};
    --live_;
    while (node != kNoOutput) {
      OutputNode& n = outputs_[node];
      Output out = std::move(n.out);
      const std::uint32_t after = n.next;
      n.next = free_output_;
      free_output_ = node;
      node = after;
      ++released_;
      released_ctr_.inc();
      release_(std::move(out));
    }
    if (next == 0) break;
    id = next;
  }
  while (oldest_ < next_ticket_ && slot(oldest_).id != oldest_) ++oldest_;
  pending_gauge_.set(static_cast<std::int64_t>(live_));
}

std::size_t ReorderEngine::flow_home(std::uint64_t flow) const {
  return mix64(flow) & (flows_.size() - 1);
}

ReorderEngine::FlowEntry& ReorderEngine::flow_entry(std::uint64_t flow) {
  if ((flow_count_ + 1) * 2 > flows_.size()) grow_flows();
  const std::size_t mask = flows_.size() - 1;
  for (std::size_t i = flow_home(flow);; i = (i + 1) & mask) {
    FlowEntry& e = flows_[i];
    if (e.newest == 0) {
      e.flow = flow;
      ++flow_count_;
      return e;
    }
    if (e.flow == flow) return e;
  }
}

void ReorderEngine::erase_flow(std::uint64_t flow) {
  const std::size_t mask = flows_.size() - 1;
  std::size_t hole = flow_home(flow);
  while (flows_[hole].flow != flow || flows_[hole].newest == 0) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later members of the probe run into
  // the hole unless that would move them before their home slot.
  for (std::size_t i = (hole + 1) & mask; flows_[i].newest != 0;
       i = (i + 1) & mask) {
    const std::size_t home = flow_home(flows_[i].flow);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      flows_[hole] = flows_[i];
      hole = i;
    }
  }
  flows_[hole] = FlowEntry{};
  --flow_count_;
}

void ReorderEngine::grow_flows() {
  std::vector<FlowEntry> old = std::move(flows_);
  flows_.assign(old.empty() ? kInitialFlows : old.size() * 2, FlowEntry{});
  const std::size_t mask = flows_.size() - 1;
  for (const FlowEntry& e : old) {
    if (e.newest == 0) continue;
    std::size_t i = flow_home(e.flow);
    while (flows_[i].newest != 0) i = (i + 1) & mask;
    flows_[i] = e;
  }
}

}  // namespace trio
