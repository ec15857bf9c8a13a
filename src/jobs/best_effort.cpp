#include "jobs/best_effort.hpp"

#include <algorithm>
#include <stdexcept>

#include "trioml/addressing.hpp"

namespace jobs {

BestEffortSource::BestEffortSource(sim::Simulator& simulator,
                                   net::LinkEndpoint& tx, Config config)
    : sim_(simulator), tx_(tx), config_(config) {
  if (config_.load <= 0.0 || config_.load > 1.0) {
    throw std::invalid_argument("best-effort load must be in (0, 1]");
  }
  // A frame every wire-time / load: load=1.0 saturates the link.
  const std::size_t frame_bytes =
      net::UdpFrameLayout::kPayloadOff + config_.frame_payload_bytes;
  const auto wire = tx_.serialization_delay(frame_bytes);
  interval_ = sim::Duration(
      static_cast<std::int64_t>(double(wire.ns()) / config_.load + 0.5));
}

void BestEffortSource::start(sim::Time at, sim::Time until) {
  if (running_) return;
  running_ = true;
  until_ = until;
  frames_delivered_ = 0;
  bytes_delivered_ = 0;
  next_ = sim_.schedule_at(at < sim_.now() ? sim_.now() : at,
                           [this] { emit(); });
}

void BestEffortSource::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(next_);
}

void BestEffortSource::emit() {
  if (!running_) return;
  if (until_ != sim::Time() && sim_.now() >= until_) {
    running_ = false;
    return;
  }
  auto frame = net::build_udp_frame(
      config_.eth_src, config_.eth_dst, config_.ip_src, config_.ip_dst,
      trioml::best_effort_src_port(config_.tenant), /*udp_dst=*/9,
      config_.frame_payload_bytes);
  std::ranges::fill(
      frame.mutable_bytes().subspan(net::UdpFrameLayout::kPayloadOff), 0xbe);
  const std::size_t bytes = frame.size();
  if (tx_.send(net::Packet::make(std::move(frame)))) {
    ++frames_delivered_;
    bytes_delivered_ += bytes;
  }
  ++frames_offered_;
  next_ = sim_.schedule_in(interval_, [this] { emit(); });
}

}  // namespace jobs
