// BestEffortSource: a tenant that is pure load.
//
// Models a noisy neighbour sharing the fabric with Trio-ML jobs: a
// paced UDP stream injected on one worker's host link, addressed to the
// spine's aggregation IP on a non-Trio-ML port so the spine discards it
// (no route for the re-written destination) after it has burned host-link
// and leaf->spine trunk bandwidth. Source port 30000+tenant makes the
// stream classifiable by trioml::tenant_of_frame, so MQSS tenant QoS can
// confine it to its WDRR share.
#pragma once

#include <cstdint>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace jobs {

class BestEffortSource {
 public:
  struct Config {
    std::uint8_t tenant = 0;
    net::MacAddr eth_src{};
    net::MacAddr eth_dst{};
    net::Ipv4Addr ip_src;
    net::Ipv4Addr ip_dst;
    /// Offered load as a fraction of the injection link's line rate.
    double load = 1.0;
    std::size_t frame_payload_bytes = 1400;
  };

  BestEffortSource(sim::Simulator& simulator, net::LinkEndpoint& tx,
                   Config config);

  /// Starts the paced stream at `at`; runs until stop() or `until`
  /// (Time() = forever).
  void start(sim::Time at, sim::Time until = sim::Time());
  void stop();
  bool running() const { return running_; }

  std::uint64_t frames_offered() const { return frames_offered_; }
  /// Frames (and their bytes) the injection link accepted since the last
  /// start(); the rest were tail-dropped at the link.
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

 private:
  void emit();

  sim::Simulator& sim_;
  net::LinkEndpoint& tx_;
  Config config_;
  sim::Duration interval_;
  sim::Time until_;
  bool running_ = false;
  sim::EventId next_{};
  std::uint64_t frames_offered_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
};

}  // namespace jobs
