// The benchmark's named workloads. Each one generates its inputs once from
// the seed, then builds, runs and checks the simulated system as many
// times as main() asks, through the simulator's public APIs only.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "probes.hpp"

namespace perfbench {

/// Everything one build-run-check iteration measured.
/// Trivially copyable, so that an iteration's process can hand it back
/// through a pipe.
struct Sample {
  // Set-up: building the simulated system and handing it its inputs.
  double setup_s = 0;
  double topology_s = 0;  // the Testbed / Cluster constructor alone
  double admit_s = 0;     // JobManager admission (incl. microcode compile)

  // Run phase.
  double run_s = 0;       // host wall-clock
  double cpu_s = 0;       // process CPU
  double sim_us = 0;      // simulated time advanced
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t frames = 0;  // frames delivered on every simulated link
  std::uint64_t bytes = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t fabric_frames = 0;  // the part on leaf-spine trunks
  /// Per executing thread (the shard threads, or the main thread on the
  /// serial engine): seconds it was on a CPU or runnable during the run.
  static constexpr std::size_t kMaxThreads = 16;
  std::array<double, kMaxThreads> busy_s{};
  std::size_t threads = 0;
  std::span<const double> busy() const { return {busy_s.data(), threads}; }
  /// Peak resident memory above the process's size when the iteration
  /// began, in MiB.
  double peak_rss_mb = 0;

  // Public counters of the chipset, read around the run.
  std::uint64_t ppe_instructions = 0;
  std::uint64_t sms_ops = 0;
  std::uint64_t sms_add32_ops = 0;
  std::uint64_t hash_ops = 0;
  std::uint64_t dispatch_drops = 0;

  // Trio-ML.
  std::uint64_t blocks_completed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t gradient_bytes = 0;  // payload pushed by every worker
  double block_latency_p50_us = 0;
  double block_latency_p99_us = 0;
  double agg_goodput_gbps = 0;  // run_allreduce's figure (cluster only)

  // NetRPC.
  std::uint64_t calls = 0;
  std::uint64_t degraded = 0;
  std::uint64_t gets = 0;
  std::uint64_t cached_gets = 0;
  double call_p50_us = 0;
  double call_p99_us = 0;
  double get_hit_p50_us = 0;

  // Checked operations.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // wrong, lost, degraded or never completed

  bool traced = false;
  LayerTally tally;  // traced iterations only
};
static_assert(std::is_trivially_copyable_v<Sample>);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the system, runs it, and checks every output. `traced`
  /// attaches the per-layer probes after set-up.
  virtual Sample iterate(bool traced) = 0;
};

/// Names accepted by make_workload().
const std::vector<std::string>& workload_names();
/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
