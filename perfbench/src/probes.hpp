// Measurement probes the benchmark attaches from outside the simulator.
//
//  * Heap allocation counts: trio_bench replaces the global operator new,
//    and every call bumps a per-thread counter (probes.cpp).
//  * Host time of the executing threads: on-CPU and run-queue nanoseconds
//    per thread from /proc/self/task/<tid>/schedstat.
//  * The per-layer split of a traced run: probe_router() wraps each PFE's
//    ProgramFactory. The wrapper forwards to the real factory and wraps
//    every PpeProgram it returns, so each step() call is timed on the host
//    clock, its allocations counted, and its action's instruction charge
//    and XTXN target recorded. The wrapper also splits each PPE thread's
//    simulated lifetime into execution and synchronous-XTXN wait per
//    target block.
//
// Tallies are kept per host thread (shard threads step programs
// concurrently) and summed by the main thread between runs, while every
// shard is parked.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include <sys/types.h>

#include "trio/router.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

// --- Allocation counting -----------------------------------------------------
/// operator new calls made by the whole process so far.
std::uint64_t process_allocs();
/// operator new calls made by the calling thread so far.
std::uint64_t thread_allocs();

// --- Host CPU ----------------------------------------------------------------
/// CPU seconds consumed by the whole process so far.
double process_cpu_s();
/// Resident set size of the process now, in MiB (VmRSS).
double rss_mb();
/// Peak resident set size of the process since the last reset_peak_rss(),
/// in MiB (VmHWM).
double peak_rss_mb();
/// Lowers the kernel's record of the peak to the current resident size.
void reset_peak_rss();

/// Kernel thread id of the caller.
pid_t current_tid();
/// Ids of every thread of this process, ascending.
std::vector<pid_t> process_tids();

struct ThreadSched {
  std::uint64_t cpu_ns = 0;   // time on a CPU
  std::uint64_t runq_ns = 0;  // time runnable but waiting for a CPU
};
/// Scheduler statistics of one thread of this process.
ThreadSched thread_sched(pid_t tid);

// --- Per-layer tallies -------------------------------------------------------
/// Which application a wrapped program belongs to.
enum class ProgramKind : std::uint8_t {
  kTrioMl,     // hand-written Trio-ML aggregation (trioml::AggregationProgram)
  kMicrocode,  // compiled microcode (microcode::MicrocodeThread), e.g. NetRPC
  kOther,      // everything else: IP forwarding, result transit
};
constexpr std::size_t kProgramKinds = 3;

/// The block an XTXN targets.
enum class XtxnTarget : std::uint8_t { kSms, kHash, kMqss };
constexpr std::size_t kXtxnTargets = 3;
XtxnTarget xtxn_target(trio::XtxnOp op);

struct KindTally {
  std::uint64_t programs = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t step_allocs = 0;
  std::uint64_t instructions = 0;
  /// Gradients carried by the packets that spawned these programs
  /// (Trio-ML aggregation packets only).
  std::uint64_t gradients = 0;
};

struct LayerTally {
  std::array<KindTally, kProgramKinds> kind{};
  std::uint64_t factory_ns = 0;
  std::uint64_t factory_allocs = 0;
  std::array<std::uint64_t, kXtxnTargets> xtxn{};
  /// PPE threads that ran to their Exit, and their simulated lifetime
  /// split into execution and synchronous XTXN wait per target.
  std::uint64_t threads_exited = 0;
  std::uint64_t sim_exec_ns = 0;
  std::array<std::uint64_t, kXtxnTargets> sim_xtxn_wait_ns{};

  void add(const LayerTally& o);
};

/// Zeroes every thread's tally. Call only while no simulation runs.
void reset_tallies();
/// Sum of every thread's tally. Call only while no simulation runs.
LayerTally sum_tallies();

/// Wraps the program factory of every PFE of `router` (see above).
/// Install after every application has installed its own factory.
void probe_router(trio::Router& router);

}  // namespace perfbench
