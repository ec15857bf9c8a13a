// trio_bench: the benchmark binary.
//
//   trio_bench --workload pfe_stream|cluster_8x8|netrpc_kv --seed N
//              --seconds S --trace 0|1
//
// Generates the workload's inputs from the seed, then repeats
// build -> run -> check until S seconds have passed, each iteration in a
// child process forked from the state right after input generation.
// Times are medians over the iterations; counts come from one iteration
// and must repeat exactly in every other. The last line of stdout is one
// JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced iterations and reports the per-layer split from the traced
// ones, plus the tracing overhead. The exit code is 1 when any output was
// wrong or lost, the counts did not repeat, or a traced split did not add
// up.
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "trio_bench: %s\nusage: trio_bench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_of(const std::vector<Sample>& samples, F f) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(f(s));
  return median(v);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double packets_per_s(const Sample& s) {
  return ratio(double(s.frames), s.run_s);
}

double busy_sum(const Sample& s) {
  double sum = 0;
  for (double b : s.busy()) sum += b;
  return sum;
}

double busy_max(const Sample& s) {
  double max = 0;
  for (double b : s.busy()) max = std::max(max, b);
  return max;
}

/// Mean time a shard thread spent blocked (neither running nor runnable)
/// during the run: with the parallel engine, time parked at a barrier.
double shard_wait(const Sample& s) {
  if (s.threads == 0) return 0;
  return std::max(0.0, s.run_s - busy_sum(s) / double(s.threads));
}

double step_s(const Sample& s, ProgramKind k) {
  return double(s.tally.kind[std::size_t(k)].step_ns) * 1e-9;
}

double all_steps_s(const Sample& s) {
  double sum = 0;
  for (const KindTally& k : s.tally.kind) sum += double(k.step_ns) * 1e-9;
  return sum;
}

/// Host time of the run not spent inside a program step or the program
/// factory: event core, links, PPE charging, the SMS, hash and MQSS
/// engines and host endpoints. On the serial engine that is sim.run_s minus
/// step and factory time, so the three add up to the run. Shard threads
/// step programs concurrently, so on the parallel engine it is their
/// summed busy time minus step and factory time.
double engine_s(const Sample& s) {
  const double whole = s.threads > 1 ? busy_sum(s) : s.run_s;
  return whole - all_steps_s(s) - double(s.tally.factory_ns) * 1e-9;
}

/// The traced split must account for the run: program steps and the
/// factory fit inside the run, or inside the shard threads' busy time
/// (trio.engine_s is not negative), and no thread is busy for longer than
/// the run. Busy time is not checked from below: on a virtual machine,
/// schedstat can leave out time the hypervisor steals from the thread's
/// CPU. The slack covers the scheduler's accounting granularity.
bool trace_adds_up(const Sample& s) {
  if (!s.traced) return true;
  const double slack = 0.02 * s.run_s + 0.005;
  return engine_s(s) >= -slack && busy_max(s) <= s.run_s + slack;
}

/// The counts one iteration must reproduce exactly in every other.
std::vector<std::uint64_t> deterministic_counts(const Sample& s) {
  std::vector<std::uint64_t> v = {
      s.events,         s.frames,          s.bytes,
      s.frames_dropped, s.ppe_instructions, s.sms_ops,
      s.hash_ops,       s.blocks_completed, s.calls,
      s.cached_gets,    std::uint64_t(s.sim_us * 1000)};
  if (!s.traced) v.push_back(s.allocs);
  return v;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }

  std::string json() const {
    std::string out = "{";
    for (const Item& m : items_) {
      if (out.size() > 1) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

  void print_table(std::FILE* f) const {
    for (const Item& m : items_) {
      std::fprintf(f, "  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };

  /// Shortest text that reads back as the same double.
  static std::string number(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
  }

  std::vector<Item> items_;
};

void end_to_end(Metrics& m, const std::vector<Sample>& runs,
                std::uint64_t attempted, std::uint64_t failed) {
  const Sample& first = runs.front();
  m.add("setup_s", median_of(runs, [](const Sample& s) { return s.setup_s; }),
        "s");
  m.add("packets_per_s", median_of(runs, packets_per_s), "1/s");
  m.add("cpu_us_per_packet", median_of(runs, [](const Sample& s) {
          return ratio(s.cpu_s * 1e6, double(s.frames));
        }),
        "us");
  m.add("events_per_packet", ratio(double(first.events), double(first.frames)),
        "count");
  m.add("allocs_per_packet", ratio(double(first.allocs), double(first.frames)),
        "count");
  m.add("peak_rss_mb",
        median_of(runs, [](const Sample& s) { return s.peak_rss_mb; }), "MB");
  m.add("success_ratio", 1.0 - ratio(double(failed), double(attempted)),
        "ratio");
  m.add("sim_us_per_wall_s", median_of(runs, [](const Sample& s) {
          return ratio(s.sim_us, s.run_s);
        }),
        "us/s");
}

void per_layer(Metrics& m, const std::vector<Sample>& traced,
               const std::vector<Sample>& untraced,
               const std::vector<Sample>& all) {
  const Sample& t = traced.front();
  const LayerTally& lt = t.tally;
  const double frames = double(t.frames);
  const auto kind = [&lt](ProgramKind k) -> const KindTally& {
    return lt.kind[std::size_t(k)];
  };
  const auto med = [&traced](auto f) { return median_of(traced, f); };

  // sim: the event core and the parallel engine.
  m.add("sim.run_s", med([](const Sample& s) { return s.run_s; }), "s");
  m.add("sim.events", double(t.events), "count");
  m.add("sim.rounds", double(t.rounds), "count");
  m.add("sim.events_per_round", ratio(double(t.events), double(t.rounds)),
        "count");
  m.add("sim.shards", double(t.threads), "count");
  m.add("sim.shard_busy_s.max", med(busy_max), "s");
  m.add("sim.shard_busy_s.sum", med(busy_sum), "s");
  m.add("sim.shard_wait_s", med(shard_wait), "s");
  m.add("sim.shard_wait_share",
        med([](const Sample& s) { return ratio(shard_wait(s), s.run_s); }),
        "ratio");
  m.add("sim.shard_imbalance", med([](const Sample& s) {
          return ratio(busy_max(s) * double(s.threads), busy_sum(s));
        }),
        "ratio");

  // net: the denominators and the loss check.
  m.add("net.frames", frames, "count");
  m.add("net.bytes", double(t.bytes), "B");
  m.add("net.frames_dropped", double(t.frames_dropped), "count");
  m.add("net.fabric_frames", double(t.fabric_frames), "count");

  // trio: PFE dispatch, PPE programs and the SMS / hash / MQSS engines.
  std::uint64_t programs = 0;
  for (const KindTally& k : lt.kind) programs += k.programs;
  std::uint64_t xtxns = 0;
  for (std::uint64_t x : lt.xtxn) xtxns += x;
  m.add("trio.programs", double(programs), "count");
  m.add("trio.factory_s",
        med([](const Sample& s) { return double(s.tally.factory_ns) * 1e-9; }),
        "s");
  m.add("trio.factory_allocs", double(lt.factory_allocs), "count");
  m.add("trio.other_step_s",
        med([](const Sample& s) { return step_s(s, ProgramKind::kOther); }),
        "s");
  m.add("trio.engine_s", med(engine_s), "s");
  m.add("trio.ppe_instructions", double(t.ppe_instructions), "count");
  m.add("trio.instr_per_packet", ratio(double(t.ppe_instructions), frames),
        "count");
  m.add("trio.xtxn.sms", double(lt.xtxn[std::size_t(XtxnTarget::kSms)]),
        "count");
  m.add("trio.xtxn.hash", double(lt.xtxn[std::size_t(XtxnTarget::kHash)]),
        "count");
  m.add("trio.xtxn.mqss", double(lt.xtxn[std::size_t(XtxnTarget::kMqss)]),
        "count");
  m.add("trio.xtxn_per_packet", ratio(double(xtxns), frames), "count");
  m.add("trio.sms_ops", double(t.sms_ops), "count");
  m.add("trio.sms_add32_ops", double(t.sms_add32_ops), "count");
  m.add("trio.hash_ops", double(t.hash_ops), "count");
  m.add("trio.dispatch_drops", double(t.dispatch_drops), "count");
  const double threads = double(lt.threads_exited);
  m.add("trio.sim_exec_ns_per_thread", ratio(double(lt.sim_exec_ns), threads),
        "ns");
  static const char* const kTargets[kXtxnTargets] = {"sms", "hash", "mqss"};
  for (std::size_t i = 0; i < kXtxnTargets; ++i) {
    m.add(std::string("trio.sim_xtxn_wait_ns_per_thread.") + kTargets[i],
          ratio(double(lt.sim_xtxn_wait_ns[i]), threads), "ns");
  }

  // trioml: the hand-written aggregation program and its workers.
  const KindTally& ml = kind(ProgramKind::kTrioMl);
  m.add("trioml.step_s",
        med([](const Sample& s) { return step_s(s, ProgramKind::kTrioMl); }),
        "s");
  m.add("trioml.step_allocs", double(ml.step_allocs), "count");
  m.add("trioml.blocks_completed", double(t.blocks_completed), "count");
  m.add("trioml.retransmissions", double(t.retransmissions), "count");
  m.add("trioml.instr_per_grad",
        ratio(double(ml.instructions), double(ml.gradients)), "count");
  m.add("trioml.sim_block_latency_us.p50", t.block_latency_p50_us, "us");
  m.add("trioml.sim_block_latency_us.p99", t.block_latency_p99_us, "us");
  m.add("trioml.sim_goodput_gbps",
        ratio(double(t.gradient_bytes) * 8.0, t.sim_us * 1e3), "Gbps");

  // microcode: the interpreter running generated programs (NetRPC).
  const KindTally& mc = kind(ProgramKind::kMicrocode);
  m.add("microcode.step_s",
        med([](const Sample& s) { return step_s(s, ProgramKind::kMicrocode); }),
        "s");
  m.add("microcode.step_allocs", double(mc.step_allocs), "count");
  m.add("microcode.instructions", double(mc.instructions), "count");

  // netrpc: the client's view of the service.
  m.add("netrpc.calls", double(t.calls), "count");
  m.add("netrpc.degraded", double(t.degraded), "count");
  m.add("netrpc.cache_hit_ratio",
        ratio(double(t.cached_gets), double(t.gets)), "ratio");
  m.add("netrpc.sim_call_us.p50", t.call_p50_us, "us");
  m.add("netrpc.sim_call_us.p99", t.call_p99_us, "us");
  m.add("netrpc.sim_get_hit_us.p50", t.get_hit_p50_us, "us");

  // cluster / jobs: building the system.
  m.add("cluster.setup_s",
        median_of(all, [](const Sample& s) { return s.topology_s; }), "s");
  m.add("jobs.admit_s",
        median_of(all, [](const Sample& s) { return s.admit_s; }), "s");
  m.add("cluster.sim_duration_us", t.sim_us, "us");
  m.add("cluster.agg_goodput_gbps", t.agg_goodput_gbps, "Gbps");

  // The cost of observing: the same work with and without the probes.
  const double plain = median_of(untraced, packets_per_s);
  const double probed = median_of(traced, packets_per_s);
  m.add("trace.untraced_packets_per_s", plain, "1/s");
  m.add("trace.traced_packets_per_s", probed, "1/s");
  m.add("trace.overhead_ratio", ratio(plain, probed), "ratio");
}

/// Per-shard busy and wait of the median traced iteration, to stderr.
void print_shards(const std::vector<Sample>& traced) {
  std::vector<const Sample*> order;
  for (const Sample& s : traced) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Sample* a, const Sample* b) {
    return a->run_s < b->run_s;
  });
  const Sample& s = *order[order.size() / 2];
  std::fprintf(stderr, "shard split of the median traced run (%.4f s wall):\n",
               s.run_s);
  for (std::size_t i = 0; i < s.threads; ++i) {
    std::fprintf(stderr, "  shard %zu: busy %.4f s, blocked %.4f s (%.1f%%)\n",
                 i, s.busy_s[i], s.run_s - s.busy_s[i],
                 100.0 * ratio(s.run_s - s.busy_s[i], s.run_s));
  }
}

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= std::size_t(k);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= std::size_t(k);
  }
  return true;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "trio_bench: %s: %s\n", what, std::strerror(errno));
  std::exit(1);
}

/// Runs one build-run-check iteration in a child process forked from the
/// state right after input generation. Every iteration thus starts from
/// the same heap and, like a fresh run of the simulator, faults in and
/// zero-fills the memory it builds. Within one process, whether glibc
/// returned the previous iteration's memory to the kernel varied from
/// iteration to iteration, and set-up time with it.
Sample isolated_iteration(Workload& workload, bool traced) {
  int fds[2];
  if (pipe(fds) != 0) die("pipe");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) die("fork");
  if (pid == 0) {
    // The child ends with the benchmark, even when the benchmark is
    // killed mid-iteration.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    reset_peak_rss();
    const double rss0 = rss_mb();
    Sample s = workload.iterate(traced);
    s.peak_rss_mb = peak_rss_mb() - rss0;
    _exit(write_all(fds[1], &s, sizeof s) ? 0 : 1);
  }
  close(fds[1]);
  Sample s;
  const bool got = read_all(fds[0], &s, sizeof s);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) die("waitpid");
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "trio_bench: an iteration's process ended without "
                         "a result\n");
    std::exit(1);
  }
  return s;
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o.workload, o.seed);
  if (!workload) usage(("unknown workload " + o.workload).c_str());

  std::uint64_t attempted = 0, failed = 0;
  bool repeatable = true;
  bool adds_up = true;
  std::vector<Sample> untraced, traced;
  std::vector<std::uint64_t> reference_counts[2];
  const auto record = [&](const Sample& s) {
    attempted += s.attempted;
    failed += s.failed;
    adds_up = adds_up && trace_adds_up(s);
    const std::vector<std::uint64_t> counts = deterministic_counts(s);
    std::vector<std::uint64_t>& ref = reference_counts[s.traced ? 1 : 0];
    if (ref.empty()) {
      ref = counts;
    } else if (ref != counts) {
      repeatable = false;
    }
    std::fprintf(stderr,
                 "%siteration setup %.4f s  run %.4f s  %.0f packets/s  "
                 "%llu/%llu failed\n",
                 s.traced ? "traced " : "", s.setup_s, s.run_s,
                 packets_per_s(s), static_cast<unsigned long long>(s.failed),
                 static_cast<unsigned long long>(s.attempted));
    (s.traced ? traced : untraced).push_back(s);
  };

  const Clock::time_point start = Clock::now();
  const std::size_t min_each = o.trace ? 2 : 3;
  for (std::size_t i = 0;; ++i) {
    const bool enough = untraced.size() >= min_each &&
                        (!o.trace || traced.size() >= min_each);
    if (enough && seconds_since(start) >= o.seconds) break;
    record(isolated_iteration(*workload, o.trace && i % 2 == 1));
  }

  if (!repeatable) {
    std::fprintf(stderr, "trio_bench: deterministic counts differ between "
                         "iterations of the same inputs\n");
  }
  if (!adds_up) {
    std::fprintf(stderr, "trio_bench: the traced per-layer times do not add "
                         "up to the run's busy time\n");
  }
  const bool correct = failed == 0 && repeatable && adds_up && attempted > 0;

  Metrics m;
  if (o.trace) {
    std::vector<Sample> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    per_layer(m, traced, untraced, all);
    print_shards(traced);
  } else {
    end_to_end(m, untraced, attempted, failed);
  }
  std::fprintf(stderr, "%s seed %llu: %zu untraced + %zu traced iterations\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               untraced.size(), traced.size());
  m.print_table(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
