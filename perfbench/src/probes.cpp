#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <new>
#include <string>
#include <utility>

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include "microcode/interpreter.hpp"
#include "trioml/aggregator.hpp"
#include "trioml/wire_format.hpp"

// --- Global operator new replacement -----------------------------------------
//
// Each thread counts into its own cache line; the main thread sums the
// lines between runs. A line has one writer, so a plain load/store pair
// (no locked add) is enough; the atomic only makes the cross-thread read
// well-defined. Threads beyond kSlots share lines round-robin, which can
// only happen with more than kSlots live threads at once.

namespace {

constexpr unsigned kSlots = 64;

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> n{0};
};
AllocSlot g_alloc_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
// Constant-initialised and trivially destructible: safe to touch from
// operator new at any point of a thread's life.
thread_local int t_alloc_slot = -1;

AllocSlot& my_alloc_slot() {
  if (t_alloc_slot < 0) {
    t_alloc_slot = int(g_next_slot.fetch_add(1, std::memory_order_relaxed) %
                       kSlots);
  }
  return g_alloc_slots[t_alloc_slot];
}

void count_alloc() {
  std::atomic<std::uint64_t>& n = my_alloc_slot().n;
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_alloc();
  const std::size_t a = std::max(std::size_t(align), sizeof(void*));
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t process_allocs() {
  std::uint64_t total = 0;
  for (const AllocSlot& s : g_alloc_slots) {
    total += s.n.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t thread_allocs() {
  return my_alloc_slot().n.load(std::memory_order_relaxed);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

namespace {

/// A "<field>:  <n> kB" line of /proc/self/status, in MiB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  std::fprintf(stderr, "trio_bench: no %s in /proc/self/status\n",
               field.c_str());
  std::exit(1);
}

}  // namespace

double rss_mb() { return status_mb("VmRSS"); }

double peak_rss_mb() { return status_mb("VmHWM"); }

void reset_peak_rss() {
  // getrusage's ru_maxrss cannot be lowered; VmHWM is reset by this write.
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "trio_bench: cannot reset the peak RSS\n");
    std::exit(1);
  }
}

pid_t current_tid() { return pid_t(syscall(SYS_gettid)); }

std::vector<pid_t> process_tids() {
  std::vector<pid_t> out;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    out.push_back(pid_t(std::stol(entry.path().filename().string())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

ThreadSched thread_sched(pid_t tid) {
  ThreadSched s;
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  in >> s.cpu_ns >> s.runq_ns;
  return s;
}

XtxnTarget xtxn_target(trio::XtxnOp op) {
  switch (op) {
    case trio::XtxnOp::kHashLookup:
    case trio::XtxnOp::kHashInsert:
    case trio::XtxnOp::kHashDelete:
    case trio::XtxnOp::kHashScanStep:
      return XtxnTarget::kHash;
    case trio::XtxnOp::kTailRead:
    case trio::XtxnOp::kPmemWrite:
      return XtxnTarget::kMqss;
    default:
      return XtxnTarget::kSms;
  }
}

void LayerTally::add(const LayerTally& o) {
  for (std::size_t k = 0; k < kProgramKinds; ++k) {
    kind[k].programs += o.kind[k].programs;
    kind[k].step_ns += o.kind[k].step_ns;
    kind[k].step_allocs += o.kind[k].step_allocs;
    kind[k].instructions += o.kind[k].instructions;
    kind[k].gradients += o.kind[k].gradients;
  }
  factory_ns += o.factory_ns;
  factory_allocs += o.factory_allocs;
  threads_exited += o.threads_exited;
  sim_exec_ns += o.sim_exec_ns;
  for (std::size_t t = 0; t < kXtxnTargets; ++t) {
    xtxn[t] += o.xtxn[t];
    sim_xtxn_wait_ns[t] += o.sim_xtxn_wait_ns[t];
  }
}

namespace {

// Every thread's tally, owned here so that a tally outlives its thread
// (the engine's shard threads end with their Cluster) until it is summed.
std::mutex g_tallies_mu;
std::deque<LayerTally> g_tallies;
thread_local LayerTally* t_tally = nullptr;

LayerTally& my_tally() {
  if (t_tally == nullptr) {
    std::lock_guard<std::mutex> lk(g_tallies_mu);
    t_tally = &g_tallies.emplace_back();
  }
  return *t_tally;
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// A PpeProgram that times and classifies the program it wraps.
class ProbedProgram final : public trio::PpeProgram {
 public:
  ProbedProgram(std::unique_ptr<trio::PpeProgram> inner, ProgramKind kind,
                sim::Simulator& sim)
      : inner_(std::move(inner)), kind_(kind), sim_(sim) {}

  ~ProbedProgram() override {
    // Only threads that ran to their Exit have a complete lifetime; a
    // program torn down with its router contributes nothing.
    if (!exited_) return;
    LayerTally& t = my_tally();
    close_interval(sim_.now());
    ++t.threads_exited;
    t.sim_exec_ns += exec_ns_;
    for (std::size_t i = 0; i < kXtxnTargets; ++i) {
      t.sim_xtxn_wait_ns[i] += wait_ns_[i];
    }
  }

  trio::Action step(trio::ThreadContext& ctx) override {
    LayerTally& t = my_tally();
    if (!started_) {
      started_ = true;
      last_ = ctx.spawn_time;
    }
    close_interval(sim_.now());

    KindTally& k = t.kind[std::size_t(kind_)];
    const std::uint64_t allocs0 = thread_allocs();
    const Clock::time_point c0 = Clock::now();
    trio::Action action = inner_->step(ctx);
    const Clock::time_point c1 = Clock::now();
    k.step_ns += ns_between(c0, c1);
    k.step_allocs += thread_allocs() - allocs0;
    k.instructions += trio::action_instructions(action);

    pending_wait_ = -1;
    if (const auto* sx = std::get_if<trio::ActSyncXtxn>(&action)) {
      const XtxnTarget target = xtxn_target(sx->req.op);
      ++t.xtxn[std::size_t(target)];
      pending_wait_ = int(target);
    } else if (const auto* ax = std::get_if<trio::ActAsyncXtxn>(&action)) {
      ++t.xtxn[std::size_t(xtxn_target(ax->req.op))];
    } else if (std::holds_alternative<trio::ActExit>(action)) {
      exited_ = true;
    }
    return action;
  }

 private:
  /// Attributes the simulated time since the previous step: to the XTXN
  /// target when that step issued a synchronous XTXN, else to execution.
  void close_interval(sim::Time now) {
    const std::uint64_t d = std::uint64_t((now - last_).ns());
    if (pending_wait_ >= 0) {
      wait_ns_[std::size_t(pending_wait_)] += d;
    } else {
      exec_ns_ += d;
    }
    last_ = now;
  }

  std::unique_ptr<trio::PpeProgram> inner_;
  ProgramKind kind_;
  sim::Simulator& sim_;
  bool started_ = false;
  bool exited_ = false;
  int pending_wait_ = -1;
  sim::Time last_;
  std::uint64_t exec_ns_ = 0;
  std::array<std::uint64_t, kXtxnTargets> wait_ns_{};
};

ProgramKind kind_of(const trio::PpeProgram& program) {
  if (dynamic_cast<const trioml::AggregationProgram*>(&program) != nullptr) {
    return ProgramKind::kTrioMl;
  }
  if (dynamic_cast<const microcode::MicrocodeThread*>(&program) != nullptr) {
    return ProgramKind::kMicrocode;
  }
  return ProgramKind::kOther;
}

}  // namespace

void reset_tallies() {
  std::lock_guard<std::mutex> lk(g_tallies_mu);
  for (LayerTally& t : g_tallies) t = LayerTally{};
}

LayerTally sum_tallies() {
  std::lock_guard<std::mutex> lk(g_tallies_mu);
  LayerTally total;
  for (const LayerTally& t : g_tallies) total.add(t);
  return total;
}

void probe_router(trio::Router& router) {
  sim::Simulator& sim = router.simulator();
  for (int i = 0; i < router.num_pfes(); ++i) {
    trio::Pfe& pfe = router.pfe(i);
    trio::ProgramFactory real = pfe.program_factory();
    if (!real) {
      // What the PFE runs when no application installed a factory.
      real = [&router](const net::Packet& pkt) {
        return router.make_forwarding_program(pkt);
      };
    }
    pfe.set_program_factory(
        [real = std::move(real), &sim](const net::Packet& pkt)
            -> std::unique_ptr<trio::PpeProgram> {
          LayerTally& t = my_tally();
          const std::uint64_t allocs0 = thread_allocs();
          const Clock::time_point c0 = Clock::now();
          std::unique_ptr<trio::PpeProgram> program = real(pkt);
          const Clock::time_point c1 = Clock::now();
          t.factory_ns += ns_between(c0, c1);
          t.factory_allocs += thread_allocs() - allocs0;
          if (!program) return program;
          const ProgramKind kind = kind_of(*program);
          KindTally& k = t.kind[std::size_t(kind)];
          ++k.programs;
          if (kind == ProgramKind::kTrioMl) {
            k.gradients += trioml::TrioMlHeader::parse(
                               pkt.frame(), trioml::kTrioMlHdrOff)
                               .grad_cnt;
          }
          return std::make_unique<ProbedProgram>(std::move(program), kind,
                                                 sim);
        });
  }
}

}  // namespace perfbench
