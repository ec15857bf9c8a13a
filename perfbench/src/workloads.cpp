#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/tenant.hpp"
#include "netrpc/host.hpp"
#include "sim/random.hpp"
#include "trioml/testbed.hpp"
#include "trioml/wire_format.hpp"

namespace perfbench {
namespace {

// --- Seeded inputs -----------------------------------------------------------

using Gradients = std::vector<std::vector<std::uint32_t>>;

/// Quantized gradients (ATP fixed point, |g| < 16) for every worker.
Gradients seeded_gradients(std::uint64_t seed, int workers, std::size_t n) {
  constexpr std::int64_t kMagnitude = 1 << 20;
  sim::Rng rng(seed);
  Gradients out(std::size_t(workers), std::vector<std::uint32_t>(n, 0));
  for (auto& g : out) {
    for (auto& v : g) {
      v = std::uint32_t(
          std::int32_t(rng.uniform_int(-kMagnitude, kMagnitude - 1)));
    }
  }
  return out;
}

/// What every worker must receive: the 32-bit sum over all workers,
/// dequantized and divided by the contributor count.
std::vector<float> reference_average(const Gradients& grads) {
  std::vector<float> out(grads.front().size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::uint32_t sum = 0;
    for (const auto& g : grads) sum += g[j];
    out[j] = trioml::dequantize(std::int32_t(sum)) / float(grads.size());
  }
  return out;
}

/// Checks one worker's allreduce result block by block. Returns the
/// number of failed blocks (wrong, degraded or abandoned; all of them when
/// the result never arrived).
std::uint64_t check_allreduce(const trioml::AllreduceResult& r,
                              const std::vector<float>& expected,
                              std::size_t grads_per_block,
                              std::uint64_t blocks) {
  if (r.grads.size() != expected.size()) return blocks;
  std::uint64_t failed = r.degraded_blocks + r.abandoned_blocks;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * grads_per_block;
    const std::size_t len =
        std::min(grads_per_block, expected.size() - begin);
    if (std::memcmp(&r.grads[begin], &expected[begin], len * sizeof(float)) !=
        0) {
      ++failed;
    }
  }
  return std::min(failed, blocks);
}

// --- Meters ------------------------------------------------------------------

/// The parts of a simulated system the meters read.
struct SystemView {
  sim::Simulator* sim = nullptr;
  sim::ShardedSimulator* engine = nullptr;  // null for a plain Simulator
  std::vector<trio::Router*> routers;
  std::vector<net::Link*> host_links;
  std::vector<net::Link*> fabric_links;
  std::vector<trioml::TrioMlApp*> apps;
};

struct Counters {
  std::uint64_t events = 0, rounds = 0;
  std::uint64_t frames = 0, bytes = 0, dropped = 0, fabric_frames = 0;
  std::uint64_t instructions = 0, sms_ops = 0, add32 = 0, hash_ops = 0;
  std::uint64_t dispatch_drops = 0, blocks_completed = 0;
  double sim_us = 0;
};

void add_link(Counters& c, net::Link& link) {
  for (net::LinkEndpoint* e : {&link.a_to_b(), &link.b_to_a()}) {
    c.frames += e->frames_delivered();
    c.bytes += e->bytes_delivered();
    c.dropped += e->frames_dropped();
  }
}

Counters read_counters(const SystemView& v) {
  Counters c;
  c.events = v.sim->events_executed();
  c.rounds = v.engine != nullptr ? v.engine->rounds() : 0;
  c.sim_us = v.sim->now().us();
  for (net::Link* l : v.host_links) add_link(c, *l);
  const std::uint64_t host_frames = c.frames;
  for (net::Link* l : v.fabric_links) add_link(c, *l);
  c.fabric_frames = c.frames - host_frames;
  for (trio::Router* r : v.routers) {
    for (int i = 0; i < r->num_pfes(); ++i) {
      trio::Pfe& pfe = r->pfe(i);
      c.instructions += pfe.instructions_issued();
      c.sms_ops += pfe.sms().ops_processed();
      c.add32 += pfe.sms().add32_ops();
      c.hash_ops += pfe.hash_table().ops_processed();
      c.dispatch_drops += pfe.packets_dropped_dispatch();
    }
  }
  for (trioml::TrioMlApp* app : v.apps) {
    c.blocks_completed += app->stats().blocks_completed;
  }
  return c;
}

/// Measures one run phase: host time, process CPU, allocations, the
/// executing threads' scheduling, and the simulator's public counters.
class RunMeter {
 public:
  RunMeter(SystemView view, std::vector<pid_t> exec_tids, bool traced)
      : view_(std::move(view)), tids_(std::move(exec_tids)), traced_(traced) {
    if (traced_) {
      for (trio::Router* r : view_.routers) probe_router(*r);
    }
  }

  void start() {
    before_ = read_counters(view_);
    sched_.clear();
    for (pid_t t : tids_) sched_.push_back(thread_sched(t));
    if (traced_) reset_tallies();
    cpu0_ = process_cpu_s();
    allocs0_ = process_allocs();
    t0_ = Clock::now();
  }

  void stop(Sample& s) {
    s.run_s = seconds_since(t0_);
    s.allocs = process_allocs() - allocs0_;
    s.cpu_s = process_cpu_s() - cpu0_;
    s.threads = std::min(tids_.size(), Sample::kMaxThreads);
    for (std::size_t i = 0; i < s.threads; ++i) {
      const ThreadSched now = thread_sched(tids_[i]);
      s.busy_s[i] = double(now.cpu_ns - sched_[i].cpu_ns + now.runq_ns -
                           sched_[i].runq_ns) *
                    1e-9;
    }
    if (traced_) s.tally = sum_tallies();
    s.traced = traced_;
    const Counters after = read_counters(view_);
    s.sim_us = after.sim_us - before_.sim_us;
    s.events = after.events - before_.events;
    s.rounds = after.rounds - before_.rounds;
    s.frames = after.frames - before_.frames;
    s.bytes = after.bytes - before_.bytes;
    s.frames_dropped = after.dropped - before_.dropped;
    s.fabric_frames = after.fabric_frames - before_.fabric_frames;
    s.ppe_instructions = after.instructions - before_.instructions;
    s.sms_ops = after.sms_ops - before_.sms_ops;
    s.sms_add32_ops = after.add32 - before_.add32;
    s.hash_ops = after.hash_ops - before_.hash_ops;
    s.dispatch_drops = after.dispatch_drops - before_.dispatch_drops;
    s.blocks_completed = after.blocks_completed - before_.blocks_completed;
  }

 private:
  SystemView view_;
  std::vector<pid_t> tids_;
  bool traced_;
  Counters before_;
  std::vector<ThreadSched> sched_;
  double cpu0_ = 0;
  std::uint64_t allocs0_ = 0;
  Clock::time_point t0_;
};

/// Block latency percentiles and retransmissions over a set of workers.
template <typename WorkerAt>
void read_workers(Sample& s, int workers, WorkerAt worker_at) {
  sim::Samples latency;
  for (int w = 0; w < workers; ++w) {
    trioml::TrioMlWorker& worker = worker_at(w);
    for (double v : worker.block_latency_us().values()) latency.add(v);
    s.retransmissions += worker.retransmissions();
  }
  s.block_latency_p50_us = latency.percentile(50);
  s.block_latency_p99_us = latency.percentile(99);
}

// --- pfe_stream --------------------------------------------------------------

/// Fig 16's saturation region: four workers stream 512-gradient packets
/// with 1024 outstanding each into one PFE of one router, serial engine.
class PfeStream final : public Workload {
 public:
  static constexpr int kWorkers = 4;
  static constexpr std::uint16_t kGradsPerPacket = 512;
  static constexpr std::uint32_t kWindow = 1024;
  static constexpr std::uint64_t kBlocks = 3000;  // per worker

  explicit PfeStream(std::uint64_t seed)
      : grads_(seeded_gradients(seed, kWorkers, kBlocks * kGradsPerPacket)),
        expected_(reference_average(grads_)) {}

  Sample iterate(bool traced) override {
    Sample s;
    Gradients inputs = grads_;  // bench-side copy, outside every timer
    std::vector<trioml::AllreduceResult> results(kWorkers);

    const Clock::time_point t0 = Clock::now();
    trioml::TestbedConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.grads_per_packet = kGradsPerPacket;
    cfg.window = kWindow;
    cfg.slab_pool = kWorkers * (kWindow + 64);
    trioml::Testbed tb(cfg);
    s.topology_s = s.setup_s = seconds_since(t0);

    SystemView view;
    view.sim = &tb.simulator();
    view.routers = {&tb.router()};
    for (int w = 0; w < kWorkers; ++w) view.host_links.push_back(&tb.link(w));
    view.apps = tb.apps();
    RunMeter meter(view, {current_tid()}, traced);

    meter.start();
    for (int w = 0; w < kWorkers; ++w) {
      tb.worker(w).start_allreduce(
          std::move(inputs[std::size_t(w)]), /*gen_id=*/1,
          [&results, w](trioml::AllreduceResult r) {
            results[std::size_t(w)] = std::move(r);
          });
    }
    tb.simulator().run();
    meter.stop(s);

    read_workers(s, kWorkers, [&tb](int w) -> trioml::TrioMlWorker& {
      return tb.worker(w);
    });
    s.gradient_bytes = std::uint64_t(kWorkers) * grads_.front().size() * 4;
    for (const auto& r : results) {
      s.attempted += kBlocks;
      s.failed += check_allreduce(r, expected_, kGradsPerPacket, kBlocks);
    }
    return s;
  }

 private:
  Gradients grads_;
  std::vector<float> expected_;
};

// --- cluster_8x8 -------------------------------------------------------------

/// Fig 17's 8x8 point: 8 racks x 8 workers on a leaf-spine tree,
/// 1024-gradient packets, on the parallel engine.
class Cluster8x8 final : public Workload {
 public:
  static constexpr int kRacks = 8;
  static constexpr int kWorkersPerRack = 8;
  static constexpr std::uint16_t kGradsPerPacket = 1024;
  static constexpr std::uint64_t kBlocks = 32;  // per worker
  // Two shards, not one per core: shard threads advance in lockstep, so
  // when every core of a small shared host is busy, a stall on any one
  // of them stalls the run. On a 4-vCPU VM, 4 shards gave a wall-clock
  // spread of about a third between identical runs; 2 shards about a
  // tenth, with barriers, mailboxes and cross-shard trunks still in play.
  static constexpr int kShards = 2;

  explicit Cluster8x8(std::uint64_t seed)
      : grads_(seeded_gradients(seed, kRacks * kWorkersPerRack,
                                kBlocks * kGradsPerPacket)),
        expected_(reference_average(grads_)) {}

  Sample iterate(bool traced) override {
    Sample s;
    cluster::ClusterSpec spec;
    spec.racks = kRacks;
    spec.workers_per_rack = kWorkersPerRack;
    spec.grads_per_packet = kGradsPerPacket;
    spec.fabric_link.gbps = 400;
    spec.fabric_link.latency = sim::Duration::micros(2);
    spec.shards = shards();

    const std::vector<pid_t> tids_before = process_tids();
    const Clock::time_point t0 = Clock::now();
    cluster::Cluster cl(spec);
    s.topology_s = s.setup_s = seconds_since(t0);

    SystemView view;
    view.sim = &cl.simulator();
    view.engine = &cl.engine();
    for (int r = 0; r < kRacks; ++r) {
      view.routers.push_back(&cl.leaf(r));
      view.fabric_links.push_back(&cl.fabric_link(r));
    }
    view.routers.push_back(&cl.spine());
    for (int w = 0; w < cl.num_workers(); ++w) {
      view.host_links.push_back(&cl.link(w));
    }
    view.apps = cl.apps();
    RunMeter meter(view, shard_threads(cl, tids_before), traced);

    meter.start();
    const cluster::AllreduceRun run = cluster::run_allreduce(cl, grads_);
    meter.stop(s);

    read_workers(s, cl.num_workers(), [&cl](int w) -> trioml::TrioMlWorker& {
      return cl.worker(w);
    });
    s.gradient_bytes = run.gradient_bytes;
    s.agg_goodput_gbps = run.goodput_gbps();
    for (const auto& r : run.results) {
      s.attempted += kBlocks;
      s.failed += check_allreduce(r, expected_, kGradsPerPacket, kBlocks);
    }
    return s;
  }

 private:
  static int shards() {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    return std::min<int>(kShards, int(cores));
  }

  /// The engine's worker threads are the ones its constructor started;
  /// a single shard runs on the calling thread.
  static std::vector<pid_t> shard_threads(cluster::Cluster& cl,
                                          const std::vector<pid_t>& before) {
    if (cl.num_shards() == 1) return {current_tid()};
    std::vector<pid_t> out;
    for (pid_t t : process_tids()) {
      if (!std::binary_search(before.begin(), before.end(), t)) {
        out.push_back(t);
      }
    }
    return out;
  }

  Gradients grads_;
  std::vector<float> expected_;
};

// --- netrpc_kv ---------------------------------------------------------------

/// One NetRPC client, three replicas and generated-microcode datapath on
/// rack 0's leaf PFE of a 2x4 cluster, serial engine. The benchmark
/// drives the client with a seeded mix: sum-merged fan-out calls (window
/// 8) beside a serial GET/PUT lane over skewed hot keys.
///
/// The mix is the NetRPC tenant's default (jobs::TenantSpec, also run by
/// bench/fig_netrpc): 32 fan-out calls, 64 GETs and 8 PUTs per client over
/// 4 hot keys, repeated kScale times. Key popularity is Zipfian with the
/// constant 0.99 of YCSB's core workloads (Cooper et al., SoCC 2010).
class NetRpcKv final : public Workload {
 public:
  static constexpr jobs::TenantId kTenant = 4;
  static constexpr std::uint16_t kWords = 8;
  static constexpr std::uint8_t kServers = 3;
  static constexpr std::uint32_t kWindow = 8;
  static constexpr std::uint32_t kScale = 250;
  static constexpr std::uint32_t kCalls = 32 * kScale;
  static constexpr std::uint32_t kGets = 64 * kScale;
  static constexpr std::uint32_t kPuts = 8 * kScale;
  static constexpr std::uint32_t kKeyOps = kGets + kPuts;
  static constexpr std::uint32_t kKeys = 4;
  static constexpr double kZipfTheta = 0.99;

  explicit NetRpcKv(std::uint64_t seed) {
    sim::Rng root(seed);
    sim::Rng call_rng = root.fork();
    sim::Rng key_rng = root.fork();
    const auto words = [](sim::Rng& rng) {
      std::vector<std::uint32_t> v(kWords);
      for (auto& x : v) x = std::uint32_t(rng.next_below(1u << 24));
      return v;
    };
    for (std::uint32_t i = 0; i < kCalls; ++i) {
      call_args_.push_back(words(call_rng));
    }

    // Every key is written once first, so every GET has a last PUT to
    // match. The other PUTs and the GETs follow in a seeded order.
    std::vector<std::uint8_t> is_put(kKeyOps - kKeys, 0);
    std::fill_n(is_put.begin(), kPuts - kKeys, 1);
    for (std::size_t i = is_put.size() - 1; i > 0; --i) {
      std::swap(is_put[i], is_put[key_rng.next_below(i + 1)]);
    }

    // Hot keys: a seeded permutation of the keys ranked by the Zipf law.
    std::vector<std::uint64_t> keys(kKeys);
    for (std::uint32_t k = 0; k < kKeys; ++k) keys[k] = k;
    for (std::uint32_t k = kKeys - 1; k > 0; --k) {
      std::swap(keys[k], keys[key_rng.next_below(k + 1)]);
    }
    std::vector<double> cdf(kKeys);
    double total = 0;
    for (std::uint32_t r = 0; r < kKeys; ++r) {
      total += 1.0 / std::pow(double(r + 1), kZipfTheta);
      cdf[r] = total;
    }
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      key_ops_.push_back({k, true, words(key_rng)});
    }
    for (const std::uint8_t put : is_put) {
      const double u = key_rng.next_double() * total;
      const std::size_t rank =
          std::size_t(std::upper_bound(cdf.begin(), cdf.end(), u) -
                      cdf.begin());
      const std::uint64_t key = keys[std::min<std::size_t>(rank, kKeys - 1)];
      key_ops_.push_back(
          {key, put != 0, put ? words(key_rng) : std::vector<std::uint32_t>{}});
    }
  }

  Sample iterate(bool traced) override {
    Sample s;
    cluster::ClusterSpec spec;
    spec.racks = 2;
    spec.workers_per_rack = 4;
    spec.grads_per_packet = 128;
    spec.slab_pool = 1024;

    jobs::TenantSpec tenant;
    tenant.id = kTenant;
    tenant.kind = jobs::TenantKind::kNetRpc;
    tenant.rpc_policy = netrpc::MergePolicy::kSum;
    tenant.rpc_value_words = kWords;
    tenant.rpc_servers = kServers;
    tenant.rpc_clients = 1;
    tenant.rpc_window = kWindow;
    // Admitted with an empty op list: the benchmark drives the client.
    tenant.rpc_calls = tenant.rpc_gets = tenant.rpc_puts = 0;
    tenant.rpc_hot_keys = 0;

    const Clock::time_point t0 = Clock::now();
    cluster::Cluster cl(spec);
    s.topology_s = seconds_since(t0);
    jobs::JobManager mgr(cl);
    const Clock::time_point t1 = Clock::now();
    const bool admitted = mgr.admit(tenant).admitted;
    s.admit_s = seconds_since(t1);
    mgr.run(/*gen_id=*/1, sim::Time() + sim::Duration::millis(1));
    netrpc::RpcClient* client = mgr.tenant_rpc_client(kTenant, 0);
    s.setup_s = seconds_since(t0);

    SystemView view;
    view.sim = &cl.simulator();
    view.engine = &cl.engine();
    view.routers = {&cl.leaf(0), &cl.leaf(1), &cl.spine()};
    for (int w = 0; w < cl.num_workers(); ++w) {
      view.host_links.push_back(&cl.link(w));
    }
    view.fabric_links = {&cl.fabric_link(0), &cl.fabric_link(1)};
    view.apps = cl.apps();
    RunMeter meter(view, {current_tid()}, traced);

    s.attempted = kCalls + kKeyOps;
    if (!admitted || client == nullptr) {
      s.failed = s.attempted;
      return s;
    }
    ClientLoop loop(*this, *client, s);
    meter.start();
    loop.pump();
    // The service's aging scans keep the event queue busy, so run in
    // slices until both lanes finish (or the simulated deadline passes).
    const sim::Time deadline = cl.simulator().now() + sim::Duration::seconds(1);
    while (!loop.finished() && cl.simulator().now() < deadline) {
      cl.simulator().run_until(cl.simulator().now() +
                               sim::Duration::micros(100));
    }
    meter.stop(s);

    s.failed += loop.never_completed();
    s.call_p50_us = loop.call_us.percentile(50);
    s.call_p99_us = loop.call_us.percentile(99);
    s.get_hit_p50_us = loop.get_hit_us.percentile(50);
    return s;
  }

 private:
  struct KeyOp {
    std::uint64_t key;
    bool put;
    std::vector<std::uint32_t> values;  // PUT payload
  };

  /// The merged reply a sum-merged fan-out call must return: the sum over
  /// the replicas of each one's contribution, as RpcServer defines it
  /// (argument + word index + rpc_id % 97 + 13 * replica id).
  static std::vector<std::uint32_t> expected_call(
      std::uint32_t rpc_id, const std::vector<std::uint32_t>& args) {
    std::vector<std::uint32_t> out(args.size(), 0);
    for (std::uint32_t s = 0; s < kServers; ++s) {
      for (std::size_t i = 0; i < args.size(); ++i) {
        out[i] += args[i] + std::uint32_t(i) + rpc_id % 97 + s * 13;
      }
    }
    return out;
  }

  /// Closed-loop client: fan-out calls with kWindow outstanding, and one
  /// GET/PUT outstanding at a time so every GET has a well-defined last
  /// PUT. Each completion is checked and issues the next operation.
  struct ClientLoop {
    ClientLoop(const NetRpcKv& w, netrpc::RpcClient& c, Sample& s)
        : work(w), client(c), sample(s), model(kKeys) {}

    void pump() {
      while (next_call < kCalls && client.can_call()) {
        const std::vector<std::uint32_t>& args = work.call_args_[next_call++];
        client.call(args, [this, &args](netrpc::CallResult r) {
          ++calls_done;
          ++sample.calls;
          if (r.degraded) ++sample.degraded;
          call_us.add(r.latency.us());
          if (r.degraded || r.host_merged || r.server_cnt != kServers ||
              r.values != expected_call(r.rpc_id, args)) {
            fail("call", r.rpc_id, r.values);
          }
          pump();
        });
      }
      if (key_busy || next_key >= kKeyOps) return;
      const KeyOp& op = work.key_ops_[next_key++];
      key_busy = true;
      if (op.put) {
        client.put(op.key, op.values, [this, &op](netrpc::PutResult r) {
          key_done();
          if (r.lost) {
            fail("put", std::uint32_t(op.key), {});
          } else {
            model[op.key] = op.values;
          }
          pump();
        });
      } else {
        client.get(op.key, [this, &op](netrpc::GetResult r) {
          key_done();
          ++sample.gets;
          if (r.cached) {
            ++sample.cached_gets;
            get_hit_us.add(r.latency.us());
          }
          if (r.lost || r.values != model[op.key]) {
            fail("get", std::uint32_t(op.key), r.values);
          }
          pump();
        });
      }
    }

    /// Counts a failed operation; the first few are described on stderr.
    void fail(const char* what, std::uint32_t id,
              const std::vector<std::uint32_t>& got) {
      if (++sample.failed <= 5) {
        std::fprintf(stderr,
                     "netrpc_kv: %s %u failed its check (first word %u)\n",
                     what, id, got.empty() ? 0u : got.front());
      }
    }

    void key_done() {
      key_busy = false;
      ++keys_done;
    }
    bool finished() const {
      return calls_done == kCalls && keys_done == kKeyOps;
    }
    std::uint64_t never_completed() const {
      return (kCalls - calls_done) + (kKeyOps - keys_done);
    }

    const NetRpcKv& work;
    netrpc::RpcClient& client;
    Sample& sample;
    std::vector<std::vector<std::uint32_t>> model;  // last PUT per key
    std::uint32_t next_call = 0, calls_done = 0;
    std::uint32_t next_key = 0, keys_done = 0;
    bool key_busy = false;
    sim::Samples call_us;
    sim::Samples get_hit_us;
  };

  std::vector<std::vector<std::uint32_t>> call_args_;
  std::vector<KeyOp> key_ops_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pfe_stream", "cluster_8x8",
                                                 "netrpc_kv"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "pfe_stream") return std::make_unique<PfeStream>(seed);
  if (name == "cluster_8x8") return std::make_unique<Cluster8x8>(seed);
  if (name == "netrpc_kv") return std::make_unique<NetRpcKv>(seed);
  return nullptr;
}

}  // namespace perfbench
