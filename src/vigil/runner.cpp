#include "vigil/runner.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "faults/injector.hpp"
#include "jobs/fluid.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/tenant.hpp"
#include "netrpc/app.hpp"
#include "netrpc/host.hpp"
#include "recovery/recovery.hpp"
#include "sim/digest.hpp"

namespace vigil {
namespace {

/// Simulated-time progress watchdog (docs/vigil.md): samples a "useful
/// work" counter every `step`; no change for longer than `window` while
/// participants are still busy trips it — as a livelock when raw frame
/// churn kept flowing (futile retransmit storm), as a deadlock when
/// nothing moved at all.
struct Watchdog {
  sim::Simulator& sim;
  std::function<std::uint64_t()> useful;
  std::function<std::uint64_t()> churn;
  std::function<bool()> busy;
  sim::Duration step;
  sim::Duration window;
  sim::Time deadline;
  std::vector<Violation>* out;

  bool stopped = false;
  bool tripped = false;
  sim::Time last_useful_at{};
  std::uint64_t last_useful = 0;
  std::uint64_t churn_at_useful = 0;

  void start() {
    last_useful_at = sim.now();
    last_useful = useful();
    churn_at_useful = churn();
    arm();
  }
  void arm() {
    sim.schedule_in(step, [this] { tick(); });
  }
  void tick() {
    if (stopped) return;
    const std::uint64_t u = useful();
    const std::uint64_t c = churn();
    if (u != last_useful) {
      last_useful = u;
      last_useful_at = sim.now();
      churn_at_useful = c;
    }
    if (!tripped && busy() && sim.now() - last_useful_at > window) {
      tripped = true;
      const bool live = c != churn_at_useful;
      std::ostringstream os;
      os << "no useful progress for "
         << (sim.now() - last_useful_at).us() << " us with participants "
         << "still busy (" << (c - churn_at_useful)
         << " frame(s) of futile churn since)";
      out->push_back(Violation{live ? "watchdog-livelock"
                                    : "watchdog-deadlock",
                               os.str(), sim.now()});
    }
    if (sim.now() + step <= deadline) arm();
  }
};

struct Baseline {
  bool valid = false;
  /// Participant id -> fault-free digest (0 = the failover single job,
  /// otherwise the allreduce tenant id).
  std::map<int, std::uint64_t> digests;
};

RunReport run_impl(const RunConfig& config,
                   const faults::FaultSchedule& schedule, bool check_golden);

const Baseline& baseline_for(const RunConfig& config) {
  static std::map<std::pair<int, int>, Baseline> cache;
  const auto key = std::make_pair(int(config.profile),
                                  config.blocks_per_worker);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  RunConfig base = config;
  base.plant_wedge_bug = false;
  const RunReport rep = run_impl(base, faults::FaultSchedule(), false);
  Baseline b;
  b.valid = rep.converged && rep.violations.empty() && rep.crashed == 0 &&
            rep.degraded_blocks == 0 && rep.abandoned_blocks == 0;
  for (const auto& [id, digest] : rep.digests) b.digests[id] = digest;
  return cache.emplace(key, std::move(b)).first->second;
}

void harden(trioml::TrioMlWorker& worker, const RunConfig& config) {
  worker.enable_hardened_retransmit(sim::Duration::millis(1),
                                    /*retry_budget=*/6,
                                    sim::Duration::millis(8));
  if (!config.plant_wedge_bug) {
    worker.enable_give_up(sim::Duration::millis(10));
  }
}

RunReport run_impl(const RunConfig& config,
                   const faults::FaultSchedule& schedule,
                   bool check_golden) {
  RunReport report;
  report.profile = config.profile;
  report.seed = config.seed;
  report.schedule = schedule;

  const ScenarioShape shape = profile_shape(config.profile);
  cluster::ClusterSpec spec;
  spec.racks = shape.racks;
  spec.workers_per_rack = shape.workers_per_rack;
  spec.backup_spine = shape.has_backup_spine;
  spec.shards = 1;  // recovery + jobs need the single-shard engine
  spec.validate();
  cluster::Cluster cl(spec);
  sim::Simulator& s = cl.simulator();

  // --- Profile workload -------------------------------------------------
  std::unique_ptr<jobs::JobManager> mgr;
  std::unique_ptr<jobs::FluidController> fluidc;
  std::unique_ptr<recovery::RecoveryManager> recov;
  jobs::JobsSpec jobs_spec;
  const std::size_t grads_per_worker =
      std::size_t(config.blocks_per_worker) * spec.grads_per_packet;
  switch (config.profile) {
    case Profile::kFailover:
      recov = std::make_unique<recovery::RecoveryManager>(cl);
      break;
    case Profile::kJobs: {
      jobs::TenantSpec t1;
      t1.id = 1;
      t1.grads = grads_per_worker;
      t1.window = 64;
      jobs::TenantSpec t2 = t1;
      t2.id = 2;
      jobs::TenantSpec t3;
      t3.id = 3;
      t3.kind = jobs::TenantKind::kBestEffort;
      t3.load = 0.5;
      jobs_spec.tenants = {t1, t2, t3};
      break;
    }
    case Profile::kNetRpc: {
      jobs::TenantSpec t1;
      t1.id = 1;
      t1.grads = grads_per_worker;
      t1.window = 64;
      jobs::TenantSpec t4;
      t4.id = 4;
      t4.kind = jobs::TenantKind::kNetRpc;
      jobs_spec.tenants = {t1, t4};
      break;
    }
    case Profile::kFluid: {
      jobs::TenantSpec t1;
      t1.id = 1;
      t1.grads = grads_per_worker;
      t1.window = 64;
      jobs::TenantSpec t3;
      t3.id = 3;
      t3.kind = jobs::TenantKind::kBestEffort;
      t3.load = 0.5;
      jobs_spec.tenants = {t1, t3};
      break;
    }
  }
  if (!jobs_spec.empty()) {
    mgr = std::make_unique<jobs::JobManager>(cl);
    mgr->enable_isolation();
    const jobs::AdmissionResult adm = mgr->admit_all(jobs_spec);
    if (!adm.admitted) {
      report.violations.push_back(Violation{
          "runner", "admission rejected: " + adm.reason, s.now()});
      return report;
    }
    if (config.profile == Profile::kFluid) {
      fluidc = std::make_unique<jobs::FluidController>(cl);
      mgr->enable_fluid(*fluidc);
    }
  }

  InvariantEngine inv(cl);
  if (mgr) inv.attach_jobs(*mgr, jobs_spec);

  // --- Faults + recovery machinery --------------------------------------
  faults::FaultInjector injector(s, nullptr);
  if (!schedule.empty()) {
    injector.bind(cl);
    if (mgr) mgr->bind_fault_injector(injector);
    injector.set_base_seed(config.seed);
    injector.arm(schedule);
    if (fluidc) fluidc->observe(schedule);
  }
  for (int w = 0; w < spec.total_workers(); ++w) {
    harden(cl.worker(w), config);
  }
  if (mgr) {
    for (jobs::TenantId t : mgr->admitted()) {
      for (int w = 0; w < spec.total_workers(); ++w) {
        if (trioml::TrioMlWorker* tw = mgr->tenant_worker(t, w)) {
          harden(*tw, config);
        }
      }
    }
  }
  cl.start_straggler_detection(/*threads=*/10, sim::Duration::millis(1));
  if (recov) recov->start();

  // --- Progress watchdog -------------------------------------------------
  const auto sum_useful = [&] {
    std::uint64_t u = 0;
    for (trioml::TrioMlApp* app : cl.apps()) {
      u += app->stats().blocks_completed + app->stats().blocks_aged +
           app->stats().blocks_lost_fault + app->stats().results_emitted;
    }
    for (int w = 0; w < spec.total_workers(); ++w) {
      u += cl.worker(w).results_received();
    }
    if (mgr) {
      for (jobs::TenantId t : mgr->admitted()) {
        for (int w = 0; w < spec.total_workers(); ++w) {
          if (trioml::TrioMlWorker* tw = mgr->tenant_worker(t, w)) {
            u += tw->results_received();
          }
          if (netrpc::RpcClient* c = mgr->tenant_rpc_client(int(t), w)) {
            u += c->calls_completed() + c->calls_given_up();
          }
        }
      }
    }
    return u;
  };
  const auto sum_churn = [&] {
    std::uint64_t c = 0;
    for (int w = 0; w < spec.total_workers(); ++w) {
      c += cl.link(w).a_to_b().frames_delivered() +
           cl.link(w).b_to_a().frames_delivered();
    }
    for (int r = 0; r < spec.racks; ++r) {
      c += cl.fabric_link(r).a_to_b().frames_delivered() +
           cl.fabric_link(r).b_to_a().frames_delivered();
      if (cl.has_backup_spine()) {
        c += cl.backup_fabric_link(r).a_to_b().frames_delivered() +
             cl.backup_fabric_link(r).b_to_a().frames_delivered();
      }
    }
    return c;
  };
  const auto any_busy = [&] {
    for (int w = 0; w < spec.total_workers(); ++w) {
      if (cl.worker(w).busy()) return true;
    }
    if (mgr) {
      for (jobs::TenantId t : mgr->admitted()) {
        for (int w = 0; w < spec.total_workers(); ++w) {
          trioml::TrioMlWorker* tw = mgr->tenant_worker(t, w);
          if (tw != nullptr && tw->busy()) return true;
        }
      }
    }
    return false;
  };
  Watchdog wd{s,
              sum_useful,
              sum_churn,
              any_busy,
              config.watchdog_step,
              config.watchdog_window,
              config.deadline,
              &report.violations};
  wd.start();

  // --- Run ---------------------------------------------------------------
  std::optional<jobs::MultiTenantRun> mrun;
  std::vector<std::optional<trioml::AllreduceResult>> results;
  if (mgr) {
    mrun = mgr->run(/*gen_id=*/1, config.deadline);
  } else {
    const auto grads =
        cluster::patterned_gradients(spec.total_workers(), grads_per_worker);
    results.resize(std::size_t(spec.total_workers()));
    int remaining = spec.total_workers();
    for (int w = 0; w < spec.total_workers(); ++w) {
      cl.worker(w).start_allreduce(
          grads[std::size_t(w)], /*gen_id=*/1,
          [&results, &remaining, w](trioml::AllreduceResult res) {
            results[std::size_t(w)] = std::move(res);
            --remaining;
          });
    }
    const sim::Duration chunk = sim::Duration::millis(1);
    while (remaining > 0 && s.now() < config.deadline) {
      const sim::Time next = s.now() + chunk < config.deadline
                                 ? s.now() + chunk
                                 : config.deadline;
      s.run_until(next);
    }
  }

  // --- Drain to quiescence ----------------------------------------------
  wd.stopped = true;
  cl.stop_straggler_detection();
  if (recov) recov->stop();
  if (mgr && mgr->netrpc_app()) mgr->netrpc_app()->stop_aging();
  s.run_until(s.now() + config.drain_grace);
  const bool quiescent = !s.pending();
  report.finish = s.now();
  report.fault_digest = injector.digest();

  // --- Outcome accounting ------------------------------------------------
  const auto count_worker = [&](trioml::TrioMlWorker& w, bool finished) {
    ++report.expected;
    if (finished) ++report.finished;
    if (w.crashes() > 0) ++report.crashed;
    report.abandoned_blocks += w.abandoned_blocks();
    report.retransmissions += w.retransmissions();
  };
  if (mrun) {
    for (const jobs::TenantRun& tr : mrun->tenants) {
      if (tr.kind == jobs::TenantKind::kAllreduce) {
        bool clean = true;
        for (int w = 0; w < spec.total_workers(); ++w) {
          trioml::TrioMlWorker* tw = mgr->tenant_worker(tr.id, w);
          if (tw == nullptr) continue;
          const bool finished =
              std::size_t(w) < tr.results.size() &&
              !tr.results[std::size_t(w)].grads.empty();
          count_worker(*tw, finished);
          report.degraded_blocks +=
              std::size_t(w) < tr.results.size()
                  ? tr.results[std::size_t(w)].degraded_blocks +
                        tr.results[std::size_t(w)].abandoned_blocks
                  : 0;
          if (!finished || tw->crashes() > 0 ||
              (std::size_t(w) < tr.results.size() &&
               (tr.results[std::size_t(w)].degraded_blocks != 0 ||
                tr.results[std::size_t(w)].abandoned_blocks != 0))) {
            clean = false;
          }
        }
        if (clean) report.digests.emplace_back(int(tr.id), tr.digest());
      } else if (tr.kind == jobs::TenantKind::kNetRpc) {
        const jobs::TenantSpec* ts = mgr->tenant_spec(tr.id);
        const int clients = ts != nullptr ? int(ts->rpc_clients) : 0;
        report.expected += clients;
        report.finished += tr.finished;
        for (int w = 0; w < spec.total_workers(); ++w) {
          const netrpc::RpcClient* c =
              mgr->tenant_rpc_client(int(tr.id), w);
          if (c != nullptr && c->crashed()) ++report.crashed;
        }
      }
    }
  } else {
    std::uint64_t degraded = 0;
    for (int w = 0; w < spec.total_workers(); ++w) {
      const bool finished = results[std::size_t(w)].has_value();
      count_worker(cl.worker(w), finished);
      if (finished) {
        degraded += results[std::size_t(w)]->degraded_blocks +
                    results[std::size_t(w)]->abandoned_blocks;
      }
    }
    report.degraded_blocks = degraded;
    if (report.finished == report.expected && report.crashed == 0 &&
        degraded == 0) {
      sim::Digest d;
      for (const auto& res : results) {
        if (res) d.f32_bits(res->grads);
      }
      report.digests.emplace_back(0, d.value());
    }
  }
  report.converged = report.finished >= report.expected - report.crashed;

  for (int w = 0; w < spec.total_workers(); ++w) {
    report.corrupted_frames += cl.link(w).a_to_b().frames_corrupted() +
                               cl.link(w).b_to_a().frames_corrupted();
  }
  for (int r = 0; r < spec.racks; ++r) {
    report.corrupted_frames +=
        cl.fabric_link(r).a_to_b().frames_corrupted() +
        cl.fabric_link(r).b_to_a().frames_corrupted();
  }

  // --- Invariants --------------------------------------------------------
  if (quiescent) {
    inv.check_quiescent();
  } else {
    // Timers (or a wedged retransmit path) kept the queue alive; the
    // anytime checks still hold at any parked instant.
    inv.check_conservation();
  }
  for (const Violation& v : inv.violations()) report.violations.push_back(v);

  // Golden-digest convergence (header contract: only for provably
  // value-lossless runs).
  if (check_golden && !report.digests.empty() &&
      report.corrupted_frames == 0) {
    const Baseline& base = baseline_for(config);
    if (base.valid) {
      for (const auto& [id, digest] : report.digests) {
        const auto it = base.digests.find(id);
        if (it != base.digests.end() && it->second != digest) {
          std::ostringstream os;
          os << (id == 0 ? "job" : "tenant") << " " << id
             << ": post-recovery digest " << std::hex << digest
             << " != fault-free baseline " << it->second;
          report.violations.push_back(
              Violation{"golden-digest", os.str(), s.now()});
        }
      }
    }
  }
  return report;
}

}  // namespace

RunReport run_schedule(const RunConfig& config,
                       const faults::FaultSchedule& schedule) {
  return run_impl(config, schedule, /*check_golden=*/true);
}

RunReport run_scenario(const RunConfig& config) {
  return run_schedule(config, generate(config.seed, config.profile));
}

}  // namespace vigil
