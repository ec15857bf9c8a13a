#include "vigil/invariants.hpp"

#include <sstream>

#include "jobs/job_manager.hpp"
#include "netrpc/app.hpp"
#include "netrpc/host.hpp"
#include "trio/sms.hpp"
#include "trioml/app.hpp"

namespace vigil {
namespace {

std::string endpoint_name(const std::string& link, bool forward) {
  return link + (forward ? ".up" : ".down");
}

}  // namespace

InvariantEngine::InvariantEngine(cluster::Cluster& cluster)
    : cluster_(cluster) {}

void InvariantEngine::attach_jobs(jobs::JobManager& manager,
                                  const jobs::JobsSpec& spec) {
  jobs_ = &manager;
  jobs_spec_ = &spec;
}

void InvariantEngine::report(const std::string& invariant,
                             const std::string& detail) {
  violations_.push_back(
      Violation{invariant, detail, cluster_.simulator().now()});
}

void InvariantEngine::check_conservation() {
  const auto check_endpoint = [&](net::LinkEndpoint& ep,
                                  const std::string& name) {
    if (ep.frames_sent() != ep.frames_delivered() + ep.frames_in_flight()) {
      std::ostringstream os;
      os << name << ": frames_sent " << ep.frames_sent()
         << " != delivered " << ep.frames_delivered() << " + in_flight "
         << ep.frames_in_flight();
      report("link-conservation", os.str());
    }
  };
  const auto check_link = [&](net::Link& link, const std::string& name) {
    check_endpoint(link.a_to_b(), endpoint_name(name, true));
    check_endpoint(link.b_to_a(), endpoint_name(name, false));
  };
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    check_link(cluster_.link(w), "host:" + std::to_string(w));
  }
  for (int r = 0; r < cluster_.num_racks(); ++r) {
    check_link(cluster_.fabric_link(r), "fabric:" + std::to_string(r));
    if (cluster_.has_backup_spine()) {
      check_link(cluster_.backup_fabric_link(r),
                 "backup-fabric:" + std::to_string(r));
    }
  }
}

void InvariantEngine::check_conservation_quiescent() {
  check_conservation();
  const auto check_endpoint = [&](net::LinkEndpoint& ep,
                                  const std::string& name) {
    if (ep.frames_in_flight() != 0) {
      report("link-conservation",
             name + ": " + std::to_string(ep.frames_in_flight()) +
                 " frame(s) still in flight at quiescence");
    }
    if (ep.bytes_sent() != ep.bytes_delivered() &&
        ep.frames_in_flight() == 0) {
      std::ostringstream os;
      os << name << ": bytes_sent " << ep.bytes_sent()
         << " != bytes_delivered " << ep.bytes_delivered()
         << " with no frames in flight";
      report("link-conservation", os.str());
    }
  };
  const auto check_link = [&](net::Link& link, const std::string& name) {
    check_endpoint(link.a_to_b(), endpoint_name(name, true));
    check_endpoint(link.b_to_a(), endpoint_name(name, false));
  };
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    check_link(cluster_.link(w), "host:" + std::to_string(w));
  }
  for (int r = 0; r < cluster_.num_racks(); ++r) {
    check_link(cluster_.fabric_link(r), "fabric:" + std::to_string(r));
    if (cluster_.has_backup_spine()) {
      check_link(cluster_.backup_fabric_link(r),
                 "backup-fabric:" + std::to_string(r));
    }
  }
}

void InvariantEngine::check_slab_accounting() {
  int app_idx = 0;
  for (trioml::TrioMlApp* app : cluster_.apps()) {
    const std::string name = "app" + std::to_string(app_idx++);
    // A permanently killed router freezes mid-operation — e.g. between
    // the active-counter FetchAdd32 and the slab allocation it was
    // paying for. Its frozen books are not a leak; skip it.
    if (app->pfe().router().killed()) continue;
    const std::size_t in_use =
        app->slab_pool_size() - app->free_slab_count();
    std::uint64_t active_total = 0;
    for (std::uint8_t job : app->configured_jobs()) {
      const std::uint64_t active =
          app->pfe().sms().peek_u32(app->job_active_counter_addr(job));
      active_total += active;
      // Per-tenant block quota (docs/jobs.md): the datapath's FetchAdd32
      // cap must never be exceeded in steady state.
      if (jobs_spec_ != nullptr) {
        for (const jobs::TenantSpec& t : jobs_spec_->tenants) {
          if (t.id == job && t.is_allreduce() && active > t.block_cnt_max) {
            std::ostringstream os;
            os << name << " job " << int(job) << ": " << active
               << " active blocks > quota " << t.block_cnt_max;
            report("sms-quota", os.str());
          }
        }
      }
    }
    if (in_use != active_total) {
      std::ostringstream os;
      os << name << ": " << in_use << " slab(s) in use but job active "
         << "counters sum to " << active_total;
      report("slab-accounting", os.str());
    }
  }
}

void InvariantEngine::check_no_stuck_threads() {
  const auto check_router = [&](trio::Router& router,
                                const std::string& name) {
    for (int i = 0; i < router.num_pfes(); ++i) {
      const int n = router.pfe(i).active_threads();
      if (n != 0) {
        report("stuck-xtxn", name + " pfe" + std::to_string(i) + ": " +
                                 std::to_string(n) +
                                 " PPE thread(s) still occupied at "
                                 "quiescence");
      }
    }
  };
  for (int r = 0; r < cluster_.num_racks(); ++r) {
    check_router(cluster_.leaf(r), "leaf" + std::to_string(r));
  }
  check_router(cluster_.spine(), "spine");
  if (cluster_.has_backup_spine()) {
    check_router(cluster_.backup_spine(), "spine-b");
  }
}

void InvariantEngine::check_worker_quiescence() {
  const auto check_worker = [&](trioml::TrioMlWorker& w,
                                const std::string& name) {
    if (!w.busy() && w.outstanding_blocks() != 0) {
      report("orphan-timer",
             name + ": idle worker holds " +
                 std::to_string(w.outstanding_blocks()) +
                 " outstanding block(s)");
    }
  };
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    check_worker(cluster_.worker(w), "worker:" + std::to_string(w));
  }
  if (jobs_ != nullptr) {
    for (jobs::TenantId t : jobs_->admitted()) {
      for (int w = 0; w < cluster_.num_workers(); ++w) {
        if (trioml::TrioMlWorker* tw = jobs_->tenant_worker(t, w)) {
          check_worker(*tw, "tenant:" + std::to_string(int(t)) +
                                ".worker:" + std::to_string(w));
        }
      }
    }
  }
}

void InvariantEngine::check_netrpc_accounting() {
  if (jobs_ == nullptr) return;
  netrpc::NetRpcApp* app = jobs_->netrpc_app();
  if (app == nullptr) return;
  for (std::uint8_t tenant : *app->configured_tenants()) {
    const std::uint64_t merged =
        app->counter_packets(tenant, netrpc::kCtrMerged);
    const std::uint64_t completed =
        app->counter_packets(tenant, netrpc::kCtrCompleted);
    const std::uint64_t degraded =
        app->counter_packets(tenant, netrpc::kCtrDegraded);
    const std::uint64_t relayed =
        app->counter_packets(tenant, netrpc::kCtrRelayed);
    if (merged < completed) {
      std::ostringstream os;
      os << "tenant " << int(tenant) << ": completed " << completed
         << " merges but only " << merged << " responses were merged";
      report("netrpc-accounting", os.str());
    }
    // Every fan-out call a client saw complete was emitted by the
    // datapath (full merge), the aging scan (degraded) or the relay
    // path (bypass) — clients cannot invent completions.
    std::uint64_t client_calls = 0;
    for (int w = 0; w < cluster_.num_workers(); ++w) {
      if (netrpc::RpcClient* c = jobs_->tenant_rpc_client(int(tenant), w)) {
        client_calls += c->calls_completed();
      }
    }
    if (client_calls > completed + degraded + relayed) {
      std::ostringstream os;
      os << "tenant " << int(tenant) << ": clients completed "
         << client_calls << " calls but the PFE only emitted "
         << completed << " full + " << degraded << " degraded + "
         << relayed << " relayed";
      report("netrpc-accounting", os.str());
    }
  }
}

void InvariantEngine::check_quiescent() {
  check_conservation_quiescent();
  check_slab_accounting();
  check_no_stuck_threads();
  check_worker_quiescence();
  check_netrpc_accounting();
}

}  // namespace vigil
