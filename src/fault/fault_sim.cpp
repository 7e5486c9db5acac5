#include "fault/fault_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>

#include "check/check.h"
#include "cluster/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace vcopt::fault {

namespace {

// Distributions are over SIMULATED seconds (the trace clock, not wall time).
void record_sim_metrics(const FaultSimResult& res) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  static obs::Counter& runs = reg.counter("sim/runs");
  static obs::HistogramMetric& wait = reg.histogram(
      "sim/wait_seconds",
      obs::MetricsRegistry::exponential_buckets(0.5, 2.0, 14));
  static obs::HistogramMetric& hold = reg.histogram(
      "sim/hold_seconds",
      obs::MetricsRegistry::exponential_buckets(0.5, 2.0, 14));
  static obs::Gauge& utilization = reg.gauge("sim/mean_utilization");
  runs.add();
  for (const sim::GrantRecord& g : res.grants) {
    wait.observe(g.wait());
    hold.observe(g.released - g.granted);
  }
  utilization.set(res.mean_utilization);
}

}  // namespace

FaultSimResult run_fault_sim(cluster::Cloud& cloud,
                             std::unique_ptr<placement::PlacementPolicy> policy,
                             const std::vector<cluster::TimedRequest>& trace,
                             const FaultProfile& profile,
                             const FaultSimOptions& options) {
  VCOPT_TRACE_SPAN("fault/fault_sim");
  placement::Provisioner prov(cloud, std::move(policy), options.discipline);
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, profile.seed);

  std::map<std::uint64_t, double> hold_time;
  std::map<std::uint64_t, double> arrival;
  std::map<cluster::LeaseId, std::size_t> lease_grant;
  std::vector<sim::GrantRecord> grants;
  FaultSimResult out;

  for (const cluster::TimedRequest& tr : trace) {
    if (!std::isfinite(tr.arrival_time) || !std::isfinite(tr.hold_time) ||
        tr.arrival_time < 0 || tr.hold_time < 0) {
      throw std::invalid_argument(
          "run_fault_sim: negative or non-finite time in trace");
    }
    if (!hold_time.emplace(tr.request.id(), tr.hold_time).second) {
      throw std::invalid_argument("run_fault_sim: duplicate request id");
    }
    arrival[tr.request.id()] = tr.arrival_time;
  }

  // Resolve horizon 0 to the trace's natural window so fault instants land
  // while clusters are actually running.
  FaultProfile effective = profile;
  if (effective.horizon <= 0) {
    double end = 0;
    for (const cluster::TimedRequest& tr : trace) {
      end = std::max(end, tr.arrival_time + tr.hold_time);
    }
    effective.horizon = end > 0 ? end : 1.0;
  }
  FaultInjector injector(effective, cloud.topology());
  out.schedule = injector.schedule();

  // Utilisation integral.  Repairs shrink and grow leases between grant and
  // release, so the allocated-VM count is re-read from the inventory's
  // running total (O(1)) after every mutation instead of being tracked by
  // hand.
  double vm_seconds = 0;
  double last_sample = 0;
  int allocated_vms = 0;
  std::vector<sim::TimelineSample> timeline;
  auto sample = [&] {
    VCOPT_DCHECK(queue.now() >= last_sample)
        << " utilisation sample went backwards: " << last_sample << " -> "
        << queue.now();
    vm_seconds += allocated_vms * (queue.now() - last_sample);
    last_sample = queue.now();
  };
  auto resync = [&] { allocated_vms = cloud.inventory().allocated_total(); };
  std::unique_ptr<cluster::ClusterSampler> sampler;
  if (options.recorder != nullptr) {
    cluster::ClusterSamplerOptions so;
    so.period = options.sample_period;
    sampler = std::make_unique<cluster::ClusterSampler>(cloud, *options.recorder,
                                                        so);
  }
  if (options.slo != nullptr &&
      !options.slo->declared("fault/repair_success")) {
    obs::SloSpec spec;
    spec.name = "fault/repair_success";
    spec.description = "lease repairs ending fully repaired";
    spec.objective = 0.25;
    options.slo->declare(spec);
  }
  auto record_timeline = [&] {
    timeline.push_back(sim::TimelineSample{queue.now(), allocated_vms,
                                           prov.queue_length(),
                                           cloud.lease_count()});
    if (sampler) sampler->maybe_sample(queue.now());
  };

  std::function<void(cluster::LeaseId)> handle_release;

  auto record_grant = [&](const placement::Grant& g) {
    sample();
    sim::GrantRecord rec;
    rec.request_id = g.request_id;
    rec.arrival = arrival.at(g.request_id);
    rec.granted = queue.now();
    rec.distance = g.placement.distance;
    rec.central = g.placement.central;
    rec.vms = g.placement.allocation.total_vms();
    resync();
    lease_grant[g.lease] = grants.size();
    grants.push_back(rec);
    recovery.track(g);
    record_timeline();
    const cluster::LeaseId lease = g.lease;
    queue.schedule_in(hold_time.at(g.request_id),
                      [&, lease] { handle_release(lease); });
  };

  handle_release = [&](cluster::LeaseId lease) {
    if (!cloud.has_lease(lease)) return;  // repair abandoned it earlier
    sample();
    prov.set_now(queue.now());  // queue_wait_time spans enqueue -> this drain
    grants[lease_grant.at(lease)].released = queue.now();
    recovery.untrack(lease);
    std::vector<placement::Grant> drained = prov.release(lease);
    resync();
    record_timeline();
    for (const placement::Grant& g : drained) record_grant(g);
  };

  // An abandoned repair releases through the provisioner so the wait queue
  // drains exactly as a normal release would.
  recovery.set_release_hook([&](cluster::LeaseId lease) {
    prov.set_now(queue.now());
    for (const placement::Grant& g : prov.release(lease)) record_grant(g);
  });
  recovery.set_repair_hook([&](const RepairRecord& r) {
    sample();
    resync();
    record_timeline();
    if (options.slo != nullptr) {
      options.slo->record_event(
          "fault/repair_success", r.completed_at,
          r.status == placement::PlacementStatus::kRepaired);
    }
    if (r.status == placement::PlacementStatus::kAbandoned) {
      const auto it = lease_grant.find(r.lease);
      if (it != lease_grant.end()) grants[it->second].released = r.completed_at;
    }
  });

  injector.arm(queue, [&](const FaultEvent& e) {
    sample();
    switch (e.kind) {
      case FaultKind::kNodeCrash:
        ++out.node_crashes;
        recovery.on_node_failed(e.subject);
        break;
      case FaultKind::kNodeRecover:
        if (cloud.is_failed(e.subject)) {
          ++out.node_recoveries;
          recovery.on_node_recovered(e.subject);
        }
        break;
      case FaultKind::kRackOutage:
        ++out.rack_outages;
        for (const std::size_t n : cloud.topology().nodes_in_rack(e.subject)) {
          recovery.on_node_failed(n);
        }
        break;
      case FaultKind::kRackRecover:
        for (const std::size_t n : cloud.topology().nodes_in_rack(e.subject)) {
          if (cloud.is_failed(n)) {
            ++out.node_recoveries;
            recovery.on_node_recovered(n);
          }
        }
        break;
      case FaultKind::kDegrade:
        ++out.transients;
        if (!cloud.is_drained(e.subject)) cloud.drain_node(e.subject);
        break;
      case FaultKind::kRestore:
        if (cloud.is_drained(e.subject)) cloud.undrain_node(e.subject);
        break;
    }
    resync();
    record_timeline();
  });

  for (const cluster::TimedRequest& tr : trace) {
    queue.schedule(tr.arrival_time, [&, tr] {
      prov.set_now(queue.now());
      auto grant = prov.request(tr.request);
      if (grant) record_grant(*grant);
      else record_timeline();
    });
  }

  if (options.attach) options.attach(queue, effective.horizon);

  queue.run();
  sample();

  out.grants = std::move(grants);
  out.rejected = prov.rejected_count();
  out.unserved = prov.queue_length();
  out.makespan = queue.now();
  double wait_sum = 0;
  for (const sim::GrantRecord& g : out.grants) {
    out.total_distance += g.distance;
    wait_sum += g.wait();
  }
  out.mean_wait = out.grants.empty()
                      ? 0
                      : wait_sum / static_cast<double>(out.grants.size());
  const int capacity = cloud.inventory().capacity_total();
  out.mean_utilization =
      (out.makespan > 0 && capacity > 0)
          ? vm_seconds / (out.makespan * static_cast<double>(capacity))
          : 0;
  out.timeline = std::move(timeline);

  out.repairs = recovery.records();
  out.leases_hit = static_cast<int>(out.repairs.size());
  for (const RepairRecord& r : out.repairs) {
    out.vms_lost += r.vms_lost;
    out.vms_replaced += r.vms_replaced;
    switch (r.status) {
      case placement::PlacementStatus::kRepaired: ++out.repaired; break;
      case placement::PlacementStatus::kPartial: ++out.partial; break;
      case placement::PlacementStatus::kDegraded: ++out.degraded; break;
      default: ++out.abandoned; break;
    }
    if (r.status != placement::PlacementStatus::kAbandoned) {
      out.repair_distance_penalty += r.distance_after - r.distance_before;
    }
  }
  // Every injected failure must end in an explicit terminal status: nothing
  // may still be "pending repair" once the event queue drains.
  VCOPT_INVARIANT(recovery.pending_count() == 0)
      << " fault sim drained with " << recovery.pending_count()
      << " repairs still pending";
  record_sim_metrics(out);
  return out;
}

}  // namespace vcopt::fault
