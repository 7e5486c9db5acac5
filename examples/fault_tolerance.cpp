// Fault tolerance end to end: a virtual cluster is placed with Algorithm 1,
// a node hosting part of it crashes mid-lease, the RecoveryManager re-places
// the lost VMs near the original central node, and a MapReduce job run on
// the repaired cluster re-executes the work the crash destroyed.  Shows the
// whole self-healing story of docs/robustness.md in one narrated run:
//
//   1. provision -> note the central node and DC
//   2. crash the busiest node -> lease shrinks, repair re-places the VMs
//   3. compare DC before/after repair (the affinity penalty of the failure)
//   4. run the same failure through the MapReduce engine: maps re-execute,
//      a replacement VM joins mid-job, shuffle is costed on the repaired
//      topology
//   5. replay a churn trace under a seeded fault profile -> deterministic
//      fault/repair summary
#include <iostream>
#include <memory>

#include "fault/fault_sim.h"
#include "mapreduce/engine.h"
#include "placement/online_heuristic.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/scenario.h"

using namespace vcopt;

int main() {
  const std::uint64_t seed = 7;

  // --- 1. Provision a virtual cluster on the paper's small cloud. ---------
  workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kSmall);
  cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
  sim::EventQueue queue;
  fault::RecoveryManager recovery(cloud, queue, seed);
  placement::Provisioner prov(cloud,
                              std::make_unique<placement::OnlineHeuristic>());

  const cluster::Request request({2, 3, 1}, /*id=*/1);
  const auto grant = prov.request(request);
  if (!grant) {
    std::cerr << "provisioning failed\n";
    return 1;
  }
  recovery.track(*grant);
  std::cout << "provisioned " << request.describe() << ": central N"
            << grant->placement.central << ", DC="
            << grant->placement.distance << "\n";

  // --- 2. Crash the node hosting the most VMs of the lease. ---------------
  const cluster::Allocation& alloc = cloud.lease_allocation(grant->lease);
  std::size_t victim = 0;
  for (std::size_t i = 1; i < alloc.node_count(); ++i) {
    if (alloc.vms_on_node(i) > alloc.vms_on_node(victim)) victim = i;
  }
  std::cout << "crashing N" << victim << " (hosts "
            << alloc.vms_on_node(victim) << " of the lease's VMs)\n";
  recovery.on_node_failed(victim);
  queue.run();  // repair attempts execute on the event clock

  for (const fault::RepairRecord& r : recovery.records()) {
    std::cout << "repair: " << placement::to_string(r.status) << " after "
              << r.attempts << " attempt(s), " << r.vms_lost << " VMs lost, "
              << r.vms_replaced << " replaced, DC "
              << util::format_double(r.distance_before, 1) << " -> "
              << util::format_double(r.distance_after, 1)
              << (r.restricted_scan_used ? " (restricted scan)"
                                         : " (full scan)")
              << "\n";
  }

  // --- 3. The same failure inside a MapReduce job. ------------------------
  // The job starts on the pre-failure cluster; at t=5s the victim node dies
  // (maps there re-execute, reducers relocate) and at t=6s a replacement VM
  // joins from the repaired lease.  final_cluster_distance reflects the
  // cluster the shuffle actually finished on.
  mapreduce::JobConfig job;
  job.input_bytes = 4e9;
  job.split_bytes = 256e6;
  job.num_reduces = 2;
  mapreduce::VirtualCluster vc =
      mapreduce::VirtualCluster::from_allocation(grant->placement.allocation);
  mapreduce::MapReduceEngine engine(sc.topology, sim::NetworkConfig{}, vc, job,
                                    seed);
  engine.fail_node_at(victim, 5.0);
  std::size_t replacement = 0;
  for (std::size_t i = 0; i < sc.topology.node_count(); ++i) {
    if (i != victim && !cloud.is_failed(i)) replacement = i;
  }
  engine.add_vms_at(6.0, {{replacement, 0}});
  const mapreduce::JobMetrics jm = engine.run();
  std::cout << "mapreduce: runtime " << util::format_double(jm.runtime, 1)
            << " s, " << jm.maps_reexecuted << " maps re-executed, "
            << jm.reducers_restarted << " reducers restarted, "
            << jm.vms_repaired << " VM joined; DC "
            << util::format_double(jm.cluster_distance, 1) << " -> "
            << util::format_double(jm.final_cluster_distance, 1) << "\n";

  // --- 4. A churn trace under a seeded fault profile. ---------------------
  const fault::FaultProfile profile =
      fault::FaultProfile::parse("heavy,seed=7");
  workload::SimScenario churn =
      workload::paper_sim_scenario(seed, workload::RequestScale::kSmall);
  cluster::Cloud churn_cloud(churn.topology, churn.catalog, churn.capacity);
  util::Rng rng(seed);
  const auto requests = workload::random_requests(churn.catalog, rng, 40, 0, 2);
  const auto trace = workload::poisson_trace(requests, rng, 3.0, 30.0);
  const fault::FaultSimResult res = fault::run_fault_sim(
      churn_cloud, std::make_unique<placement::OnlineHeuristic>(), trace,
      profile);
  std::cout << "fault sim (" << profile.describe() << "):\n"
            << "  served " << res.grants.size() << "/" << trace.size()
            << ", faults " << res.node_crashes << " crashes + "
            << res.rack_outages << " rack outages + " << res.transients
            << " transients\n"
            << "  repairs: " << res.repaired << " full, " << res.partial
            << " partial, " << res.degraded << " degraded, " << res.abandoned
            << " abandoned (" << res.vms_lost << " VMs lost, "
            << res.vms_replaced << " replaced)\n"
            << "  DC penalty " << util::format_double(
                   res.repair_distance_penalty, 1)
            << ", utilisation "
            << util::format_double(res.mean_utilization * 100, 1) << " %\n";
  return 0;
}
