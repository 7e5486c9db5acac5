// Data-centre scheduling scenario: a stream of virtual-cluster requests
// arrives at a shared cloud (Poisson arrivals, exponential hold times); we
// replay the identical trace under every placement policy and compare the
// affinity, waiting time and utilisation each achieves.
//
//   $ ./datacenter_scheduler [seed] [num_requests]
//
// This is the operational setting of the paper's §III.C: the provisioner
// queues requests it cannot serve and drains the queue on each release.
#include <cstdlib>
#include <iostream>

#include "fault/fault_sim.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const std::size_t num_requests =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200;

  std::cout << "Replaying " << num_requests
            << " virtual-cluster requests (seed " << seed
            << ") under each placement policy\n\n";

  // Build one shared trace so every policy faces the same workload.
  const workload::SimScenario sc = workload::paper_sim_scenario(seed);
  util::Rng rng(seed ^ 0xabcdULL);
  const auto requests = workload::random_requests(
      sc.catalog, rng, num_requests, 0, 4);
  const auto trace = workload::poisson_trace(requests, rng,
                                             /*mean_interarrival=*/3.0,
                                             /*mean_hold=*/25.0);

  util::TableWriter t({"Policy", "Served", "Mean DC", "Total DC", "Mean wait (s)",
                       "Utilisation (%)"});
  for (const char* policy : {"online-heuristic", "sd-exact", "first-fit",
                             "spread", "random:7"}) {
    // A fresh cloud per policy: identical capacity, no residue.
    cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
    const fault::FaultSimResult res =
        fault::run_fault_sim(cloud, placement::make_policy(policy), trace);
    const double mean_dc =
        res.grants.empty() ? 0
                           : res.total_distance / double(res.grants.size());
    t.row()
        .cell(policy)
        .cell(std::to_string(res.grants.size()) + "/" +
              std::to_string(trace.size()))
        .cell(mean_dc, 2)
        .cell(res.total_distance, 1)
        .cell(res.mean_wait, 2)
        .cell(res.mean_utilization * 100, 1);
  }
  t.print(std::cout);
  std::cout << "\nLower DC = tighter virtual clusters = less shuffle traffic\n"
               "for the MapReduce jobs that will run on them.  The heuristic\n"
               "should track sd-exact closely and beat first-fit/spread/random.\n";
  return 0;
}
