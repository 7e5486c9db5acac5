// Capacity-planning scenario: a provider sizing question — how much cloud
// does a given tenant load need before waiting times collapse?  The same
// request trace replays against progressively larger clouds (scaled
// per-node inventories); the table shows the classic knee where queueing
// disappears, plus the affinity cost of running hot.
//
//   $ ./capacity_planning [seed] [requests]
#include <cstdlib>
#include <iostream>

#include "fault/fault_sim.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const std::size_t n_requests =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 300;

  const workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  util::Rng rng(seed ^ 0xcafeULL);
  const auto requests =
      workload::random_requests(sc.catalog, rng, n_requests, 0, 4);
  const auto trace = workload::poisson_trace(requests, rng,
                                             /*mean_interarrival=*/1.5,
                                             /*mean_hold=*/40.0);

  std::cout << "Sizing a 3-rack cloud for " << n_requests
            << " tenants (Poisson arrivals, mean hold 40 s).\n"
            << "Per-node inventory scaled by the factor in column 1.\n\n";

  util::TableWriter t({"Capacity scale", "Total VMs", "Served", "Mean wait (s)",
                       "P95 wait (s)", "Mean DC", "Utilisation (%)"});
  for (const int scale : {1, 2, 3, 4, 6}) {
    util::IntMatrix capacity = sc.capacity;
    for (std::size_t i = 0; i < capacity.rows(); ++i) {
      for (std::size_t j = 0; j < capacity.cols(); ++j) {
        capacity(i, j) *= scale;
      }
    }
    cluster::Cloud cloud(sc.topology, sc.catalog, capacity);
    const fault::FaultSimResult res = fault::run_fault_sim(
        cloud, placement::make_policy("online-heuristic"), trace);
    util::Samples waits;
    double dc_sum = 0;
    for (const sim::GrantRecord& g : res.grants) {
      waits.add(g.wait());
      dc_sum += g.distance;
    }
    t.row()
        .cell(scale)
        .cell(capacity.total())
        .cell(std::to_string(res.grants.size()) + "/" +
              std::to_string(trace.size()))
        .cell(waits.count() ? waits.mean() : 0, 2)
        .cell(waits.count() ? waits.percentile(95) : 0, 2)
        .cell(res.grants.empty() ? 0 : dc_sum / double(res.grants.size()), 2)
        .cell(res.mean_utilization * 100, 1);
  }
  t.print(std::cout);
  std::cout << "\nReading the knee: once capacity clears the offered load,\n"
               "waits vanish — and mean cluster distance falls too, because\n"
               "an uncontended cloud lets the heuristic pack every tenant\n"
               "tightly.  Running hot costs both wait time AND affinity.\n";
  return 0;
}
