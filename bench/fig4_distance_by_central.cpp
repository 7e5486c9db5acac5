// Fig. 4 of the paper: for one fixed virtual cluster, the distance obtained
// under every possible choice of central node.  MapReduce-like frameworks
// are master/slave, so the master (central node) choice shifts the distance
// substantially even for a fixed set of VMs.
#include <iostream>

#include "bench_common.h"
#include "placement/online_heuristic.h"
#include "util/table.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Fig. 4", "Distance as a function of the central node", seed);

  const workload::SimScenario sc = workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  placement::OnlineHeuristic heuristic;
  const cluster::Request& r = sc.requests.front();
  const auto placed = heuristic.place(r, sc.capacity, sc.topology);
  if (!placed) {
    std::cout << "request " << r.describe() << " infeasible on empty cloud\n";
    return 1;
  }
  std::cout << "Virtual cluster for " << r.describe() << ": "
            << placed->allocation.describe() << "\n\n";

  util::TableWriter t({"Central node", "Rack", "Distance", ""});
  double best = 1e300, worst = 0;
  for (std::size_t k = 0; k < sc.topology.node_count(); ++k) {
    const double d = placed->allocation.distance_from(k, sc.topology);
    best = std::min(best, d);
    worst = std::max(worst, d);
    t.row()
        .cell("N" + std::to_string(k))
        .cell("R" + std::to_string(sc.topology.rack_of(k)))
        .cell(d, 1)
        .cell(k == placed->central ? "<- chosen" : "");
  }
  t.print(std::cout);
  std::cout << "\nBest " << best << " vs worst " << worst << " ("
            << util::format_double(best > 0 ? worst / best : 0, 2)
            << "x spread across central-node choices)\n";
  return 0;
}
