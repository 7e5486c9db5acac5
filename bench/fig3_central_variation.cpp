// Fig. 3 of the paper: which central node the optimiser settles on for each
// of the twenty requests — showing the central node varies per request with
// the inventory state (no single node is universally central).
#include <iostream>
#include <set>

#include "bench_common.h"
#include "placement/online_heuristic.h"
#include "util/table.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Fig. 3", "Central-node variation across requests", seed);

  const workload::SimScenario sc = workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  util::IntMatrix remaining = sc.capacity;
  placement::OnlineHeuristic heuristic;

  util::TableWriter t({"Request", "VMs", "Central node", "Rack", "Distance"});
  std::set<std::size_t> distinct;
  std::size_t served = 0;
  for (const cluster::Request& r : sc.requests) {
    const auto placed = heuristic.place(r, remaining, sc.topology);
    if (!placed) {
      t.row().cell(r.describe()).cell(r.total_vms()).cell("queued").cell("-").cell("-");
      continue;
    }
    remaining -= placed->allocation.to_matrix();
    distinct.insert(placed->central);
    ++served;
    t.row()
        .cell(r.describe())
        .cell(r.total_vms())
        .cell("N" + std::to_string(placed->central))
        .cell("R" + std::to_string(sc.topology.rack_of(placed->central)))
        .cell(placed->distance, 1);
  }
  t.print(std::cout);
  std::cout << "\n" << distinct.size() << " distinct central nodes across "
            << served << " served requests\n";
  return 0;
}
