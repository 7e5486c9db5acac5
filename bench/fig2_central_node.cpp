// Fig. 2 of the paper: for twenty random requests on the 3-rack x 10-node
// cloud, the distance of the virtual cluster built by the online heuristic
// (with its chosen best central node) versus the SAME allocation evaluated
// from a randomly chosen central node.  The gap shows that central-node
// selection matters as much as the cluster's layout.
#include <iostream>

#include "bench_common.h"
#include "placement/online_heuristic.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Fig. 2", "Heuristic vs random central node distance", seed);

  const workload::SimScenario sc = workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  util::Rng rng(seed ^ 0xfeedULL);
  util::IntMatrix remaining = sc.capacity;  // start from an empty cloud
  placement::OnlineHeuristic heuristic;

  util::TableWriter t({"Request", "VMs", "Heuristic distance",
                       "Random-central distance", "Inflation"});
  double h_sum = 0, r_sum = 0;
  for (const cluster::Request& r : sc.requests) {
    const auto placed = heuristic.place(r, remaining, sc.topology);
    if (!placed) {
      t.row().cell(r.describe()).cell(r.total_vms()).cell("queued").cell("-").cell("-");
      continue;
    }
    remaining -= placed->allocation.to_matrix();
    const std::size_t random_central = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sc.topology.node_count()) - 1));
    const double random_distance =
        placed->allocation.distance_from(random_central, sc.topology);
    h_sum += placed->distance;
    r_sum += random_distance;
    t.row()
        .cell(r.describe())
        .cell(r.total_vms())
        .cell(placed->distance, 1)
        .cell(random_distance, 1)
        .cell(placed->distance > 0
                  ? util::format_double(random_distance / placed->distance, 2) + "x"
                  : "inf");
  }
  t.print(std::cout);
  std::cout << "\nSum of distances: heuristic=" << h_sum
            << "  random-central=" << r_sum << "  ("
            << util::format_double(h_sum > 0 ? r_sum / h_sum : 0, 2)
            << "x inflation from random central choice)\n";
  return 0;
}
