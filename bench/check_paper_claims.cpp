// Reproduction gate: programmatically verifies the paper's headline claims
// against the library, exiting non-zero if any regresses.  Run it in CI to
// keep the reproduction honest while the code evolves.
//
//   C1 (Fig. 1):  the worked example's candidate distances match the
//                 paper's closed forms (2d1+d2, 2d1+d2, 2d2, d1+2d2).
//   C2 (Fig. 2):  random central-node choice inflates the distance of the
//                 heuristic's clusters substantially (>= 1.5x summed).
//   C3 (Fig. 4):  for a fixed cluster, central-node choice spreads the
//                 distance by >= 3x between best and worst.
//   C4 (Fig. 5/6): the global sub-optimisation is never worse than online,
//                 and helps small requests more than big ones (means over
//                 25 seeds; paper: 2 % vs 12 %).
//   C5 (Fig. 7):  WordCount runtime rises with cluster distance across the
//                 compact -> scattered extremes, and the paper's anomaly
//                 appears: the sparse distance-7 cluster is slower than the
//                 packed distance-8 cluster.
//   C6 (Fig. 8):  the anomaly is explained by locality: the packed cluster
//                 has fewer non-data-local maps and less non-local shuffle.
//   C7 (opt):     the exact SD solver is optimal (spot-check vs ILP).
#include <cstdlib>
#include <iostream>

#include "fig56_common.h"
#include "fig78_common.h"
#include "mapreduce/apps.h"
#include "placement/online_heuristic.h"
#include "solver/sd_solver.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace {

int failures = 0;

void check_claim(bool ok, const std::string& claim) {
  std::cout << (ok ? "[PASS] " : "[FAIL] ") << claim << "\n";
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace vcopt;
  std::cout << "vcopt reproduction gate (Yan et al., CLUSTER 2012)\n"
            << "==================================================\n";

  // --- C1: Fig. 1 closed forms. ---
  {
    const cluster::Topology topo = cluster::Topology::uniform(2, 2);
    const double d1 = 1, d2 = 2;
    cluster::Allocation dc1(util::IntMatrix{{2, 2, 0}, {0, 2, 0}, {0, 0, 1}, {0, 0, 0}});
    cluster::Allocation dc3(util::IntMatrix{{2, 2, 1}, {0, 0, 0}, {0, 2, 0}, {0, 0, 0}});
    cluster::Allocation dc4(util::IntMatrix{{2, 1, 1}, {0, 1, 0}, {0, 2, 0}, {0, 0, 0}});
    check_claim(dc1.best_central(topo).distance == 2 * d1 + d2 &&
              dc3.best_central(topo).distance == 2 * d2 &&
              dc4.best_central(topo).distance == d1 + 2 * d2,
          "C1: Fig. 1 candidate distances match 2d1+d2 / 2d2 / d1+2d2");
  }

  // --- C2: random central inflation. ---
  {
    const workload::SimScenario sc =
        workload::paper_sim_scenario(2, workload::RequestScale::kMedium);
    util::Rng rng(99);
    util::IntMatrix remaining = sc.capacity;
    placement::OnlineHeuristic h;
    double best_sum = 0, rand_sum = 0;
    for (const cluster::Request& r : sc.requests) {
      const auto placed = h.place(r, remaining, sc.topology);
      if (!placed) continue;
      remaining -= placed->allocation.to_matrix();
      best_sum += placed->distance;
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sc.topology.node_count()) - 1));
      rand_sum += placed->allocation.distance_from(k, sc.topology);
    }
    check_claim(best_sum > 0 && rand_sum >= 1.5 * best_sum,
          "C2: random central choice inflates summed distance >= 1.5x");
  }

  // --- C3: central-node spread for one cluster. ---
  {
    const workload::SimScenario sc =
        workload::paper_sim_scenario(2, workload::RequestScale::kMedium);
    placement::OnlineHeuristic h;
    const auto placed = h.place(sc.requests.front(), sc.capacity, sc.topology);
    double lo = 1e300, hi = 0;
    for (std::size_t k = 0; k < sc.topology.node_count(); ++k) {
      const double dd = placed->allocation.distance_from(k, sc.topology);
      lo = std::min(lo, dd);
      hi = std::max(hi, dd);
    }
    check_claim(placed.has_value() && lo > 0 && hi / lo >= 3.0,
          "C3: central-node choice spreads one cluster's distance >= 3x");
  }

  // --- C4: global vs online, scenario ordering. ---
  {
    auto mean_saving = [](workload::RequestScale scale) {
      double sum = 0;
      int n = 0;
      placement::GlobalSubOpt::Options no_t;
      no_t.apply_transfers = false;
      for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const workload::SimScenario sc = workload::paper_sim_scenario(seed, scale);
        placement::GlobalSubOpt online(no_t), global;
        const auto a = online.place_batch(sc.requests, sc.capacity, sc.topology);
        const auto b = global.place_batch(sc.requests, sc.capacity, sc.topology);
        if (b.total_distance > a.total_distance + 1e-9) return -1.0;  // regression
        if (a.total_distance <= 0) continue;
        sum += (a.total_distance - b.total_distance) / a.total_distance;
        ++n;
      }
      return n ? sum / n : 0.0;
    };
    const double big = mean_saving(workload::RequestScale::kBig);
    const double small = mean_saving(workload::RequestScale::kSmall);
    check_claim(big >= 0 && small >= 0,
          "C4a: Theorem-2 transfers never increase total distance");
    check_claim(small > big,
          "C4b: global sub-optimisation helps small requests more (paper: "
          "12 % vs 2 %)");
  }

  // --- C5 + C6: Fig. 7 runtime shape with the locality anomaly. ---
  {
    const auto rows = bench::run_fig78(2, /*trials=*/9);
    // rows: packed-pair(4), rack-sparse(7), cross-rack-packed(8),
    //       three-rack-sparse(12)
    check_claim(rows[0].runtime_mean < rows[2].runtime_mean &&
              rows[2].runtime_mean < rows[3].runtime_mean,
          "C5a: runtime rises with distance (4 -> 8 -> 12)");
    check_claim(rows[1].runtime_mean > rows[2].runtime_mean,
          "C5b: the anomaly — sparse distance-7 slower than packed distance-8");
    check_claim(rows[1].non_local_maps >= rows[2].non_local_maps &&
              rows[1].non_local_shuffle > rows[2].non_local_shuffle,
          "C6: locality explains it — packed cluster is more local");
  }

  // --- C7: exact SD optimality spot-check. ---
  {
    util::Rng rng(7);
    const cluster::Topology topo = cluster::Topology::uniform(2, 3);
    const cluster::VmCatalog cat = cluster::VmCatalog::ec2_default();
    const util::DoubleMatrix dist = topo.distance_matrix();
    bool all = true;
    for (int t = 0; t < 5; ++t) {
      const auto L = workload::random_inventory(topo, cat, rng, 0, 3);
      const auto r = workload::random_request(cat, rng, 0, 3, 0);
      const auto exact = solver::solve_sd_exact(r, L, dist);
      const auto ilp = solver::solve_sd_ilp(r, L, dist);
      if (exact.feasible != ilp.feasible) all = false;
      if (exact.feasible && std::abs(exact.distance - ilp.distance) > 1e-6) {
        all = false;
      }
    }
    check_claim(all, "C7: polynomial exact SD solver matches the ILP optimum");
  }

  std::cout << "==================================================\n"
            << (failures == 0 ? "ALL CLAIMS REPRODUCED"
                              : std::to_string(failures) + " CLAIM(S) FAILED")
            << "\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
