#include "placement/online_heuristic.h"

#include <gtest/gtest.h>

#include <vector>

#include "reference.h"
#include "solver/sd_solver.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::placement {
namespace {

using cluster::Request;
using cluster::Topology;
using util::IntMatrix;

TEST(OnlineHeuristic, SingleNodeWholeRequestIsZeroDistance) {
  const Topology topo = Topology::uniform(2, 2);
  IntMatrix remaining{{5, 5}, {1, 1}, {9, 9}, {0, 0}};
  OnlineHeuristic h;
  const auto placed = h.place(Request({3, 2}), remaining, topo);
  ASSERT_TRUE(placed.has_value());
  EXPECT_DOUBLE_EQ(placed->distance, 0.0);
  EXPECT_EQ(placed->allocation.used_nodes().size(), 1u);
}

// Lines 9-14's whole-node shortcut reports Definition 1 of its one-node
// allocation, ΣR · same_node, whatever the same-node tier.
TEST(OnlineHeuristic, WholeNodeShortcutReportsDefinitionOneDistance) {
  cluster::DistanceConfig tiers;
  tiers.same_node = 0.1;
  tiers.same_rack = 0.7;
  tiers.cross_rack = 1.3;
  tiers.cross_cloud = 2.9;
  const Topology topo = Topology::multi_cloud(2, 2, 1, tiers);
  IntMatrix remaining{{1, 1}, {5, 5}, {9, 9}, {0, 0}};
  const auto placed = OnlineHeuristic().place(Request({3, 2}), remaining, topo);
  ASSERT_TRUE(placed.has_value());
  ASSERT_EQ(placed->allocation.used_nodes().size(), 1u);
  const cluster::CentralNode best = placed->allocation.best_central(topo);
  EXPECT_EQ(placed->central, 1u);
  EXPECT_EQ(placed->central, best.node);
  EXPECT_EQ(placed->distance, best.distance);  // bit for bit
  EXPECT_DOUBLE_EQ(placed->distance, 5 * 0.1);
}

TEST(OnlineHeuristic, RejectsWhenAvailabilityShort) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{1, 0}, {1, 0}};
  OnlineHeuristic h;
  EXPECT_EQ(h.place(Request({1, 1}), remaining, topo), std::nullopt);
}

TEST(OnlineHeuristic, FillsRackBeforeCrossRack) {
  const Topology topo = Topology::uniform(2, 2);
  // Every node offers 2 slots; a 4-VM request needs two nodes, and the
  // heuristic must pick two nodes of the SAME rack (distance 2*d1 = 2)
  // rather than straddling racks (distance >= d2 = 2... exactly 2+... = 4).
  IntMatrix remaining{{2}, {2}, {2}, {2}};
  OnlineHeuristic h;
  const auto placed = h.place(Request({4}), remaining, topo);
  ASSERT_TRUE(placed.has_value());
  EXPECT_DOUBLE_EQ(placed->distance, 2.0);
  const auto used = placed->allocation.used_nodes();
  ASSERT_EQ(used.size(), 2u);
  EXPECT_TRUE(topo.same_rack(used[0], used[1]));
}

TEST(OnlineHeuristic, AllocationSatisfiesAndFits) {
  const Topology topo = Topology::uniform(3, 10);
  util::Rng rng(5);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const Request r = workload::random_request(catalog, rng, 0, 6, 0);
  OnlineHeuristic h;
  const auto placed = h.place(r, remaining, topo);
  ASSERT_TRUE(placed.has_value());
  EXPECT_TRUE(placed->allocation.satisfies(r));
  EXPECT_TRUE(placed->allocation.fits(remaining));
}

TEST(OnlineHeuristic, ReportedDistanceMatchesCentral) {
  const Topology topo = Topology::uniform(2, 3);
  IntMatrix remaining{{1, 1}, {2, 0}, {0, 1}, {1, 1}, {1, 0}, {0, 2}};
  OnlineHeuristic h;
  const auto placed = h.place(Request({3, 2}), remaining, topo);
  ASSERT_TRUE(placed.has_value());
  EXPECT_DOUBLE_EQ(
      placed->allocation.distance_from(placed->central, topo.distance_matrix()),
      placed->distance);
}

TEST(OnlineHeuristic, FirstImprovementModeStillFeasible) {
  const Topology topo = Topology::uniform(2, 3);
  IntMatrix remaining{{1, 1}, {2, 0}, {0, 1}, {1, 1}, {1, 0}, {0, 2}};
  OnlineHeuristic first(OnlineHeuristic::Mode::kFirstImprovement);
  OnlineHeuristic best(OnlineHeuristic::Mode::kBestOfAllStarts);
  const Request r({3, 2});
  const auto pf = first.place(r, remaining, topo);
  const auto pb = best.place(r, remaining, topo);
  ASSERT_TRUE(pf.has_value());
  ASSERT_TRUE(pb.has_value());
  EXPECT_TRUE(pf->allocation.satisfies(r));
  // Best-of-all-starts can never be worse than first-improvement.
  EXPECT_LE(pb->distance, pf->distance + 1e-9);
}

TEST(OnlineHeuristic, FillFromCentralPartialWhenInfeasible) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{1}, {1}};
  EXPECT_EQ(OnlineHeuristic::fill_from_central(Request({3}), remaining, topo, 0),
            std::nullopt);
}

// Theorem 1 of the paper, verified numerically: moving one VM from a node
// farther from the central node to a nearer node reduces the distance by
// exactly D(x,q) - D(x,p).
TEST(OnlineHeuristic, TheoremOneExchangeImproves) {
  const Topology topo = Topology::uniform(2, 2);
  const auto& d = topo.distance_matrix();
  cluster::Allocation c2(4, 1);
  c2.at(0, 0) = 2;  // central x = 0
  c2.at(2, 0) = 1;  // cross-rack node q
  cluster::Allocation c1 = c2;
  c1.at(2, 0) -= 1;
  c1.at(1, 0) += 1;  // moved to rack-mate p
  const double dc1 = c1.distance_from(0, d);
  const double dc2 = c2.distance_from(0, d);
  EXPECT_DOUBLE_EQ(dc1 - dc2, d(0, 1) - d(0, 2));
  EXPECT_LT(dc1, dc2);
}

// Three clouds of two racks: requests too big for one rack make the fills
// cross both off-rack tiers (the central's cloud, then the other clouds),
// and every fill must match the dense-D reference exactly.
TEST(OnlineHeuristic, MultiCloudFillMatchesDenseReference) {
  const Topology topo = Topology::multi_cloud(3, 2, 4);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  std::size_t cross_cloud_fills = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    util::Rng rng(seed);
    const IntMatrix remaining =
        workload::random_inventory(topo, catalog, rng, 0, 2);
    const Request r = workload::random_request(catalog, rng, 4, 9, seed);
    const util::DoubleMatrix d = topo.distance_matrix();
    for (std::size_t x = 0; x < topo.node_count(); ++x) {
      const auto got = OnlineHeuristic::fill_from_central(r, remaining, topo, x);
      const auto want = reference::reference_fill(r, remaining, topo, d, x);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed=" << seed << " central=" << x;
      if (!got) continue;
      EXPECT_EQ(*got, *want) << "seed=" << seed << " central=" << x;
      bool same_cloud = false;
      bool other_cloud = false;
      for (std::size_t i : got->used_nodes()) {
        if (topo.same_rack(i, x)) continue;
        (topo.same_cloud(i, x) ? same_cloud : other_cloud) = true;
      }
      if (same_cloud && other_cloud) ++cross_cloud_fills;
    }
  }
  EXPECT_GT(cross_cloud_fills, 0u) << "no fill crossed both off-rack tiers";
}

// Property sweep: the heuristic is never better than the exact optimum and
// must stay within a modest factor of it on the paper's cloud shape.
class HeuristicVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeuristicVsExact, BoundedAboveByExactBelowByNothing) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const Request r = workload::random_request(catalog, rng, 0, 6, 0);

  const solver::SdResult exact =
      solver::solve_sd_exact(r, remaining, topo.distance_matrix());
  OnlineHeuristic h;
  const auto placed = h.place(r, remaining, topo);
  ASSERT_EQ(exact.feasible, placed.has_value());
  if (!exact.feasible) return;
  EXPECT_GE(placed->distance, exact.distance - 1e-9) << "seed=" << GetParam();
  EXPECT_TRUE(placed->allocation.satisfies(r));
  EXPECT_TRUE(placed->allocation.fits(remaining));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicVsExact,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace vcopt::placement
