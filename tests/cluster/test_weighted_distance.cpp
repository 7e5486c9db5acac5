#include <gtest/gtest.h>

#include "cluster/allocation.h"
#include "cluster/topology.h"
#include "solver/sd_solver.h"

namespace vcopt::cluster {
namespace {

TEST(WeightedDistance, UnitWeightsMatchUnweighted) {
  const Topology topo = Topology::uniform(2, 2);
  Allocation a({{2, 1}, {0, 3}, {1, 0}, {0, 0}});
  const std::vector<double> unit = {1.0, 1.0};
  const util::DoubleMatrix d = topo.distance_matrix();
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(a.weighted_distance_from(k, d, unit),
                     a.distance_from(k, topo));
  }
}

TEST(WeightedDistance, HeavyTypeDominatesCentralChoice) {
  const Topology topo = Topology::uniform(2, 2);
  // Type 0 on node 0, type 1 on node 2 (cross rack).
  Allocation a(4, 2);
  a.at(0, 0) = 3;
  a.at(2, 1) = 1;
  // Uniform: central at node 0 (3 VMs there).
  EXPECT_EQ(a.best_central(topo).node, 0u);
  // Weight type 1 at 10x: the heavy VM's node beats node 0 as central.
  const util::DoubleMatrix d = topo.distance_matrix();
  const std::vector<double> heavy = {1.0, 10.0};
  EXPECT_LT(a.weighted_distance_from(2, d, heavy),
            a.weighted_distance_from(0, d, heavy));
}

TEST(WeightedDistance, Validation) {
  const Topology topo = Topology::uniform(1, 2);
  Allocation a(2, 2);
  EXPECT_THROW(a.weighted_distance_from(0, topo.distance_matrix(), {1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      a.weighted_distance_from(0, topo.distance_matrix(), {1.0, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      a.weighted_distance_from(5, topo.distance_matrix(), {1.0, 1.0}),
      std::out_of_range);
}

TEST(WeightedDistance, LinearInWeights) {
  const Topology topo = Topology::uniform(2, 2);
  Allocation a({{1, 2}, {2, 0}, {0, 1}, {1, 1}});
  const auto& d = topo.distance_matrix();
  const double base = a.weighted_distance_from(0, d, {1.0, 1.0});
  const double doubled = a.weighted_distance_from(0, d, {2.0, 2.0});
  EXPECT_DOUBLE_EQ(doubled, 2 * base);
}

TEST(WeightedSdSolver, SameAllocationPerCentralDifferentChoice) {
  const Topology topo = Topology::uniform(2, 2);
  // Type 0 hostable only in rack 0, type 1 only in rack 1 (symmetric).
  util::IntMatrix remaining(4, 2, 0);
  remaining(0, 0) = remaining(1, 0) = 2;
  remaining(2, 1) = remaining(3, 1) = 2;
  const Request req({2, 2});
  const auto uniform =
      solver::solve_sd_exact(req, remaining, topo.distance_matrix());
  const auto weighted = solver::solve_sd_exact_weighted(
      req, remaining, topo.distance_matrix(), {1.0, 5.0});
  ASSERT_TRUE(uniform.feasible);
  ASSERT_TRUE(weighted.feasible);
  // The forced split means the node sets agree...
  EXPECT_EQ(uniform.allocation.used_nodes(), weighted.allocation.used_nodes());
  // ...but the weighted central sits with the heavy type (rack 1).
  EXPECT_EQ(topo.rack_of(weighted.central), 1u);
  // And it is optimal under the weighted objective.
  EXPECT_LE(weighted.distance,
            uniform.allocation.weighted_distance_from(
                uniform.central, topo.distance_matrix(), {1.0, 5.0}) +
                1e-9);
}

TEST(WeightedSdSolver, InfeasibleMirrorsUnweighted) {
  const Topology topo = Topology::uniform(1, 2);
  util::IntMatrix remaining(2, 1, 0);
  const auto res = solver::solve_sd_exact_weighted(
      Request({1}), remaining, topo.distance_matrix(), {2.0});
  EXPECT_FALSE(res.feasible);
}

}  // namespace
}  // namespace vcopt::cluster
