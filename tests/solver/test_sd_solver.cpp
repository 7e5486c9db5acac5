#include "solver/sd_solver.h"

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::solver {
namespace {

using cluster::Request;
using cluster::Topology;
using util::IntMatrix;

TEST(FillForCentral, PrefersNearestNodes) {
  const Topology topo = Topology::uniform(2, 2);
  // Node 0 has 1 slot, rack-mate node 1 has 2, cross-rack node 2 has 5.
  IntMatrix remaining{{1}, {2}, {5}, {0}};
  const auto alloc =
      fill_for_central(Request({4}), remaining, topo.distance_matrix(), 0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->at(0, 0), 1);
  EXPECT_EQ(alloc->at(1, 0), 2);
  EXPECT_EQ(alloc->at(2, 0), 1);
  EXPECT_DOUBLE_EQ(alloc->distance_from(0, topo.distance_matrix()), 2.0 + 2.0);
}

TEST(FillForCentral, InfeasibleReturnsNullopt) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{1}, {1}};
  EXPECT_EQ(fill_for_central(Request({3}), remaining, topo.distance_matrix(), 0),
            std::nullopt);
}

TEST(FillForCentral, MultiTypeDemand) {
  const Topology topo = Topology::uniform(1, 3);
  IntMatrix remaining{{1, 0}, {0, 2}, {1, 1}};
  const auto alloc =
      fill_for_central(Request({2, 2}), remaining, topo.distance_matrix(), 0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_TRUE(alloc->satisfies(Request({2, 2})));
  EXPECT_TRUE(alloc->fits(remaining));
}

TEST(SolveSdExact, PicksBestCentral) {
  const Topology topo = Topology::uniform(2, 2);
  // Rack 1 (nodes 2,3) can host everything; rack 0 cannot.
  IntMatrix remaining{{1, 0}, {0, 0}, {3, 1}, {2, 0}};
  const SdResult res =
      solve_sd_exact(Request({4, 1}), remaining, topo.distance_matrix());
  ASSERT_TRUE(res.feasible);
  // Optimal: node 2 central, take (3,1) there + 1 small from node 3: DC = 1.
  EXPECT_DOUBLE_EQ(res.distance, 1.0);
  EXPECT_EQ(res.central, 2u);
  EXPECT_TRUE(res.allocation.satisfies(Request({4, 1})));
  EXPECT_TRUE(res.allocation.fits(remaining));
}

TEST(SolveSdExact, InfeasibleWhenCapacityShort) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{1, 1}, {1, 0}};
  const SdResult res =
      solve_sd_exact(Request({1, 2}), remaining, topo.distance_matrix());
  EXPECT_FALSE(res.feasible);
}

TEST(SolveSdExact, SingleNodeClusterHasZeroDistance) {
  const Topology topo = Topology::uniform(2, 2);
  IntMatrix remaining{{5, 5}, {1, 1}, {0, 0}, {0, 0}};
  const SdResult res =
      solve_sd_exact(Request({3, 2}), remaining, topo.distance_matrix());
  ASSERT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.distance, 0.0);
}

TEST(BuildSdModel, StructureMatchesFormulation) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{2, 1}, {1, 1}};
  const LpModel m = build_sd_model(Request({2, 1}), remaining,
                                   topo.distance_matrix(), 0);
  EXPECT_EQ(m.variable_count(), 4u);   // n*m
  EXPECT_EQ(m.constraint_count(), 2u); // one demand row per type
  EXPECT_TRUE(m.has_integer_variables());
  // Upper bounds are the remaining capacities.
  EXPECT_DOUBLE_EQ(m.variable(0).upper, 2.0);
  EXPECT_DOUBLE_EQ(m.variable(3).upper, 1.0);
  // Objective prices every VM on node i at D(i, central).
  EXPECT_DOUBLE_EQ(m.variable(0).objective, 0.0);
  EXPECT_DOUBLE_EQ(m.variable(2).objective, 1.0);
}

TEST(SolveSdIlp, MatchesExactOnSmallInstance) {
  const Topology topo = Topology::uniform(2, 2);
  IntMatrix remaining{{2, 1}, {1, 0}, {3, 2}, {0, 1}};
  const Request r({3, 2});
  const SdResult exact = solve_sd_exact(r, remaining, topo.distance_matrix());
  const SdResult ilp = solve_sd_ilp(r, remaining, topo.distance_matrix());
  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(ilp.feasible);
  EXPECT_NEAR(exact.distance, ilp.distance, 1e-6);
}

// Property sweep: on random instances the polynomial exact solver and the
// branch-and-bound ILP must agree on the optimal distance, and the exact
// solver's allocation must be feasible and exactly satisfying.
class SdAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SdAgreement, ExactEqualsIlpAndIsFeasible) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(2, 3);  // 6 nodes
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 3);
  const Request r = workload::random_request(catalog, rng, 0, 3, 0);

  const SdResult exact = solve_sd_exact(r, remaining, topo.distance_matrix());
  const SdResult ilp = solve_sd_ilp(r, remaining, topo.distance_matrix());
  ASSERT_EQ(exact.feasible, ilp.feasible);
  if (!exact.feasible) return;
  EXPECT_NEAR(exact.distance, ilp.distance, 1e-6)
      << "seed=" << GetParam() << " request=" << r.describe();
  EXPECT_TRUE(exact.allocation.satisfies(r));
  EXPECT_TRUE(exact.allocation.fits(remaining));
  EXPECT_DOUBLE_EQ(
      exact.allocation.distance_from(exact.central, topo.distance_matrix()),
      exact.distance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdAgreement,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(SolveGsdExact, CoupledCapacityRespected) {
  const Topology topo = Topology::uniform(2, 2);
  // Enough for both requests in total, but node 0 can host only one each.
  IntMatrix remaining{{1, 1}, {1, 0}, {2, 2}, {0, 0}};
  const std::vector<Request> reqs = {Request({1, 1}, 0), Request({2, 1}, 1)};
  const GsdResult res =
      solve_gsd_exact(reqs, remaining, topo.distance_matrix());
  ASSERT_TRUE(res.feasible);
  ASSERT_EQ(res.allocations.size(), 2u);
  // Combined usage must fit the shared capacity.
  IntMatrix used = res.allocations[0].to_matrix() + res.allocations[1].to_matrix();
  EXPECT_TRUE(remaining.dominates(used));
  EXPECT_TRUE(res.allocations[0].satisfies(reqs[0]));
  EXPECT_TRUE(res.allocations[1].satisfies(reqs[1]));
}

TEST(SolveGsdExact, GlobalOptimumNoWorseThanGreedySequence) {
  util::Rng rng(99);
  const Topology topo = Topology::uniform(2, 2);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  for (int trial = 0; trial < 5; ++trial) {
    const IntMatrix remaining =
        workload::random_inventory(topo, catalog, rng, 1, 3);
    const std::vector<Request> reqs = {
        workload::random_request(catalog, rng, 0, 2, 0),
        workload::random_request(catalog, rng, 0, 2, 1)};
    const GsdResult global =
        solve_gsd_exact(reqs, remaining, topo.distance_matrix());
    if (!global.feasible) continue;
    // Greedy: solve first exactly, debit, solve second exactly.
    const SdResult a = solve_sd_exact(reqs[0], remaining, topo.distance_matrix());
    if (!a.feasible) continue;
    IntMatrix left = remaining - a.allocation.to_matrix();
    const SdResult b = solve_sd_exact(reqs[1], left, topo.distance_matrix());
    if (!b.feasible) continue;
    EXPECT_LE(global.total_distance, a.distance + b.distance + 1e-6);
  }
}

TEST(SolveGsdExact, TupleGuard) {
  const Topology topo = Topology::uniform(3, 10);  // n = 30
  IntMatrix remaining(30, 1, 2);
  const std::vector<Request> reqs(5, Request({1}));
  // 30^5 = 24.3M > default guard.
  EXPECT_THROW(solve_gsd_exact(reqs, remaining, topo.distance_matrix(), 1000),
               std::invalid_argument);
}

TEST(SdSolver, ShapeValidation) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{1}, {1}};
  EXPECT_THROW(
      solve_sd_exact(Request({1, 1}), remaining, topo.distance_matrix()),
      std::invalid_argument);
  EXPECT_THROW(
      fill_for_central(Request({1}), remaining, topo.distance_matrix(), 5),
      std::out_of_range);
}

}  // namespace
}  // namespace vcopt::solver
