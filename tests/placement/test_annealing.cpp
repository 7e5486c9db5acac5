#include "placement/annealing.h"

#include <gtest/gtest.h>

#include "solver/sd_solver.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::placement {
namespace {

using cluster::Request;
using cluster::Topology;
using util::IntMatrix;

class AnnealSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnnealSweep, NeverWorseThanAlgorithmTwoAndAlwaysFeasible) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 3);
  const auto batch = workload::random_requests(catalog, rng, 6, 1, 3);

  GlobalSubOpt algo2;
  const BatchPlacement base = algo2.place_batch(batch, remaining, topo);
  AnnealOptions opt;
  opt.iterations = 4000;
  opt.seed = GetParam() + 1;
  const BatchPlacement annealed = anneal_batch(batch, remaining, topo, opt);

  ASSERT_EQ(annealed.admitted, base.admitted);
  EXPECT_LE(annealed.total_distance, base.total_distance + 1e-9)
      << "seed=" << GetParam();

  // Feasibility: every request exactly satisfied, combined usage fits.
  IntMatrix used(remaining.rows(), remaining.cols(), 0);
  for (std::size_t t = 0; t < annealed.placements.size(); ++t) {
    EXPECT_TRUE(annealed.placements[t].allocation.satisfies(
        batch[annealed.admitted[t]]));
    used += annealed.placements[t].allocation.to_matrix();
  }
  EXPECT_TRUE(remaining.dominates(used));
  EXPECT_TRUE(used.all_nonnegative());

  // Reported distances match the allocations.
  for (const Placement& p : annealed.placements) {
    EXPECT_DOUBLE_EQ(
        p.distance,
        p.allocation.best_central(topo.distance_matrix()).distance);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnealSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(Anneal, ReachesExactGsdOnTinyInstance) {
  // 4 nodes, 2 requests: annealing should find the true optimum often.
  util::Rng rng(3);
  const Topology topo = Topology::uniform(2, 2);
  const cluster::VmCatalog catalog({{"a", 1, 1, 1, 64}, {"b", 2, 2, 2, 64}});
  int optimal_hits = 0, instances = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng srng(seed);
    const IntMatrix remaining =
        workload::random_inventory(topo, catalog, srng, 1, 2);
    const std::vector<Request> batch = {
        workload::random_request(catalog, srng, 0, 2, 0),
        workload::random_request(catalog, srng, 0, 2, 1)};
    const auto exact =
        solver::solve_gsd_exact(batch, remaining, topo.distance_matrix());
    if (!exact.feasible) continue;
    AnnealOptions opt;
    opt.iterations = 5000;
    opt.seed = seed * 7 + 1;
    const auto annealed = anneal_batch(batch, remaining, topo, opt);
    if (annealed.admitted.size() != batch.size()) continue;
    ++instances;
    EXPECT_GE(annealed.total_distance, exact.total_distance - 1e-9);
    if (annealed.total_distance <= exact.total_distance + 1e-9) ++optimal_hits;
  }
  ASSERT_GT(instances, 0);
  EXPECT_GE(optimal_hits * 2, instances);  // optimal on at least half
}

TEST(Anneal, EmptyBatchHandled) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining(2, 1, 1);
  const auto res = anneal_batch({}, remaining, topo);
  EXPECT_TRUE(res.placements.empty());
}

TEST(Anneal, DeterministicPerSeed) {
  util::Rng rng(5);
  const Topology topo = Topology::uniform(2, 4);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 1, 3);
  const auto batch = workload::random_requests(catalog, rng, 4, 1, 2);
  AnnealOptions opt;
  opt.iterations = 2000;
  opt.seed = 42;
  const auto a = anneal_batch(batch, remaining, topo, opt);
  const auto b = anneal_batch(batch, remaining, topo, opt);
  EXPECT_DOUBLE_EQ(a.total_distance, b.total_distance);
}

}  // namespace
}  // namespace vcopt::placement
