// Definition 1 over the topology's tiers (Allocation::best_central(const
// Topology&), which tries only the used nodes as centrals) against the dense
// O(n^2) scan over topology.distance_matrix(), which tries every node: the
// same central node and a bitwise-equal distance, on uniform, multi-cloud
// and hand-built irregular topologies, with integral and fractional tiers.
#include "cluster/allocation.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/topology.h"
#include "util/rng.h"

namespace vcopt::cluster {
namespace {

// Random allocation over `topology`: each (node, type) cell is occupied
// with probability `density`, with 1..max_per_cell VMs.
Allocation random_allocation(const Topology& topology, std::size_t types,
                             util::Rng& rng, double density,
                             int max_per_cell) {
  Allocation a(topology.node_count(), types);
  for (std::size_t i = 0; i < topology.node_count(); ++i) {
    for (std::size_t j = 0; j < types; ++j) {
      if (rng.uniform01() < density) {
        a.add(i, j, static_cast<int>(rng.uniform_int(1, max_per_cell)));
      }
    }
  }
  return a;
}

// Same central and bitwise-equal distance as the dense scan, and the same
// forced-central distance from every node.
void expect_matches_dense(const Allocation& a, const Topology& topology,
                          const std::string& what) {
  const util::DoubleMatrix dist = topology.distance_matrix();
  const CentralNode dense = a.best_central(dist);
  const CentralNode tiered = a.best_central(topology);
  EXPECT_EQ(tiered.node, dense.node) << what << " " << a.describe();
  EXPECT_EQ(tiered.distance, dense.distance) << what << " " << a.describe();
  for (std::size_t k = 0; k < topology.node_count(); ++k) {
    EXPECT_EQ(a.distance_from(k, topology), a.distance_from(k, dist))
        << what << " central " << k;
  }
}

// Sparse, medium and dense random allocations over one topology.
void check_random_allocations(const Topology& topology, std::uint64_t seed,
                              const std::string& what) {
  util::Rng rng(seed);
  for (const double density : {0.05, 0.3, 0.9}) {
    for (int trial = 0; trial < 25; ++trial) {
      const Allocation a = random_allocation(topology, 3, rng, density, 5);
      expect_matches_dense(a, topology,
                           what + " density " + std::to_string(density) +
                               " trial " + std::to_string(trial));
    }
  }
}

// Fractional tiers, including a non-zero same-node distance.
std::vector<DistanceConfig> fractional_configs() {
  return {
      {0.0, 1.5, 2.75, 4.5},
      {0.0, 0.1, 0.3, 0.7},
      {0.25, 1.0 / 3.0, 2.0 / 3.0, 3.1},
  };
}

TEST(BestCentral, MatchesDenseScanOnUniformTopologies) {
  check_random_allocations(Topology::uniform(3, 10), 1, "3x10");
  check_random_allocations(Topology::uniform(1, 7), 2, "1x7");
  check_random_allocations(Topology::uniform(8, 1), 3, "8x1");
}

TEST(BestCentral, MatchesDenseScanOnMultiCloudTopologies) {
  check_random_allocations(Topology::multi_cloud(2, 3, 4), 4, "2x3x4");
  check_random_allocations(Topology::multi_cloud(4, 1, 3), 5, "4x1x3");
}

TEST(BestCentral, MatchesDenseScanOnIrregularTopologies) {
  // Mixed rack sizes over two clouds, a single-node rack, and rack ids that
  // interleave across clouds with racks whose nodes are not contiguous.
  check_random_allocations(Topology({0, 0, 0, 0, 1, 2, 2}, {0, 0, 1}), 6,
                           "mixed racks");
  check_random_allocations(Topology({0, 1, 1}, {0, 0}), 7, "lone node");
  check_random_allocations(
      Topology({3, 0, 2, 1, 0, 3, 2, 2, 1, 0, 4}, {1, 0, 1, 2, 0}), 8,
      "interleaved");
}

TEST(BestCentral, MatchesDenseScanOnFractionalTiers) {
  std::uint64_t seed = 20;
  for (const DistanceConfig& cfg : fractional_configs()) {
    check_random_allocations(Topology::multi_cloud(2, 2, 5, cfg), seed++,
                             "fractional multi-cloud");
    check_random_allocations(
        Topology({3, 0, 2, 1, 0, 3, 2, 2, 1, 0, 4}, {1, 0, 1, 2, 0}, cfg),
        seed++, "fractional interleaved");
  }
}

TEST(BestCentral, TiesKeepTheLowestIndexUsedNode) {
  // One VM on each of nodes 1..3 of a single rack: every used node gives
  // 2 * d1, node 0 (unused) gives 3 * d1, and node 1 wins the tie.
  const Topology topology = Topology::uniform(1, 4);
  const Allocation a({{0}, {1}, {1}, {1}});
  const CentralNode c = a.best_central(topology);
  EXPECT_EQ(c.node, 1u);
  EXPECT_EQ(c.distance, 2.0);
  expect_matches_dense(a, topology, "rack tie");
}

TEST(BestCentral, EmptyAllocation) {
  for (const DistanceConfig& cfg : fractional_configs()) {
    const Topology topology = Topology::multi_cloud(2, 2, 2, cfg);
    const Allocation a(topology.node_count(), 2);
    const CentralNode c = a.best_central(topology);
    EXPECT_EQ(c.node, 0u);
    EXPECT_EQ(c.distance, 0.0);
    expect_matches_dense(a, topology, "empty");
  }
}

TEST(BestCentral, TopologyShapeMismatchThrows) {
  const Allocation a(4, 2);
  EXPECT_THROW(a.best_central(Topology::uniform(1, 3)), std::invalid_argument);
  EXPECT_THROW(a.distance_from(0, Topology::uniform(1, 3)),
               std::invalid_argument);
  EXPECT_THROW(a.distance_from(4, Topology::uniform(2, 2)), std::out_of_range);
}

}  // namespace
}  // namespace vcopt::cluster
