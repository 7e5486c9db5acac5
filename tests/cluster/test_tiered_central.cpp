// best_central_tiered (Definition 1 through the 4-tier distance hierarchy)
// against Allocation::best_central's dense O(n^2) scan: identical central
// and bitwise-identical distance on integral tiers, and the dense fallback
// on fractional ones.
#include "cluster/allocation.h"

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "util/rng.h"

namespace vcopt::cluster {
namespace {

// Random allocation over `topology` with up to `max_per_cell` VMs per cell.
Allocation random_allocation(const Topology& topology, std::size_t types,
                             util::Rng& rng, int max_per_cell) {
  Allocation a(topology.node_count(), types);
  for (std::size_t i = 0; i < topology.node_count(); ++i) {
    for (std::size_t j = 0; j < types; ++j) {
      if (rng.uniform01() < 0.4) {
        a.add(i, j, static_cast<int>(rng.uniform_int(0, max_per_cell)));
      }
    }
  }
  return a;
}

TEST(TieredCentral, MatchesDenseScanOnIntegralTiers) {
  util::Rng rng(31);
  // Default DistanceConfig tiers (0/1/2/4) are integral: the O(n) tiered
  // scan must agree exactly with Allocation::best_central's O(n^2) loop.
  const Topology topology = Topology::multi_cloud(2, 3, 4);
  for (int trial = 0; trial < 50; ++trial) {
    const Allocation a = random_allocation(topology, 3, rng, 6);
    const CentralNode dense = a.best_central(topology.distance_matrix());
    const CentralNode tiered = best_central_tiered(a, topology);
    EXPECT_EQ(tiered.node, dense.node) << "trial " << trial;
    EXPECT_EQ(tiered.distance, dense.distance) << "trial " << trial;
  }
}

TEST(TieredCentral, FallsBackOnFractionalTiers) {
  util::Rng rng(32);
  DistanceConfig cfg;
  cfg.same_node = 0.0;
  cfg.same_rack = 1.5;  // fractional: the tiered fast path must not engage
  cfg.cross_rack = 2.75;
  cfg.cross_cloud = 4.5;
  const Topology topology = Topology::multi_cloud(2, 2, 5, cfg);
  for (int trial = 0; trial < 20; ++trial) {
    const Allocation a = random_allocation(topology, 2, rng, 4);
    const CentralNode dense = a.best_central(topology.distance_matrix());
    const CentralNode tiered = best_central_tiered(a, topology);
    EXPECT_EQ(tiered.node, dense.node);
    EXPECT_EQ(tiered.distance, dense.distance);
  }
}

}  // namespace
}  // namespace vcopt::cluster
