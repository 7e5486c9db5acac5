#include "cluster/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "../placement/reference.h"
#include "util/rng.h"

namespace vcopt::cluster {
namespace {

TEST(DistanceConfig, DefaultIsValid) {
  DistanceConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(DistanceConfig, RejectsNonMonotone) {
  DistanceConfig cfg;
  cfg.same_rack = 3;
  cfg.cross_rack = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = DistanceConfig{};
  cfg.same_node = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = DistanceConfig{};
  cfg.cross_cloud = cfg.cross_rack;  // must be strictly greater
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Topology, UniformShape) {
  const Topology t = Topology::uniform(3, 10);
  EXPECT_EQ(t.node_count(), 30u);
  EXPECT_EQ(t.rack_count(), 3u);
  EXPECT_EQ(t.cloud_count(), 1u);
  EXPECT_EQ(t.rack_of(0), 0u);
  EXPECT_EQ(t.rack_of(9), 0u);
  EXPECT_EQ(t.rack_of(10), 1u);
  EXPECT_EQ(t.rack_of(29), 2u);
}

TEST(Topology, NodesInRack) {
  const Topology t = Topology::uniform(2, 3);
  const auto& rack1 = t.nodes_in_rack(1);
  EXPECT_EQ(rack1, (std::vector<std::size_t>{3, 4, 5}));
}

TEST(Topology, DistanceTiers) {
  const Topology t = Topology::uniform(2, 2);
  EXPECT_DOUBLE_EQ(t.distance(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.distance(0, 1), 1.0);  // same rack (d1)
  EXPECT_DOUBLE_EQ(t.distance(0, 2), 2.0);  // cross rack (d2)
}

TEST(Topology, MultiCloudDistance) {
  const Topology t = Topology::multi_cloud(2, 2, 2);
  EXPECT_EQ(t.node_count(), 8u);
  EXPECT_EQ(t.cloud_count(), 2u);
  EXPECT_DOUBLE_EQ(t.distance(0, 1), 1.0);  // same rack
  EXPECT_DOUBLE_EQ(t.distance(0, 2), 2.0);  // same cloud, other rack
  EXPECT_DOUBLE_EQ(t.distance(0, 4), 4.0);  // other cloud (d3)
  EXPECT_TRUE(t.same_cloud(0, 3));
  EXPECT_FALSE(t.same_cloud(0, 4));
}

TEST(Topology, DistanceMatrixSymmetric) {
  const Topology t = Topology::uniform(3, 4);
  const auto& d = t.distance_matrix();
  for (std::size_t a = 0; a < t.node_count(); ++a) {
    EXPECT_DOUBLE_EQ(d(a, a), 0.0);
    for (std::size_t b = 0; b < t.node_count(); ++b) {
      EXPECT_DOUBLE_EQ(d(a, b), d(b, a));
    }
  }
}

TEST(Topology, DistanceMatrixTriangleInequality) {
  // The hierarchy metric satisfies the triangle inequality (it is an
  // ultrametric): d(a,c) <= max(d(a,b), d(b,c)) <= d(a,b) + d(b,c).
  const Topology t = Topology::multi_cloud(2, 2, 2);
  const auto& d = t.distance_matrix();
  for (std::size_t a = 0; a < t.node_count(); ++a) {
    for (std::size_t b = 0; b < t.node_count(); ++b) {
      for (std::size_t c = 0; c < t.node_count(); ++c) {
        EXPECT_LE(d(a, c), d(a, b) + d(b, c));
      }
    }
  }
}

TEST(Topology, CustomDistances) {
  DistanceConfig cfg;
  cfg.same_rack = 5;
  cfg.cross_rack = 9;
  cfg.cross_cloud = 20;
  const Topology t = Topology::uniform(2, 2, cfg);
  EXPECT_DOUBLE_EQ(t.distance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(t.distance(0, 3), 9.0);
}

TEST(Topology, SameRackPredicate) {
  const Topology t = Topology::uniform(2, 3);
  EXPECT_TRUE(t.same_rack(0, 2));
  EXPECT_FALSE(t.same_rack(2, 3));
}

TEST(Topology, ValidationErrors) {
  EXPECT_THROW(Topology::uniform(0, 3), std::invalid_argument);
  EXPECT_THROW(Topology::uniform(3, 0), std::invalid_argument);
  // Node referencing unknown rack.
  EXPECT_THROW(Topology({0, 5}, {0}), std::invalid_argument);
}

TEST(Topology, OutOfRangeAccessThrows) {
  const Topology t = Topology::uniform(2, 2);
  EXPECT_THROW(t.rack_of(4), std::out_of_range);
  EXPECT_THROW(t.distance(0, 4), std::out_of_range);
  EXPECT_THROW(t.nodes_in_rack(2), std::out_of_range);
}

// The tier walk is the stable sort of every node by distance from `from`,
// from every node, on uniform, multi-cloud and irregular interleaved
// topologies (racks of uneven size, racks and clouds interleaved by index).
TEST(Topology, NodesByDistanceIsAStableSortByDistance) {
  util::Rng rng(11);
  const std::vector<Topology> topologies = {
      Topology::uniform(4, 5),
      Topology::multi_cloud(3, 2, 4),
      reference::irregular(rng, 40, 7, DistanceConfig{}),
      reference::irregular(rng, 31, 11, reference::tiers(0.1, 0.7, 1.3, 2.9)),
  };
  for (const Topology& t : topologies) {
    for (std::size_t from = 0; from < t.node_count(); ++from) {
      std::vector<std::size_t> want(t.node_count());
      std::iota(want.begin(), want.end(), std::size_t{0});
      std::stable_sort(want.begin(), want.end(),
                       [&](std::size_t a, std::size_t b) {
                         return t.distance(from, a) < t.distance(from, b);
                       });
      ASSERT_EQ(t.nodes_by_distance(from), want)
          << t.describe() << " from " << from;
    }
    EXPECT_THROW(t.nodes_by_distance(t.node_count()), std::out_of_range);
  }
}

TEST(Topology, Describe) {
  const Topology t = Topology::uniform(3, 10);
  EXPECT_EQ(t.describe(), "3 racks, 30 nodes, 1 cloud");
}

}  // namespace
}  // namespace vcopt::cluster
