#include "mapreduce/virtual_cluster.h"

#include <gtest/gtest.h>

#include "cluster/topology.h"

namespace vcopt::mapreduce {
namespace {

TEST(VirtualCluster, ExpandsAllocation) {
  cluster::Allocation alloc({{2, 1}, {0, 0}, {0, 3}});
  const VirtualCluster vc = VirtualCluster::from_allocation(alloc);
  ASSERT_EQ(vc.size(), 6u);
  EXPECT_EQ(vc.vm(0).node, 0u);
  EXPECT_EQ(vc.vm(0).type, 0u);
  EXPECT_EQ(vc.vm(1).node, 0u);
  EXPECT_EQ(vc.vm(2).type, 1u);  // the medium on node 0
  EXPECT_EQ(vc.vm(3).node, 2u);
  EXPECT_EQ(vc.vm(5).node, 2u);
  // Dense ids match positions.
  for (std::size_t i = 0; i < vc.size(); ++i) EXPECT_EQ(vc.vm(i).vm, i);
}

TEST(VirtualCluster, NodesDeduplicated) {
  cluster::Allocation alloc({{2, 0}, {0, 0}, {1, 1}});
  const VirtualCluster vc = VirtualCluster::from_allocation(alloc);
  EXPECT_EQ(vc.nodes(), (std::vector<std::size_t>{0, 2}));
}

TEST(VirtualCluster, DistanceMatchesAllocation) {
  const cluster::Topology topo = cluster::Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 1);
  alloc.at(0, 0) = 2;
  alloc.at(1, 0) = 2;
  const VirtualCluster vc = VirtualCluster::from_allocation(alloc);
  EXPECT_DOUBLE_EQ(vc.distance(topo),
                   alloc.best_central(topo.distance_matrix()).distance);
}

TEST(VirtualCluster, EmptyCluster) {
  VirtualCluster vc;
  EXPECT_EQ(vc.size(), 0u);
  EXPECT_TRUE(vc.nodes().empty());
  EXPECT_THROW(vc.vm(0), std::out_of_range);
}

}  // namespace
}  // namespace vcopt::mapreduce
