#include "mapreduce/engine.h"

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "mapreduce/apps.h"

namespace vcopt::mapreduce {
namespace {

using cluster::Topology;

sim::NetworkConfig test_net() {
  return sim::NetworkConfig{};  // library defaults (oversubscribed racks)
}

VirtualCluster cluster_on(const std::vector<std::pair<std::size_t, int>>& layout,
                          std::size_t nodes) {
  cluster::Allocation alloc(nodes, 1);
  for (const auto& [node, vms] : layout) alloc.at(node, 0) = vms;
  return VirtualCluster::from_allocation(alloc);
}

JobConfig small_job() {
  JobConfig j = wordcount(8 * 64.0e6);  // 8 maps, 1 reduce
  return j;
}

TEST(Engine, CompletesAndReportsPositiveRuntime) {
  const Topology topo = Topology::uniform(2, 3);
  MapReduceEngine eng(topo, test_net(), cluster_on({{0, 2}, {1, 2}}, 6),
                      small_job(), 1);
  const JobMetrics m = eng.run();
  EXPECT_GT(m.runtime, 0);
  EXPECT_EQ(m.maps_total, 8);
  EXPECT_EQ(m.maps_node_local + m.maps_rack_local + m.maps_remote, 8);
  EXPECT_GE(m.shuffle_end, 0.0);
  EXPECT_LE(m.map_phase_end, m.runtime);
}

TEST(Engine, RunningTwiceThrows) {
  const Topology topo = Topology::uniform(2, 3);
  MapReduceEngine eng(topo, test_net(), cluster_on({{0, 2}, {1, 2}}, 6),
                      small_job(), 1);
  eng.run();
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, SingleNodeClusterIsFullyLocal) {
  const Topology topo = Topology::uniform(1, 2);
  MapReduceEngine eng(topo, test_net(), cluster_on({{0, 4}}, 2), small_job(), 2);
  const JobMetrics m = eng.run();
  EXPECT_EQ(m.maps_node_local, 8);
  EXPECT_EQ(m.maps_rack_local + m.maps_remote, 0);
  EXPECT_DOUBLE_EQ(m.non_local_map_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(m.non_local_shuffle_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(m.traffic.rack_bytes + m.traffic.cross_rack_bytes +
                       m.traffic.cross_cloud_bytes,
                   0.0);
}

TEST(Engine, ShuffleBytesMatchConfiguredRatio) {
  const Topology topo = Topology::uniform(2, 3);
  JobConfig j = small_job();
  MapReduceEngine eng(topo, test_net(), cluster_on({{0, 2}, {3, 2}}, 6), j, 3);
  const JobMetrics m = eng.run();
  EXPECT_NEAR(m.shuffle_bytes_total, j.input_bytes * j.intermediate_ratio,
              1e-3);
  EXPECT_NEAR(m.shuffle_bytes_node_local + m.shuffle_bytes_rack_local +
                  m.shuffle_bytes_remote,
              m.shuffle_bytes_total, 1e-3);
}

TEST(Engine, DeterministicPerSeed) {
  const Topology topo = Topology::uniform(2, 3);
  MapReduceEngine a(topo, test_net(), cluster_on({{0, 2}, {3, 2}}, 6),
                    small_job(), 99);
  MapReduceEngine b(topo, test_net(), cluster_on({{0, 2}, {3, 2}}, 6),
                    small_job(), 99);
  const JobMetrics ma = a.run();
  const JobMetrics mb = b.run();
  EXPECT_DOUBLE_EQ(ma.runtime, mb.runtime);
  EXPECT_EQ(ma.maps_node_local, mb.maps_node_local);
  EXPECT_DOUBLE_EQ(ma.shuffle_bytes_remote, mb.shuffle_bytes_remote);
}

TEST(Engine, MultipleReducersSupported) {
  const Topology topo = Topology::uniform(2, 3);
  JobConfig j = terasort(8 * 64.0e6, 4);
  MapReduceEngine eng(topo, test_net(), cluster_on({{0, 2}, {1, 2}}, 6), j, 5);
  const JobMetrics m = eng.run();
  EXPECT_GT(m.runtime, 0);
  EXPECT_NEAR(m.shuffle_bytes_total, j.input_bytes * j.intermediate_ratio, 1e-3);
}

TEST(Engine, PartialLastSplitAccounted) {
  const Topology topo = Topology::uniform(1, 2);
  JobConfig j = wordcount(100e6);  // 1 full split + 36 MB tail
  j.split_bytes = 64e6;
  MapReduceEngine eng(topo, test_net(), cluster_on({{0, 2}}, 2), j, 6);
  const JobMetrics m = eng.run();
  EXPECT_EQ(m.maps_total, 2);
  EXPECT_NEAR(m.shuffle_bytes_total, 100e6 * j.intermediate_ratio, 1e-3);
}

TEST(Engine, EmptyClusterRejected) {
  const Topology topo = Topology::uniform(1, 2);
  VirtualCluster empty;
  EXPECT_THROW(MapReduceEngine(topo, test_net(), empty, small_job(), 1),
               std::invalid_argument);
}

TEST(Engine, ClusterDistanceRecorded) {
  const Topology topo = Topology::uniform(2, 3);
  const VirtualCluster vc = cluster_on({{0, 2}, {3, 2}}, 6);
  MapReduceEngine eng(topo, test_net(), vc, small_job(), 7);
  const JobMetrics m = eng.run();
  EXPECT_DOUBLE_EQ(m.cluster_distance, vc.distance(topo));
}

// The paper's core experimental claim (Fig. 7): a compact cluster finishes
// faster than the same-capability cluster scattered across racks.
TEST(Engine, CompactClusterBeatsScatteredCluster) {
  const Topology topo = Topology::uniform(3, 10);
  const VirtualCluster compact = cluster_on({{0, 4}, {1, 4}}, 30);
  const VirtualCluster scattered = cluster_on(
      {{0, 1}, {1, 1}, {2, 1}, {10, 1}, {11, 1}, {12, 1}, {20, 1}, {21, 1}},
      30);
  double compact_total = 0, scattered_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    MapReduceEngine a(topo, test_net(), compact, wordcount(), seed);
    MapReduceEngine b(topo, test_net(), scattered, wordcount(), seed);
    compact_total += a.run().runtime;
    scattered_total += b.run().runtime;
  }
  EXPECT_LT(compact_total, scattered_total);
}

// Locality monotonicity: the scattered single-VM-per-node cluster cannot do
// better on shuffle locality than the packed one (1 reducer).
TEST(Engine, PackedClusterHasMoreLocalShuffle) {
  const Topology topo = Topology::uniform(3, 10);
  const VirtualCluster packed = cluster_on({{0, 4}, {10, 4}}, 30);
  const VirtualCluster sparse = cluster_on(
      {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1}}, 30);
  MapReduceEngine a(topo, test_net(), packed, wordcount(), 11);
  MapReduceEngine b(topo, test_net(), sparse, wordcount(), 11);
  const JobMetrics ma = a.run();
  const JobMetrics mb = b.run();
  // Sparse cluster: reducer alone on its node, every map output crosses
  // nodes except the reducer VM's own maps.
  EXPECT_LE(ma.non_local_shuffle_fraction(),
            mb.non_local_shuffle_fraction() + 1e-9);
}

}  // namespace
}  // namespace vcopt::mapreduce
