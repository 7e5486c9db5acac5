// Extension experiment (paper §II introduces a third distance tier d3 for
// nodes "in different clouds" but the evaluation never exercises it): the
// Fig. 7 methodology on a two-site cloud.  Virtual clusters that straddle
// the WAN pay for every shuffle byte crossing the thin inter-site pipe.
#include <iostream>

#include "bench_common.h"
#include "mapreduce/apps.h"
#include "mapreduce/engine.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Ext", "WordCount across cloud sites (d3 tier)", seed);

  // Two clouds x 2 racks x 4 nodes.  Nodes 0-7 in cloud 0, 8-15 in cloud 1.
  const cluster::Topology topo = cluster::Topology::multi_cloud(2, 2, 4);
  const std::size_t medium = 1;

  auto build = [&](const std::string& name,
                   const std::vector<std::pair<std::size_t, int>>& layout) {
    cluster::Allocation alloc(topo.node_count(), 3);
    for (const auto& [node, vms] : layout) alloc.at(node, medium) = vms;
    return std::make_pair(name, alloc);
  };
  const std::vector<std::pair<std::string, cluster::Allocation>> clusters = {
      build("one-rack", {{0, 4}, {1, 4}}),
      build("two-racks-one-cloud", {{0, 2}, {1, 2}, {4, 2}, {5, 2}}),
      build("split-across-clouds", {{0, 2}, {1, 2}, {8, 2}, {9, 2}}),
      build("fully-split-clouds", {{0, 1}, {1, 1}, {4, 1}, {5, 1},
                                   {8, 1}, {9, 1}, {12, 1}, {13, 1}}),
  };

  util::TableWriter t({"Cluster", "Distance", "Runtime mean (s)",
                       "Cross-cloud traffic (MB)"});
  for (const auto& [name, alloc] : clusters) {
    const auto vc = mapreduce::VirtualCluster::from_allocation(alloc);
    util::Samples runtime, wan_mb;
    for (int trial = 0; trial < 7; ++trial) {
      mapreduce::MapReduceEngine engine(topo, sim::NetworkConfig{}, vc,
                                        mapreduce::wordcount(),
                                        seed * 100 + trial);
      const mapreduce::JobMetrics m = engine.run();
      runtime.add(m.runtime);
      wan_mb.add(m.traffic.cross_cloud_bytes / 1e6);
    }
    t.row()
        .cell(name)
        .cell(alloc.best_central(topo).distance, 0)
        .cell(runtime.mean(), 2)
        .cell(wan_mb.mean(), 1);
  }
  t.print(std::cout);
  std::cout << "\nCrossing the d3 (inter-cloud) tier dominates runtime: the\n"
               "affinity metric's strict d1 < d2 < d3 ordering is what lets\n"
               "the SD optimiser avoid these placements automatically.\n";
  return 0;
}
