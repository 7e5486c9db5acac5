// Ablation: where should the aggregating reducer live?  Fig. 4 of the paper
// shows the central-node choice swings the cluster distance by an order of
// magnitude; here the analogous runtime effect — the same WordCount on the
// same virtual clusters with the reducer on the densest node (the central-
// node rule), on an arbitrary VM (Hadoop default), or adversarially on the
// sparsest node.
#include <iostream>

#include "bench_common.h"
#include "mapreduce/apps.h"
#include "mapreduce/engine.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Ablation", "Reducer placement vs runtime", seed);

  using RP = mapreduce::JobConfig::ReducerPlacement;
  const cluster::Topology topo = workload::fig7_topology();

  // Mixed-density 8-VM clusters (uniform-density layouts make the reducer
  // spot irrelevant; real heuristic placements are anchored like these).
  auto build = [&](const std::string& name,
                   const std::vector<std::pair<std::size_t, int>>& layout) {
    cluster::Allocation alloc(topo.node_count(), 3);
    for (const auto& [node, vms] : layout) alloc.at(node, 1) = vms;
    return std::make_pair(name, alloc);
  };
  // Anchors live on higher-numbered nodes so the "spread" (VM-index-order)
  // variant genuinely differs from "densest-node".
  const std::vector<std::pair<std::string, cluster::Allocation>> clusters = {
      build("anchored-in-rack", {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 4}}),
      build("two-anchors-cross-rack", {{0, 1}, {1, 3}, {10, 3}, {11, 1}}),
      build("anchor-plus-strays", {{0, 1}, {1, 1}, {10, 1}, {20, 5}}),
      build("uniform-control", {{0, 1}, {1, 1}, {2, 1}, {3, 1},
                                {4, 1}, {5, 1}, {6, 1}, {7, 1}}),
  };

  util::TableWriter t({"Cluster", "Distance", "densest-node (s)",
                       "spread (s)", "sparsest-node (s)"});
  for (const auto& [name, alloc] : clusters) {
    const auto vc = mapreduce::VirtualCluster::from_allocation(alloc);
    const double distance = alloc.best_central(topo).distance;
    double means[3] = {0, 0, 0};
    const RP variants[3] = {RP::kDensestNode, RP::kSpread, RP::kSparsestNode};
    for (int v = 0; v < 3; ++v) {
      util::Samples rt;
      for (int trial = 0; trial < 9; ++trial) {
        mapreduce::JobConfig job = mapreduce::wordcount();
        job.reducer_placement = variants[v];
        mapreduce::MapReduceEngine eng(
            topo, sim::NetworkConfig{}, vc, job,
            seed * 100 + static_cast<std::uint64_t>(trial));
        rt.add(eng.run().runtime);
      }
      means[v] = rt.mean();
    }
    t.row()
        .cell(name)
        .cell(distance, 0)
        .cell(means[0], 2)
        .cell(means[1], 2)
        .cell(means[2], 2);
  }
  t.print(std::cout);
  std::cout << "\nOn mixed-density clusters, hosting the reducer on the\n"
               "densest node keeps most of the shuffle on-node — the\n"
               "runtime analogue of the paper's Fig. 4 distance spread.\n";
  return 0;
}
