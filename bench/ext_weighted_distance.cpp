// Extension experiment (§VII "more fine-grained virtual cluster
// provisioning"): the uniform distance metric treats every VM the same, but
// a large instance runs more task slots and sources proportionally more
// shuffle traffic.  Weighting each VM by its compute units when choosing
// the central node places the aggregating master next to the heavy VMs.
//
// Setup: smalls can only be hosted in rack 0, larges only in rack 1, so the
// allocation is forced and symmetric — the uniform metric is indifferent
// (tie) and its tie-break parks the central node with the SMALL VMs, while
// the weighted metric puts it with the larges.  The master (single reducer)
// sits on the central node; large VMs run 4 map slots vs 1 for smalls.
#include <iostream>

#include "bench_common.h"
#include "cluster/vm_type.h"
#include "mapreduce/apps.h"
#include "mapreduce/engine.h"
#include "solver/sd_solver.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Ext", "Uniform vs compute-weighted distance metric", seed);

  const cluster::Topology topo = cluster::Topology::uniform(2, 4);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  // Rack 0 (nodes 0-3): small-only capacity.  Rack 1 (nodes 4-7): large-only.
  util::IntMatrix remaining(8, 3, 0);
  for (std::size_t i = 0; i < 4; ++i) remaining(i, 0) = 2;
  for (std::size_t i = 4; i < 8; ++i) remaining(i, 2) = 2;
  const cluster::Request request({4, 0, 4});

  // Weights = compute units (small 1, medium 2, large 4).
  const std::vector<double> weights = {
      static_cast<double>(catalog[0].compute_units),
      static_cast<double>(catalog[1].compute_units),
      static_cast<double>(catalog[2].compute_units)};

  const util::DoubleMatrix dist = topo.distance_matrix();
  const solver::SdResult uniform =
      solver::solve_sd_exact(request, remaining, dist);
  const solver::SdResult weighted =
      solver::solve_sd_exact_weighted(request, remaining, dist, weights);

  util::TableWriter t({"Metric", "Central node", "Central rack",
                       "Uniform DC @central", "Weighted DC @central",
                       "WordCount runtime (s)"});
  for (const auto& [label, result] :
       {std::pair<const char*, const solver::SdResult&>{"uniform", uniform},
        {"compute-weighted", weighted}}) {
    const auto vc =
        mapreduce::VirtualCluster::from_allocation(result.allocation);
    // Pin the master/reducer to a VM on the chosen central node.
    int pin = -1;
    for (std::size_t v = 0; v < vc.size(); ++v) {
      if (vc.vm(v).node == result.central) {
        pin = static_cast<int>(v);
        break;
      }
    }
    util::Samples rt;
    for (int trial = 0; trial < 7; ++trial) {
      mapreduce::JobConfig job = mapreduce::wordcount();
      job.map_slots_per_type = {1, 2, 4};  // big instances do more work
      job.pinned_reducer_vm = pin;
      mapreduce::MapReduceEngine eng(
          topo, sim::NetworkConfig{}, vc, job,
          seed * 10 + static_cast<std::uint64_t>(trial));
      rt.add(eng.run().runtime);
    }
    t.row()
        .cell(label)
        .cell("N" + std::to_string(result.central))
        .cell("R" + std::to_string(topo.rack_of(result.central)))
        .cell(result.allocation.distance_from(result.central, topo), 1)
        .cell(result.allocation.weighted_distance_from(result.central, dist,
                                                       weights),
              1)
        .cell(rt.mean(), 2);
  }
  t.print(std::cout);
  std::cout << "\nThe compute-weighted metric parks the master with the\n"
               "high-slot large instances, shrinking the dominant shuffle\n"
               "legs — invisible to the uniform metric, which ties.\n";
  return 0;
}
