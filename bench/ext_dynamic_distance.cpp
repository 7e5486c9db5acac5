// Extension experiment (paper §VII future work: the distance is "measured
// and configured statically in this paper"; computing it at run time is
// left open).  We congest the NICs of rack 0's first nodes with another
// tenant's long-lived flows, then provision the same 8-VM request twice
// with the exact SD solver: once using the STATIC topology distance matrix
// (which is blind to the load and lands on the congested nodes), once using
// the network's load-MEASURED distance matrix (which steers away).  Both
// clusters then run WordCount with the congestion still active.
#include <array>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "mapreduce/apps.h"
#include "mapreduce/engine.h"
#include "sim/network.h"
#include "solver/sd_solver.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Ext", "Static vs load-measured distance placement", seed);

  const cluster::Topology topo = cluster::Topology::uniform(3, 10);
  util::IntMatrix remaining(topo.node_count(), 3, 0);
  for (std::size_t i = 0; i < topo.node_count(); ++i) remaining(i, 1) = 2;

  // Another tenant's all-to-all shuffle inside rack 0: nodes 0-3 and 4-7
  // exchange long-lived flows in BOTH directions, pinning both the up- and
  // downlinks of those eight NICs near saturation.
  const auto background = [] {
    std::vector<std::array<std::size_t, 2>> flows;
    for (std::size_t i = 0; i < 4; ++i) {
      flows.push_back({i, 4 + i});
      flows.push_back({4 + i, i});
      flows.push_back({i, 4 + ((i + 1) % 4)});
      flows.push_back({4 + ((i + 1) % 4), i});
    }
    return flows;
  }();

  // A probe network carrying the same background load, used only to take
  // the measured-distance snapshot a real controller would have.
  sim::EventQueue probe_queue;
  sim::Network probe_net(topo, sim::NetworkConfig{}, probe_queue);
  for (const auto& f : background) {
    probe_net.start_flow(f[0], f[1], 1e12, [](sim::FlowId) {});
  }

  const cluster::Request request({0, 8, 0}, 1);
  const solver::SdResult by_static =
      solver::solve_sd_exact(request, remaining, topo.distance_matrix());
  const solver::SdResult by_measured = solver::solve_sd_exact(
      request, remaining, probe_net.measured_distance_matrix());

  util::TableWriter t({"Placement input", "Allocation", "Static DC",
                       "Runtime w/ congestion (s)"});
  for (const auto& [label, result] :
       {std::pair<const char*, const solver::SdResult&>{"static D", by_static},
        {"measured D", by_measured}}) {
    const auto vc =
        mapreduce::VirtualCluster::from_allocation(result.allocation);
    util::Samples runtime;
    for (int trial = 0; trial < 7; ++trial) {
      mapreduce::MapReduceEngine engine(topo, sim::NetworkConfig{}, vc,
                                        mapreduce::wordcount(),
                                        seed * 10 + static_cast<std::uint64_t>(trial));
      for (const auto& f : background) {
        engine.add_background_flow(f[0], f[1], 2e9);
      }
      runtime.add(engine.run().runtime);
    }
    t.row()
        .cell(label)
        .cell(result.allocation.describe())
        .cell(result.allocation.best_central(topo).distance, 1)
        .cell(runtime.mean(), 2);
  }
  t.print(std::cout);

  std::cout << "\nMeasured distance node0 -> node1 (congested rack): "
            << util::format_double(probe_net.measured_distance(0, 1), 2)
            << "\nMeasured distance node20 -> node21 (idle rack):    "
            << util::format_double(probe_net.measured_distance(20, 21), 2)
            << "\n";
  const auto rack_of_cluster = [&](const solver::SdResult& r) {
    return topo.rack_of(r.allocation.used_nodes().front());
  };
  std::cout << "Static placement starts in rack:   R"
            << rack_of_cluster(by_static)
            << "\nMeasured placement starts in rack: R"
            << rack_of_cluster(by_measured)
            << "  (steered away from the congestion)\n";
  return 0;
}
