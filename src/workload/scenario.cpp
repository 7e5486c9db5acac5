#include "workload/scenario.h"

#include <stdexcept>

#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::workload {

SimScenario paper_sim_scenario(std::uint64_t seed, RequestScale scale,
                               std::size_t num_requests) {
  util::Rng rng(seed);
  cluster::Topology topo = cluster::Topology::uniform(3, 10);  // §V.A setup
  cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  // The paper does not publish its random configurations; these ranges are
  // calibrated (see bench/ablation_transfer) so the global algorithm's
  // total-distance saving lands near the paper's reported 2 % (big) and
  // 12 % (small).  The small-request variant uses proportionally thinner
  // per-node inventories; otherwise nearly every 1-3 VM request fits on a
  // single node (distance 0) and Fig. 6 would be a flat zero line.
  const int max_inventory = scale == RequestScale::kSmall ? 2 : 4;
  util::IntMatrix capacity =
      random_inventory(topo, catalog, rng, 0, max_inventory);
  int min_per_type = 0, max_per_type = 6;  // kMedium (Figs. 2-4)
  if (scale == RequestScale::kBig) {
    min_per_type = 4;
    max_per_type = 10;
  } else if (scale == RequestScale::kSmall) {
    min_per_type = 1;
    max_per_type = 2;
  }
  std::vector<cluster::Request> requests = random_requests(
      catalog, rng, num_requests, min_per_type, max_per_type);
  return SimScenario{std::move(topo), std::move(catalog), std::move(capacity),
                     std::move(requests), seed};
}

cluster::Topology fig7_topology() {
  // Same shape as the simulation cloud; distance constants of §V.B:
  // 0 within a node, 1 within a rack, 2 across racks.
  return cluster::Topology::uniform(3, 10);
}

std::vector<ExperimentCluster> fig7_clusters() {
  const cluster::Topology topo = fig7_topology();
  const std::size_t types = cluster::VmCatalog::ec2_default().size();
  const std::size_t medium = 1;  // all experiment VMs are "medium"

  auto build = [&](const std::string& name,
                   const std::vector<std::pair<std::size_t, int>>& layout) {
    cluster::Allocation alloc(topo.node_count(), types);
    for (const auto& [node, vms] : layout) alloc.at(node, medium) = vms;
    if (alloc.total_vms() != 8) {
      throw std::logic_error("fig7_clusters: every cluster must have 8 VMs");
    }
    ExperimentCluster ec{name, alloc,
                         alloc.best_central(topo).distance};
    return ec;
  };

  // Node ids: 0-9 rack 0, 10-19 rack 1, 20-29 rack 2.
  return {
      // Two neighbouring nodes in one rack, 4 VMs each -> DC = 4.
      build("packed-pair", {{0, 4}, {1, 4}}),
      // Eight single-VM nodes in one rack -> DC = 7.  Sparse: every byte of
      // shuffle leaves its node.
      build("rack-sparse", {{0, 1}, {1, 1}, {2, 1}, {3, 1},
                            {4, 1}, {5, 1}, {6, 1}, {7, 1}}),
      // Two dense nodes in different racks -> DC = 8.  Farther than
      // rack-sparse but 4-way co-location: the paper's anomaly pair.
      build("cross-rack-packed", {{0, 4}, {10, 4}}),
      // Eight single-VM nodes over three racks -> DC = 12.
      build("three-rack-sparse", {{0, 1}, {1, 1}, {2, 1},
                                  {10, 1}, {11, 1}, {12, 1},
                                  {20, 1}, {21, 1}}),
  };
}

}  // namespace vcopt::workload
