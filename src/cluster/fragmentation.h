// Free-capacity fragmentation metrics (paper §I: affinity-aware
// provisioning lets "cloud providers obtain a higher resource utilization
// ratio").  Affinity-blind policies scatter allocations, so the capacity
// left over is crumbs spread across racks; these metrics quantify how
// usable the leftover is for FUTURE low-distance clusters.
#pragma once

#include "cluster/inventory.h"
#include "cluster/topology.h"

namespace vcopt::cluster {

struct FragmentationStats {
  /// Mean over types (with availability > 0) of the largest single-node
  /// share of that type's free capacity: 1.0 = all free capacity of each
  /// type sits on one node, -> 0 = dust.
  double node_concentration = 0;
  /// Same, with racks instead of nodes.
  double rack_concentration = 0;
  /// Largest VM count (all types combined) hostable on a single node.
  int largest_single_node_request = 0;
  /// Largest VM count hostable within a single rack.
  int largest_single_rack_request = 0;
  /// Total free VMs.
  int free_vms = 0;
};

/// Computes fragmentation of the inventory's current free capacity in one
/// O(n·m) pass.  Drained and failed nodes contribute nothing (they offer no
/// capacity).  This is the reference: cluster::ClusterSampler keeps the same
/// figures incrementally from per-rack aggregates, bitwise equal to this,
/// and checked builds compare the two on every sample.
FragmentationStats fragmentation(const Inventory& inventory,
                                 const Topology& topology);

}  // namespace vcopt::cluster
