// Placement-policy interface.  A policy maps (request, remaining capacity,
// topology distances) to an allocation; the provisioner and the cluster
// simulator are policy-agnostic.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/capacity_view.h"
#include "cluster/request.h"
#include "cluster/topology.h"
#include "util/matrix.h"

namespace vcopt::placement {

/// Allocation plus the evaluated cluster distance (Definition 1) and the
/// central node achieving it.
struct Placement {
  cluster::Allocation allocation;
  std::size_t central = 0;
  double distance = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Computes an allocation for `request` against the remaining capacity
  /// `view.matrix()` and the distances of `topology`.  Returns nullopt when
  /// the request cannot be satisfied from it.  A bare matrix converts to a
  /// view; a view from a Cloud also carries its class index, which only
  /// OnlineHeuristic reads (cluster/capacity_view.h).
  virtual std::optional<Placement> place(const cluster::Request& request,
                                         const cluster::CapacityView& view,
                                         const cluster::Topology& topology) = 0;

  virtual std::string name() const = 0;
};

/// Evaluates an allocation into a Placement (best central + distance).
Placement evaluate(cluster::Allocation alloc,
                   const cluster::Topology& topology);

/// Factory for the built-in policies, keyed by name:
/// "online-heuristic", "sd-exact", "first-fit", "spread", "random[:seed]".
std::unique_ptr<PlacementPolicy> make_policy(const std::string& spec);

/// Names accepted by make_policy (without the random seed suffix).
std::vector<std::string> policy_names();

}  // namespace vcopt::placement
