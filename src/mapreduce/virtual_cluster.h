// A provisioned virtual cluster seen from the MapReduce runtime: the list of
// VM instances with the physical node each is hosted on.  Derived from an
// Allocation matrix; the bridge between the placement layer and the job
// simulator.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/topology.h"

namespace vcopt::mapreduce {

struct VmInstance {
  std::size_t vm = 0;    ///< dense VM index within the virtual cluster
  std::size_t node = 0;  ///< hosting physical node
  std::size_t type = 0;  ///< VM type (column of the allocation matrix)
};

class VirtualCluster {
 public:
  VirtualCluster() = default;

  /// Expands an allocation matrix into individual VM instances, ordered by
  /// (node, type) for determinism.
  static VirtualCluster from_allocation(const cluster::Allocation& alloc);

  std::size_t size() const { return vms_.size(); }
  const VmInstance& vm(std::size_t i) const;
  const std::vector<VmInstance>& vms() const { return vms_; }

  /// Appends one VM on `node` (repair: a replacement joining the cluster
  /// mid-job).  Returns the new VM's dense index.  `node` and `type` must be
  /// within the allocation the cluster was built from.
  std::size_t add_vm(std::size_t node, std::size_t type);

  /// Physical nodes hosting at least one VM (deduplicated, sorted).
  std::vector<std::size_t> nodes() const;

  /// The paper's cluster-affinity metric for this cluster (Definition 1).
  double distance(const cluster::Topology& topology) const;

 private:
  std::vector<VmInstance> vms_;
  cluster::Allocation alloc_;
};

}  // namespace vcopt::mapreduce
