// An allocation matrix C (paper §II item 4): C(i,j) = number of VMs of type
// j placed on node i for one virtual cluster.  Carries the paper's central
// metric: the cluster distance DC(C) of Definition 1, minimised over the
// choice of central node.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/request.h"
#include "util/matrix.h"

namespace vcopt::cluster {

class Topology;

/// Result of evaluating DC(C): the best central node and its distance sum.
struct CentralNode {
  std::size_t node = 0;
  double distance = 0;
};

class Allocation {
 public:
  Allocation() = default;
  Allocation(std::size_t nodes, std::size_t types);
  explicit Allocation(util::IntMatrix counts);

  std::size_t node_count() const { return counts_.rows(); }
  std::size_t type_count() const { return counts_.cols(); }

  int& at(std::size_t node, std::size_t type) { return counts_.at(node, type); }
  int at(std::size_t node, std::size_t type) const { return counts_.at(node, type); }

  /// Adds `delta` VMs of `type` on `node`, keeping the matrix's row/col sum
  /// cache consistent incrementally — the Theorem-2 swap loop uses this so
  /// vms_of_type() stays O(1) across thousands of swaps.
  void add(std::size_t node, std::size_t type, int delta) {
    counts_.add_at(node, type, delta);
  }

  const util::IntMatrix& counts() const { return counts_; }

  /// Number of VMs (of all types) hosted on `node`: sum_j C(node, j).
  /// Amortised O(1) via the matrix sum cache.
  int vms_on_node(std::size_t node) const { return counts_.row_sum(node); }
  /// Cluster-wide count of VMs of `type`: sum_i C(i, type).  Amortised O(1).
  int vms_of_type(std::size_t type) const { return counts_.col_sum(type); }
  int total_vms() const { return counts_.total(); }
  bool empty_allocation() const { return total_vms() == 0; }

  /// Nodes hosting at least one VM.
  std::vector<std::size_t> used_nodes() const;

  /// Distance of the cluster when node k is forced as central node:
  /// sum_i (sum_j C_ij) * D(i, k), summed over the used nodes in ascending
  /// order.  The topology form is the paper's latency model; the matrix form
  /// takes an arbitrary metric (the exact solvers, measured distances).
  double distance_from(std::size_t k, const Topology& topology) const;
  double distance_from(std::size_t k, const util::DoubleMatrix& dist) const;

  /// Definition 1: DC(C) = min_k distance_from(k), the lowest-index
  /// minimiser on ties.  The paper lets any physical node be the central
  /// node, but under the topology's tiers an unused node is strictly beaten
  /// by a used node in its rack (or, failing that, its cloud; or any used
  /// node), so only the u used nodes are tried: O(n + u^2), and the same
  /// node and bitwise the same distance as trying all n (docs/algorithms.md).
  /// The empty allocation gives {0, 0}.
  CentralNode best_central(const Topology& topology) const;
  /// Definition 1 over an arbitrary metric D: every node is tried, O(n^2).
  CentralNode best_central(const util::DoubleMatrix& dist) const;

  /// Weighted variant of distance_from (a §VII-style refinement): VM types
  /// contribute proportionally to `weights[type]` (e.g. compute units, a
  /// proxy for the traffic a VM generates) instead of uniformly.
  /// weights must be positive with size == type_count().
  double weighted_distance_from(std::size_t k, const util::DoubleMatrix& dist,
                                const std::vector<double>& weights) const;

  /// True if this allocation delivers exactly the requested counts:
  /// for all j, sum_i C_ij == R_j.
  bool satisfies(const Request& request) const;

  /// True if the allocation fits in remaining capacity: C_ij <= L_ij.
  bool fits(const util::IntMatrix& remaining) const;

  /// True if all entries are non-negative (structural sanity).
  bool valid() const { return counts_.all_nonnegative(); }

  std::string describe() const;

  bool operator==(const Allocation& o) const { return counts_ == o.counts_; }

 private:
  util::IntMatrix counts_;
};

}  // namespace vcopt::cluster
