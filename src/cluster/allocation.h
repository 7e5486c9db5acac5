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
  /// sum_i (sum_j C_ij) * D(i, k).
  double distance_from(std::size_t k, const util::DoubleMatrix& dist) const;

  /// Definition 1: DC(C) = min_k distance_from(k).  The paper restricts the
  /// central node to any physical node (not only allocated ones); since D is
  /// a hierarchy metric the minimiser is always a used node or tied with one,
  /// but we scan all n to match the definition exactly.
  CentralNode best_central(const util::DoubleMatrix& dist) const;

  /// All central-node choices that achieve the minimum (ties are common when
  /// the whole cluster sits in one rack).
  std::vector<std::size_t> optimal_centrals(const util::DoubleMatrix& dist) const;

  /// Weighted variant of Definition 1 (a §VII-style refinement): VM types
  /// contribute proportionally to `weights[type]` (e.g. compute units, a
  /// proxy for the traffic a VM generates) instead of uniformly.
  /// weights must be positive with size == type_count().
  double weighted_distance_from(std::size_t k, const util::DoubleMatrix& dist,
                                const std::vector<double>& weights) const;
  CentralNode best_weighted_central(const util::DoubleMatrix& dist,
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

class Topology;

/// Definition 1 evaluated through the 4-tier hierarchy instead of the dense
/// D matrix: with per-node VM weights w, rack totals and cloud totals, the
/// distance from candidate k collapses to
///   d0·w[k] + d1·(rack[k]−w[k]) + d2·(cloud[k]−rack[k]) + d3·(T−cloud[k]),
/// an O(n) scan versus best_central's O(n²).  Bit-identical to best_central
/// when the DistanceConfig tiers are small non-negative integers (every
/// partial sum is then an exact integer, so summation order is irrelevant);
/// falls back to best_central(dist) for fractional configs, where FP
/// reassociation could flip near-ties.
CentralNode best_central_tiered(const Allocation& alloc,
                                const Topology& topology);

}  // namespace vcopt::cluster
