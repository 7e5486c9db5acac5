// An allocation C (paper §II item 4): C(i,j) = number of VMs of type j
// placed on node i for one virtual cluster.  The paper writes C as an n×m
// matrix; a virtual cluster touches only a handful of nodes, so C is stored
// as its nonzero cells, sorted by (node, type).  Carries the paper's central
// metric: the cluster distance DC(C) of Definition 1, minimised over the
// choice of central node.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Sparse C: the entries (node, type, count) with count > 0, sorted by
/// (node, type), plus the n×m shape the shape checks compare.  No member is
/// n- or n×m-sized.  With k entries: at() const is a binary search,
/// O(log k); add(), entries(), used_nodes(), vms_of_type(), total_vms(),
/// distance_from(k, topology), satisfies(), fits() and == are O(k);
/// best_central(topology) is O(k + u²) over the u used nodes; to_matrix()
/// is the explicit O(n·m) dense view.  Entries visit nodes in ascending
/// order, as a dense row scan does, so every sum over them adds the same
/// terms in the same order (docs/algorithms.md).
class Allocation {
 public:
  /// One nonzero cell of C.
  struct Entry {
    std::uint32_t node = 0;
    std::uint32_t type = 0;
    int count = 0;  ///< always > 0
    bool operator==(const Entry&) const = default;
  };
  /// The entries' order: by node, then by type.
  static bool cell_less(const Entry& a, const Entry& b) {
    return a.node != b.node ? a.node < b.node : a.type < b.type;
  }

  /// Write access to one cell: `a.at(i, j) = v`, `+= d` and `-= d` go
  /// through add(), so a count that reaches 0 drops its entry and one that
  /// would go below 0 throws.  Reads convert to int.
  class CountRef {
   public:
    operator int() const {  // NOLINT(google-explicit-constructor)
      return static_cast<const Allocation&>(*alloc_).at(node_, type_);
    }
    CountRef& operator=(int v) {
      alloc_->add(node_, type_, v - static_cast<int>(*this));
      return *this;
    }
    CountRef& operator=(const CountRef& o) {
      return *this = static_cast<int>(o);
    }
    CountRef& operator+=(int d) {
      alloc_->add(node_, type_, d);
      return *this;
    }
    CountRef& operator-=(int d) {
      alloc_->add(node_, type_, -d);
      return *this;
    }

   private:
    friend class Allocation;
    CountRef(Allocation* alloc, std::size_t node, std::size_t type)
        : alloc_(alloc), node_(node), type_(type) {}
    Allocation* alloc_;
    std::size_t node_;
    std::size_t type_;
  };

  Allocation() = default;
  /// The empty allocation of an n×m shape.  Throws on a zero dimension.
  Allocation(std::size_t nodes, std::size_t types);
  /// From a dense matrix: O(n·m).  Throws on a zero dimension or a
  /// negative cell.
  explicit Allocation(const util::IntMatrix& counts);
  /// From entries already sorted by (node, type) with positive counts, as
  /// the placement paths produce them: O(k).  Throws std::invalid_argument
  /// if they are not, or if one lies outside the shape.
  static Allocation from_entries(std::size_t nodes, std::size_t types,
                                 std::vector<Entry> entries);

  std::size_t node_count() const { return nodes_; }
  std::size_t type_count() const { return types_; }

  /// C(node, type), 0 for a cell without an entry.  Throws
  /// std::out_of_range outside the shape.
  int at(std::size_t node, std::size_t type) const;
  CountRef at(std::size_t node, std::size_t type) {
    check_index(node, type);
    return CountRef(this, node, type);
  }

  /// C(node, type) += delta.  Throws std::out_of_range outside the shape,
  /// and std::invalid_argument, leaving C unchanged, if the count would go
  /// below 0.
  void add(std::size_t node, std::size_t type, int delta);

  const std::vector<Entry>& entries() const { return entries_; }

  /// The dense n×m matrix: O(n·m), for the exact solvers, the checked-build
  /// validators and tests.  The served path stays on entries().
  util::IntMatrix to_matrix() const;

  /// L -= C over the entries through add_at, which keeps L's row and column
  /// sum cache warm: O(k).  Returns false if a debited cell went negative.
  /// Throws std::invalid_argument on a shape mismatch.
  bool debit_from(util::IntMatrix& remaining) const;

  /// Number of VMs (of all types) hosted on `node`: sum_j C(node, j).
  /// O(log k + m).
  int vms_on_node(std::size_t node) const;
  /// Cluster-wide count of VMs of `type`: sum_i C(i, type).  O(k).
  int vms_of_type(std::size_t type) const;
  int total_vms() const;
  bool empty_allocation() const { return entries_.empty(); }

  /// Nodes hosting at least one VM, ascending.
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
  /// node), so only the u used nodes are tried: O(k + u^2), and the same
  /// node and bitwise the same distance as trying all n (docs/algorithms.md).
  /// The empty allocation gives {0, 0}.
  CentralNode best_central(const Topology& topology) const;
  /// Definition 1 over an arbitrary metric D: every node is tried, O(n·u).
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

  /// True if the allocation fits in remaining capacity: C_ij <= L_ij on
  /// every entry (a cell C leaves empty fits whatever L holds there).
  bool fits(const util::IntMatrix& remaining) const;

  std::string describe() const;

  bool operator==(const Allocation& o) const {
    return nodes_ == o.nodes_ && types_ == o.types_ && entries_ == o.entries_;
  }

 private:
  void check_index(std::size_t node, std::size_t type) const;

  std::vector<Entry> entries_;
  std::size_t nodes_ = 0;
  std::size_t types_ = 0;
};

}  // namespace vcopt::cluster
