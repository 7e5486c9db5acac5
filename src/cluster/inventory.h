// Capacity bookkeeping of §II: the matrices M (maximum VMs each node can
// host, per type), C (currently allocated) and L = M - C (remaining), plus
// the aggregate availability vector A with A_j = sum_i L_ij.
//
// Invariants maintained by this class:
//   0 <= C_ij <= M_ij  for all i, j         (no oversubscription)
//   L = M - C                                (derived, not stored separately)
//   A_j = sum_i L_ij                         (derived)
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/request.h"
#include "util/matrix.h"

namespace vcopt::cluster {

/// Outcome of the admission test of §II.
enum class Admission {
  kAccept,  ///< R_j <= A_j for all j: can be served now
  kWait,    ///< fits total capacity M but not current availability: queue it
  kReject,  ///< R_j > sum_i M_ij for some j: can never be served
};

const char* to_string(Admission a);

class Inventory {
 public:
  /// Starts with C = 0 (nothing allocated).
  explicit Inventory(util::IntMatrix max_capacity);

  std::size_t node_count() const { return max_.rows(); }
  std::size_t type_count() const { return max_.cols(); }

  const util::IntMatrix& max_capacity() const { return max_; }
  const util::IntMatrix& allocated() const { return alloc_; }

  /// Remaining capacity L = M - C (recomputed; callers hold it by value).
  util::IntMatrix remaining() const;
  int remaining_at(std::size_t node, std::size_t type) const;

  /// Availability vector A: A_j = sum_i L_ij.
  std::vector<int> available() const;
  int available_of(std::size_t type) const;

  /// §II admission rule for a request.
  Admission admit(const Request& request) const;

  /// Applies an allocation (C += alloc), O(k) in its entries.  Throws
  /// std::invalid_argument if the allocation does not fit the remaining
  /// capacity; the inventory is left unchanged in that case (strong
  /// exception guarantee).
  void allocate(const Allocation& alloc);

  /// Releases an allocation (C -= alloc), O(k).  Throws, leaving the
  /// inventory unchanged, if more VMs would be released than are allocated
  /// on some node/type.
  void release(const Allocation& alloc);

  /// Fraction of total capacity currently allocated, in [0,1].
  double utilization() const;

  /// Marks a node as draining (maintenance / suspected failure, paper §VII):
  /// its existing allocations stay, but it stops offering remaining
  /// capacity until undrained.  Idempotent.
  void drain_node(std::size_t node);
  void undrain_node(std::size_t node);
  bool is_drained(std::size_t node) const;
  std::size_t drained_count() const;

  /// Marks a node as crashed: it stops offering remaining capacity until
  /// recovered, like a drain, but with harder semantics — VMs allocated
  /// there are considered lost and stay booked in C only until the repair
  /// layer shrinks their leases (Cloud::shrink_lease).  Failures are
  /// transient (a recovery event restores the node), so admit() keeps
  /// counting the failed node's maximum capacity for its can-never-be-served
  /// test while availability (and hence kWait) reflects the outage.
  /// Idempotent.
  void fail_node(std::size_t node);
  void recover_node(std::size_t node);
  bool is_failed(std::size_t node) const;
  std::size_t failed_count() const;

  std::string describe() const;

 private:
  util::IntMatrix max_;
  util::IntMatrix alloc_;
  std::vector<bool> drained_;
  std::vector<bool> failed_;
};

}  // namespace vcopt::cluster
