// Point-in-time views of a Cloud's capacity, one per decision window.
//
// A CloudSnapshot holds what a decision window plans against — the
// remaining-capacity matrix L, the per-type capacity column sums that drive
// the admit() kReject rung, the topology and the free-vector class index —
// and copies none of it: each field points into the cloud.
// service::detail::decide_window builds one per window, plans against it
// with the pure service::detail::plan_window, then commits the grants to
// the cloud.  The cloud's free view and index change at its next capacity
// mutation, so a snapshot describes the state it was built on only while
// index->version() is still `index_version`; a window plans before its
// grants land, so its plans see that state.  plan_window copies the free
// view only when a debit must be seen by a later placement of the same
// window (docs/performance.md, "The copy-free window").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cloud.h"
#include "util/matrix.h"

namespace vcopt::cluster {

/// One view of the Cloud for a window.  Immutable after SnapshotArena::build;
/// what it points at is the cloud's, and valid while the index version holds.
struct CloudSnapshot {
  /// Caller-chosen tag of the Cloud state this snapshot reflects.
  std::uint64_t epoch = 0;
  /// Service-clock time the snapshot was built; not used for any decision.
  double build_time = 0;
  /// The cloud's free view, Cloud::capacity_view().matrix(), not a copy:
  /// Cloud::remaining()'s cells, with its row and column sums warm.
  const util::IntMatrix* remaining = nullptr;
  /// Per-type total capacity sum_i M_ij including drained/failed nodes —
  /// the admit() kReject test ("can never be served") verbatim.  The
  /// cloud's own, Cloud::capacity_col_sums(), fixed for its lifetime.
  const std::vector<int>* capacity_col_sums = nullptr;
  /// The cloud's topology; topologies are immutable for a Cloud's lifetime,
  /// so sharing the pointer is safe.
  const Topology* topology = nullptr;
  /// The cloud's class index of `remaining`: both describe the state this
  /// snapshot was built on while index->version() is still
  /// `index_version`, that is, until the next capacity mutation.
  const FreeIndex* index = nullptr;
  std::uint64_t index_version = 0;
  std::size_t type_count = 0;
};

/// Builds CloudSnapshots.  Holds no state, so any instance (or a
/// temporary) will do.
class SnapshotArena {
 public:
  /// Builds a snapshot of `cloud` tagged with `epoch`: O(1), no copy.  The
  /// snapshot may outlive the arena, not the cloud.  Checked builds
  /// validate the whole free view and its class index against the books.
  std::shared_ptr<const CloudSnapshot> build(const Cloud& cloud,
                                             std::uint64_t epoch,
                                             double build_time) const;
};

}  // namespace vcopt::cluster
