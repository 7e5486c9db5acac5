// Immutable point-in-time views of a Cloud's capacity.
//
// A CloudSnapshot freezes everything a decision window needs to plan
// placements — the remaining-capacity matrix L, the per-type capacity
// column sums that drive the admit() kReject rung, and a pointer to the
// (immutable) topology — and points at the cloud's free-vector class index
// with the version it saw.  service::detail::decide_window builds one per
// window and plans against it with the pure service::detail::plan_window
// before committing the grants to the cloud.  Building one copies the free
// view the Cloud keeps current (Cloud::remaining()), sums included: no
// M − C arithmetic and no re-summing; the index is not copied.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cloud.h"
#include "util/matrix.h"

namespace vcopt::cluster {

/// One frozen view of the Cloud.  Immutable after SnapshotArena::build.
struct CloudSnapshot {
  /// Caller-chosen tag of the Cloud state this snapshot reflects.
  std::uint64_t epoch = 0;
  /// Service-clock time the snapshot was built; not used for any decision.
  double build_time = 0;
  /// Cloud::remaining() at build time, with its row/col sum caches warm.
  util::IntMatrix remaining;
  /// Per-type total capacity sum_i M_ij including drained/failed nodes —
  /// the admit() kReject test ("can never be served") verbatim.
  std::vector<int> capacity_col_sums;
  /// The cloud's topology; topologies are immutable for a Cloud's lifetime,
  /// so sharing the pointer is safe.
  const Topology* topology = nullptr;
  /// The cloud's class index of `remaining`, not a copy: it describes
  /// `remaining` only while its version() is still `index_version`, that
  /// is, until the next capacity mutation.  A window plans before its
  /// grants land, so its queries see that version.
  const FreeIndex* index = nullptr;
  std::uint64_t index_version = 0;
  std::size_t type_count = 0;
};

/// Builds CloudSnapshots.  Holds no state, so any instance (or a
/// temporary) will do.
class SnapshotArena {
 public:
  /// Builds a snapshot of `cloud` tagged with `epoch`.  The snapshot owns
  /// its storage, so it may outlive the arena.
  std::shared_ptr<const CloudSnapshot> build(const Cloud& cloud,
                                             std::uint64_t epoch,
                                             double build_time) const;
};

}  // namespace vcopt::cluster
