// Remaining capacity as a placement policy reads it: a matrix, and, from a
// Cloud, the free-vector class index of that matrix's state (FreeIndex)
// with the rows a decision window has debited since (WindowOverlay).
//
// A bare matrix converts implicitly, so every caller that hands a policy a
// util::IntMatrix still compiles; such a view has no index and policies
// scan it.  With an index, OnlineHeuristic answers its kBestOfAllStarts
// query, and fills the winner's off-rack tiers, from the classes instead
// of from every row (docs/algorithms.md, "The class query").  The matrix
// is the cloud's own free view (Cloud::capacity_view()), or a decision
// window's copy of it once the window has debited a grant a later
// placement must see (service::detail::plan_window).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/free_index.h"
#include "util/matrix.h"

namespace vcopt::cluster {

/// The nodes whose rows a window's own debits changed after the index's
/// state was taken.  A query and its fill read these rows from the matrix
/// and skip the nodes in their class walks.
class WindowOverlay {
 public:
  /// Records the nodes of `alloc`'s entries: O(k).
  void add(const Allocation& alloc) {
    for (const Allocation::Entry& e : alloc.entries()) {
      if (nodes_.empty() || nodes_.back() != e.node) nodes_.push_back(e.node);
    }
    sorted_ = false;
  }
  /// The recorded nodes, ascending and distinct.  The first read after an
  /// add() sorts them, so a window whose queries never read the overlay
  /// never sorts it; like util::Matrix's sums, that write happens under
  /// const, so do not read one overlay from two threads at once.
  const std::vector<std::uint32_t>& nodes() const {
    if (!sorted_) {
      std::sort(nodes_.begin(), nodes_.end());
      nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
      sorted_ = true;
    }
    return nodes_;
  }

 private:
  mutable std::vector<std::uint32_t> nodes_;
  mutable bool sorted_ = true;
};

/// A non-owning view; what it points at must outlive it.  With an index,
/// every row of the matrix outside the overlay equals its class's free row
/// in the index, and every overlay row is nonnegative.
class CapacityView {
 public:
  /// A bare matrix: no index, so placement scans it.  Implicit on purpose:
  /// a matrix goes wherever a view does.
  CapacityView(const util::IntMatrix& matrix) : matrix_(&matrix) {}
  CapacityView(const util::IntMatrix& matrix, const FreeIndex* index,
               const WindowOverlay* overlay = nullptr)
      : matrix_(&matrix), index_(index), overlay_(overlay) {}

  const util::IntMatrix& matrix() const { return *matrix_; }
  /// The index of the matrix's state before the overlay, or null.
  const FreeIndex* index() const { return index_; }
  /// The rows changed since the index's state, or null for none.
  const WindowOverlay* overlay() const { return overlay_; }

 private:
  const util::IntMatrix* matrix_ = nullptr;
  const FreeIndex* index_ = nullptr;
  const WindowOverlay* overlay_ = nullptr;
};

}  // namespace vcopt::cluster
