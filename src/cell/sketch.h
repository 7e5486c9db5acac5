// Per-cell capacity sketch: the summary the router scores instead of
// scanning nodes.  Because a cell is a union of whole racks of the
// tree-structured physical topology, its aggregates are *exact* admission
// bounds, not heuristics (Fuerst/Pacut/Schmid: tree instances of VNE are the
// tractable case):
//
//   free_total[j]  — total free slots of type j in the cell.  Algorithm 1's
//                    fill visits every cell node, so `request <= free_total`
//                    is exact intra-cell feasibility: the cell can host the
//                    request iff the bound holds.
//   rack_free(r,j) — the same bound per rack subtree: a rack satisfying the
//                    whole request caps DC at total_vms * d1.
//
// Sketches are owned and kept incrementally fresh by CellDirectory; the
// fragmentation signal is derived on demand from rack_free.
#pragma once

#include <vector>

#include "cluster/request.h"
#include "util/matrix.h"

namespace vcopt::cell {

struct CellSketch {
  /// Exact per-type free totals over the cell's live (non-failed,
  /// non-drained) nodes, net of migration reservations.
  std::vector<long long> free_total;
  /// Per-rack subtree aggregates: local rack x type, same liveness rules.
  util::IntMatrix rack_free;

  /// Exact admission bound: can this cell host `request` at all?
  bool admits(const cluster::Request& request) const {
    for (std::size_t j = 0; j < free_total.size(); ++j) {
      if (request.count(j) > free_total[j]) return false;
    }
    return true;
  }

  /// True when some single rack subtree satisfies every type — the request
  /// then fits at intra-rack distance.
  bool rack_admits(const cluster::Request& request) const {
    for (std::size_t r = 0; r < rack_free.rows(); ++r) {
      bool fits = true;
      for (std::size_t j = 0; j < rack_free.cols(); ++j) {
        if (request.count(j) > rack_free(r, j)) {
          fits = false;
          break;
        }
      }
      if (fits) return true;
    }
    return false;
  }

  /// Fragmentation in [0, 1]: how much of the cell's free capacity sits
  /// outside its fullest rack.  0 = one rack holds everything free; high
  /// values mean placements will straddle racks.
  double fragmentation() const {
    long long total = 0;
    for (long long v : free_total) total += v;
    if (total <= 0) return 0.0;
    long long best_rack = 0;
    for (std::size_t r = 0; r < rack_free.rows(); ++r) {
      long long rt = 0;
      for (std::size_t j = 0; j < rack_free.cols(); ++j) rt += rack_free(r, j);
      if (rt > best_rack) best_rack = rt;
    }
    return 1.0 - static_cast<double>(best_rack) / static_cast<double>(total);
  }
};

}  // namespace vcopt::cell
