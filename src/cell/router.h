// CellRouter: the cheap summary pass of route-then-place.  For one request
// it walks the directory's sketches (O(cells)), discards every cell whose
// exact free-total bound cannot host the request (prune — provably lossless,
// see docs/cells.md), scores the survivors by affinity potential, and
// returns the k best as a shortlist (winner first, runners-up as spill
// targets).
//
// The score is a deterministic tuple, smaller = better:
//   1. affinity class — 0 when some rack subtree fits the whole request
//      (DC then stays at intra-rack distance), else 1;
//   2. racks_needed — greedy count of racks whose capped coverage reaches
//      the request's VM total (fewer racks => tighter placement);
//   3. fragmentation per mille — prefer cells whose free capacity clusters;
//   4. cell id — total order tie-break, so routing is reproducible.
#pragma once

#include <cstddef>
#include <vector>

#include "cell/directory.h"
#include "cluster/request.h"

namespace vcopt::cell {

/// Routing verdict for one request.
struct RouteDecision {
  /// Cells that can host the request, best score first, at most k entries.
  std::vector<std::size_t> shortlist;
  /// Cells discarded by the exact free-total bound.
  std::size_t pruned = 0;
};

struct CellRouterOptions {
  std::size_t shortlist = 2;  ///< k cells to keep (>= 1)
};

class CellRouter {
 public:
  explicit CellRouter(CellRouterOptions options = {}) : options_(options) {}

  /// Scores every cell's sketch.
  RouteDecision route(const cluster::Request& request,
                      const CellDirectory& directory) const;

 private:
  CellRouterOptions options_;
};

}  // namespace vcopt::cell
