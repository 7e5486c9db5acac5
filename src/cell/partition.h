// Cell partition: a static, rack-aligned decomposition of the physical
// topology into cells (rack groups / pods).  Placement becomes
// route-then-place: a router scores per-cell capacity sketches (O(cells)),
// then Algorithm 1 runs only inside the winning cell (O(cell size)) — see
// docs/cells.md.
//
// The partition is a pure function of (topology, options): racks are walked
// in id order and packed whole into consecutive cells until each cell holds
// at least the target node count.  Racks are never split, so the exact
// subtree-capacity bounds of Fuerst/Pacut/Schmid's tree-tractability result
// apply per cell AND per rack-within-cell.  With target_cells == 1 the
// partition is the identity: one cell whose node/rack/cloud ids coincide
// with the global ids, which is what makes single-cell routing bitwise
// identical to the flat scan.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/topology.h"
#include "util/matrix.h"

namespace vcopt::cell {

/// How to cut the topology into cells.  Exactly one of the two knobs is
/// normally set; with both zero the partition defaults to one cell per
/// cloud (and one cell total for a single-cloud topology).
struct CellPartitionOptions {
  /// Target number of cells (0 = derive from cell_size).  The actual count
  /// can be lower when racks are large, never higher.
  std::size_t target_cells = 0;
  /// Target nodes per cell (0 = derive from target_cells).  A cell closes
  /// once it reaches this size; a single rack larger than the target still
  /// becomes one whole cell.
  std::size_t cell_size = 0;
};

/// One cell: a contiguous run of whole racks, with the index maps needed to
/// translate between global node/rack ids and the cell's local ids.
struct Cell {
  std::size_t id = 0;
  /// Global node ids in ascending order; local node i is nodes[i].
  std::vector<std::size_t> nodes;
  /// Global rack ids in ascending order; local rack r is racks[r].
  std::vector<std::size_t> racks;
};

class CellPartition {
 public:
  /// Throws std::invalid_argument on an empty topology (cannot happen via
  /// cluster::Topology) — otherwise every topology yields >= 1 cell.
  CellPartition(const cluster::Topology& topology, CellPartitionOptions options);

  std::size_t cell_count() const { return cells_.size(); }
  const Cell& cell(std::size_t c) const { return cells_.at(c); }
  const std::vector<Cell>& cells() const { return cells_; }

  /// The cell owning a global node id.
  std::size_t cell_of_node(std::size_t node) const {
    return node_cell_.at(node);
  }
  /// The node's local index inside its cell.
  std::size_t local_index(std::size_t node) const {
    return node_local_.at(node);
  }
  /// The cell-local rack index of a global rack id.
  std::size_t local_rack(std::size_t rack) const { return rack_local_.at(rack); }

  /// The cell's own Topology: same intra-cell structure (rack membership and
  /// cloud membership compressed to dense local ids, same DistanceConfig),
  /// so for any two nodes in the cell the local distance equals the global
  /// one.  Algorithm 1 runs directly against this.
  const cluster::Topology& cell_topology(std::size_t c) const {
    return topologies_.at(c);
  }

  /// Per-type column sums of `capacity` restricted to the cell's rows — the
  /// cell's total capacity, used for over-capacity classification when a
  /// window plans inside the cell.  `int` to match CloudSnapshot's
  /// capacity_col_sums and placement::plan_laddered.  O(cell size x types).
  std::vector<int> cell_capacity_col_sums(std::size_t c,
                                          const util::IntMatrix& capacity) const;

  /// Relabels a cell-local allocation (nodes = cell nodes) to global node
  /// ids in a global shape: O(k).  Cell nodes ascend, so the relabelled
  /// entries stay sorted.
  cluster::Allocation to_global(std::size_t c, const cluster::Allocation& local,
                                std::size_t global_nodes) const;

  std::string describe() const;

 private:
  std::vector<Cell> cells_;
  std::vector<std::size_t> node_cell_;
  std::vector<std::size_t> node_local_;
  std::vector<std::size_t> rack_local_;
  std::vector<cluster::Topology> topologies_;
};

}  // namespace vcopt::cell
