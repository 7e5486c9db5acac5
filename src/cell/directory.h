// CellDirectory: owns the partition and one CellSketch per cell, and keeps
// the sketches incrementally fresh by listening to every capacity mutation
// of the cloud (grant / release / fault / recover / drain / undrain / lease
// resize / two-phase migration).  The maintenance protocol (docs/cells.md):
//
//   1. The cloud keeps per-rack free sums of its effective free capacity
//      (Cloud::free_index — Cloud::remaining_at summed per rack: zero on
//      failed/drained nodes, net of migration reservations), and has
//      updated them by the time it calls the listener.
//   2. On a mutation the cloud reports the touched node ids; the directory
//      copies each touched rack's sums into its cell's rack_free row and
//      applies the row's change to the cell's free_total.  Cells hold
//      whole racks, so a rack's sums are its sketch row.
//
// Not internally synchronised: mutations arrive synchronously from the
// cloud's mutators, so the directory inherits whatever discipline guards
// the cloud (the service's mu_, or plain single-threaded use in sims).
#pragma once

#include <memory>
#include <vector>

#include "cell/partition.h"
#include "cell/sketch.h"
#include "check/validators.h"
#include "cluster/cloud.h"

namespace vcopt::cell {

class CellDirectory : public cluster::CapacityListener {
 public:
  /// Builds the partition and the initial sketches from `cloud`, and
  /// registers itself as the cloud's capacity listener.  The cloud must
  /// outlive the directory (the destructor deregisters).
  CellDirectory(cluster::Cloud& cloud, CellPartitionOptions options);
  ~CellDirectory() override;
  CellDirectory(const CellDirectory&) = delete;
  CellDirectory& operator=(const CellDirectory&) = delete;

  const CellPartition& partition() const { return partition_; }
  std::size_t cell_count() const { return partition_.cell_count(); }
  std::size_t node_count() const { return cloud_.node_count(); }

  /// The cell's sketch, exact for the cloud's committed state.
  const CellSketch& sketch(std::size_t cell) const {
    return sketches_.at(cell);
  }

  /// Recomputes every sketch from the ground-truth cloud (O(nodes)).
  void rebuild();

  /// Satellite validator: recomputes each sketch from the ground-truth cloud
  /// and compares field by field.  Wired under VCOPT_VALIDATE in the routing
  /// path and called directly by the storm tests.
  check::ValidationResult validate() const;

  // CapacityListener: refresh the touched racks' rows from the cloud's rack
  // sums and apply their deltas.  O(m) per touched node.
  void on_capacity_changed(const cluster::Cloud& cloud,
                           const std::vector<std::size_t>& nodes) override;

 private:
  CellSketch compute_sketch(std::size_t cell) const;

  cluster::Cloud& cloud_;
  CellPartition partition_;
  std::vector<CellSketch> sketches_;
};

}  // namespace vcopt::cell
