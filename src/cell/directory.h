// CellDirectory: owns the partition and one CellSketch per cell, and keeps
// the sketches incrementally fresh by listening to every capacity mutation
// of the cloud (grant / release / fault / recover / drain / undrain / lease
// resize / two-phase migration).  The maintenance protocol (docs/cells.md):
//
//   1. The directory mirrors the cloud's effective per-node free capacity
//      (Cloud::remaining_at — zero on failed/drained nodes, net of
//      migration reservations).
//   2. On a mutation the cloud reports the touched node ids; the directory
//      re-reads exactly those rows and applies the deltas to the owning
//      cell's free_total / rack_free.
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
  std::size_t node_count() const { return node_free_.rows(); }

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

  // CapacityListener: re-read the touched rows and apply deltas.
  void on_capacity_changed(const cluster::Cloud& cloud,
                           const std::vector<std::size_t>& nodes) override;

 private:
  CellSketch compute_sketch(std::size_t cell) const;

  cluster::Cloud& cloud_;
  CellPartition partition_;
  std::vector<CellSketch> sketches_;
  /// Mirror of Cloud::remaining_at for delta computation.
  util::IntMatrix node_free_;
};

}  // namespace vcopt::cell
