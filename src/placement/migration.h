// Affinity-aware VM migration (paper §VI(2): "affinity-aware virtual
// cluster VM migration technology is used to minimize the communication
// overhead"; §VII: recomputing placements when VMs are down/reconfigured).
//
// After churn, a virtual cluster can usually be tightened: capacity freed by
// departed tenants opens slots nearer its central node.
// consolidate_budgeted() hill-climbs with Theorem-1 moves — relocate one VM
// into free capacity on a node strictly nearer the central node — until no
// improving move remains, re-evaluating the central node after each move.
// Every accepted move strictly reduces DC, so termination is guaranteed.
#pragma once

#include <cstddef>
#include <vector>

#include "placement/policy.h"

namespace vcopt::placement {

/// One VM relocation.
struct Migration {
  std::size_t from_node = 0;
  std::size_t to_node = 0;
  std::size_t type = 0;
};

/// One accepted budgeted move: the relocation plus its DC gain (for the
/// central node at the moment the move was chosen) and the charged cost.
struct BudgetedMove {
  Migration move;
  double gain = 0;
  double cost = 0;
  double net() const { return gain - cost; }
};

struct BudgetedConsolidation {
  std::vector<BudgetedMove> moves;
  double distance_before = 0;
  double distance_after = 0;
  double total_cost = 0;

  double improvement() const { return distance_before - distance_after; }
};

/// Tuning for consolidate_budgeted().
struct BudgetedConsolidateOptions {
  std::size_t max_migrations = SIZE_MAX;
  /// Data-movement cost charged per relocated VM, indexed by VM type (DC
  /// units — e.g. memory_gb * cost_per_gb + a shuffle-traffic term; the
  /// rebalancer builds this from cluster::VmType).  Empty = all zero: a
  /// plain hill climb that takes every improving move.
  std::vector<double> move_cost;
  /// A move is accepted only when gain - move_cost[type] exceeds this.
  double min_net_gain = 0;
};

/// Tightens `placement` in place, consuming/freeing capacity in `remaining`
/// (the matrix is updated to reflect the moves), and returns the migration
/// plan.  Each relocation is an economic decision (Theorem 1/2 generalized
/// to migration with a cost budget): per step it picks the (donor,
/// receiver, type) triple with the highest NET gain — DC gain minus the
/// per-type move cost — and stops when no move nets more than
/// `min_net_gain` or after `max_migrations` moves.  The allocation keeps
/// satisfying its request (moves preserve per-type totals) and never
/// oversubscribes `remaining`.
BudgetedConsolidation consolidate_budgeted(
    Placement& placement, util::IntMatrix& remaining,
    const cluster::Topology& topology,
    const BudgetedConsolidateOptions& options = {});

}  // namespace vcopt::placement
