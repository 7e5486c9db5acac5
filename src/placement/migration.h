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
//
// On top of it sits the drift-repair decision both rebalancers share: the
// service's journaled pass and rebalance::Rebalancer run the same
// RoundPlanner under the same RebalancePolicy, and differ only in how they
// apply the moves it plans (docs/robustness.md).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "cluster/cloud.h"
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

/// Economic model of one live migration (Opposites-Attract style: the gain
/// must beat the cost of moving the data).
struct MigrationCostModel {
  /// DC units charged per GB of the VM type's memory (the copy itself).
  double cost_per_gb = 0.005;
  /// DC units charged per VM in the lease: a proxy for the shuffle traffic
  /// the migration disturbs while the cluster is running.
  double shuffle_cost_factor = 0.02;
};

/// Policy of the drift-repair decision, shared by the service's pass and
/// rebalance::Rebalancer.  The defaults are the Rebalancer's
/// (service::ServiceOptions::rebalance_policy has the service's).
struct RebalancePolicy {
  double tick_period = 10.0;            ///< seconds between rounds
  std::size_t max_moves_per_round = 4;  ///< migration budget per round
  double lease_cooldown = 20.0;  ///< seconds a migrated lease is left alone
  /// A lease has drifted when its DC record satisfies
  /// last > drift_ratio * min (the lease has been measurably tighter).
  double drift_ratio = 1.10;
  MigrationCostModel cost{};  // {}: a designated initializer may omit it
};

/// With RoundPlanner::plan's `slo_hot`, a lease whose DC per VM exceeds
/// this is a candidate even when its DC record is flat (a cluster placed
/// badly from the start has no tighter past to drift from).  The default
/// tiers never exceed it; see docs/observability.md.
inline constexpr double kDcPerVmThreshold = 4.0;

/// One planned move: the lease, its Theorem-2 relocation and economics.
struct PlannedMove {
  cluster::LeaseId lease = 0;
  Migration move;
  double gain = 0;
  double cost = 0;
};

/// What one round decided.
struct RoundPlan {
  bool deferred = false;       ///< health gate: the cloud has failed nodes
  std::size_t candidates = 0;  ///< drifted leases past the rate-limit rails
  std::vector<PlannedMove> moves;
};

/// The drift-repair decision, one round at a time.  Applying the moves is
/// the caller's business.  Not thread-safe; the service calls it under its
/// lock.
class RoundPlanner {
 public:
  explicit RoundPlanner(RebalancePolicy policy) : policy_(policy) {}

  /// Plans one round at `now` (which never decreases across calls): defer
  /// while the cloud has failed nodes; collect the leases whose DC record
  /// drifted (last > drift_ratio * min, or with `slo_hot` DC per VM above
  /// kDcPerVmThreshold), largest drift first, ties by lease id; drop those
  /// with a move in `inflight` or inside their cooldown, forgetting expired
  /// cooldowns; then plan up to max_moves_per_round budgeted Theorem-2
  /// moves, each netting more than its data-movement cost.
  RoundPlan plan(const cluster::Cloud& cloud, double now, bool slo_hot,
                 const std::map<cluster::LeaseId, int>& inflight);

  /// Books a committed move: the rebalance/migrations_committed counter,
  /// the rebalance/migration_gain histogram and the lease's cooldown.
  void record_commit(const PlannedMove& move, double now);

  const RebalancePolicy& policy() const { return policy_; }
  /// Cooldown end per lease; after plan(now), only windows open at `now`.
  const std::map<cluster::LeaseId, double>& cooldowns() const {
    return cooldown_until_;
  }

 private:
  RebalancePolicy policy_;
  std::map<cluster::LeaseId, double> cooldown_until_;
};

}  // namespace vcopt::placement
