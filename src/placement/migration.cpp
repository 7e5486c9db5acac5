#include "placement/migration.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace vcopt::placement {

namespace {
constexpr double kEps = 1e-9;
/// A planned move must net (gain - cost) more than this.
constexpr double kMinNetGain = 1e-6;

// Best single Theorem-1 move for a FIXED central node x over ALL
// (donor, receiver, type) triples: relocating one VM of `type` from `donor`
// to free capacity on `receiver` changes the distance by exactly
// D(receiver, x) - D(donor, x) (Theorem 1's exchange).  When `move_cost` is
// non-empty the per-type cost is charged against the gain and triples are
// ranked by NET gain; a move qualifies only when its net exceeds
// `min_net`.  Returns true and fills `move`/`gain`/`cost` when a qualifying
// move exists.
bool best_move_for_central(const cluster::Allocation& alloc,
                           const util::IntMatrix& remaining,
                           const cluster::Topology& topology, std::size_t x,
                           const std::vector<double>& move_cost,
                           double min_net, Migration& move, double& gain,
                           double& cost) {
  const std::size_t n = alloc.node_count();
  bool found = false;
  double best_net = 0;
  // The donors are the allocation's entries, in the (node, type) order the
  // dense scan visited its nonzero cells.
  for (const cluster::Allocation::Entry& e : alloc.entries()) {
    const std::size_t donor = e.node;
    const std::size_t j = e.type;
    const double from_donor = topology.distance(donor, x);
    const double c = j < move_cost.size() ? move_cost[j] : 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      if (r == donor || remaining(r, j) <= 0) continue;
      const double g = from_donor - topology.distance(r, x);
      const double net = g - c;
      if (g > kEps && net > min_net + kEps && (!found || net > best_net)) {
        found = true;
        best_net = net;
        gain = g;
        cost = c;
        move = Migration{donor, r, j};
      }
    }
  }
  return found;
}

/// A drifted lease the collect step surfaced.
struct DriftCandidate {
  cluster::LeaseId lease = 0;
  double drift = 0;  ///< last - min of the lease's DC record
};

/// Cost (DC units) of migrating one VM of `type` out of a lease currently
/// holding `lease_vms` VMs.
double migration_cost(const cluster::VmType& type, int lease_vms,
                      const MigrationCostModel& model) {
  return model.cost_per_gb * type.memory_gb +
         model.shuffle_cost_factor * static_cast<double>(lease_vms);
}

// Collect step: every live lease holding VMs whose DC record drifted (or,
// with `slo_hot`, whose DC per VM is above the threshold), ordered by drift
// descending, ties by lease id.
std::vector<DriftCandidate> collect_drift(const cluster::Cloud& cloud,
                                          const RebalancePolicy& policy,
                                          bool slo_hot) {
  std::vector<DriftCandidate> out;
  for (const cluster::LeaseId id : cloud.lease_ids()) {
    const int vms = cloud.lease_allocation(id).total_vms();
    if (vms <= 0) continue;
    const cluster::LeaseDc dc = cloud.lease_dc(id);
    const double dc_per_vm = dc.last / static_cast<double>(vms);
    const bool drifted = dc.last > policy.drift_ratio * dc.min + kEps;
    const bool hot = slo_hot && dc_per_vm > kDcPerVmThreshold;
    if (!drifted && !hot) continue;
    out.push_back(DriftCandidate{id, dc.last - dc.min});
  }
  std::sort(out.begin(), out.end(),
            [](const DriftCandidate& a, const DriftCandidate& b) {
              if (a.drift != b.drift) return a.drift > b.drift;
              return a.lease < b.lease;
            });
  return out;
}

// Decide step: up to `budget` budgeted Theorem-2 moves across `candidates`
// (in order) against the cloud's reservation-aware remaining capacity.
std::vector<PlannedMove> plan_moves(const cluster::Cloud& cloud,
                                    const std::vector<DriftCandidate>& candidates,
                                    const RebalancePolicy& policy,
                                    std::size_t budget) {
  std::vector<PlannedMove> out;
  if (budget == 0) return out;
  // One shared remaining matrix across candidates: a slot promised to an
  // earlier lease's move is not offered to a later one.  Reservation-aware,
  // so in-flight migrations from previous rounds are already excluded.
  util::IntMatrix rem = cloud.remaining();
  const std::size_t types = cloud.type_count();
  for (const DriftCandidate& cand : candidates) {
    if (out.size() >= budget) break;
    if (!cloud.has_lease(cand.lease)) continue;
    Placement p;
    p.allocation = cloud.lease_allocation(cand.lease);
    const int vms = p.allocation.total_vms();
    if (vms <= 0) continue;
    BudgetedConsolidateOptions opts;
    opts.max_migrations = budget - out.size();
    opts.min_net_gain = kMinNetGain;
    opts.move_cost.resize(types);
    for (std::size_t j = 0; j < types; ++j) {
      opts.move_cost[j] = migration_cost(cloud.catalog()[j], vms, policy.cost);
    }
    const BudgetedConsolidation plan =
        consolidate_budgeted(p, rem, cloud.topology(), opts);
    for (const BudgetedMove& mv : plan.moves) {
      out.push_back(PlannedMove{cand.lease, mv.move, mv.gain, mv.cost});
    }
  }
  return out;
}

}  // namespace

BudgetedConsolidation consolidate_budgeted(
    Placement& placement, util::IntMatrix& remaining,
    const cluster::Topology& topology,
    const BudgetedConsolidateOptions& options) {
  cluster::Allocation& alloc = placement.allocation;
  if (remaining.rows() != alloc.node_count() ||
      remaining.cols() != alloc.type_count()) {
    throw std::invalid_argument("consolidate_budgeted: remaining shape mismatch");
  }
  if (!options.move_cost.empty() &&
      options.move_cost.size() != alloc.type_count()) {
    throw std::invalid_argument("consolidate_budgeted: move_cost size mismatch");
  }

  BudgetedConsolidation out;
  {
    const cluster::CentralNode c = alloc.best_central(topology);
    placement.central = c.node;
    placement.distance = c.distance;
  }
  out.distance_before = placement.distance;

  while (out.moves.size() < options.max_migrations) {
    Migration move;
    double gain = 0;
    double cost = 0;
    if (!best_move_for_central(alloc, remaining, topology, placement.central,
                               options.move_cost, options.min_net_gain, move,
                               gain, cost)) {
      break;
    }
    alloc.at(move.from_node, move.type) -= 1;
    alloc.at(move.to_node, move.type) += 1;
    remaining(move.from_node, move.type) += 1;
    remaining(move.to_node, move.type) -= 1;
    out.moves.push_back(BudgetedMove{move, gain, cost});
    out.total_cost += cost;
    // The optimal central may shift after a move; re-evaluate (only ever
    // lowers the distance further).
    const cluster::CentralNode c = alloc.best_central(topology);
    placement.central = c.node;
    placement.distance = c.distance;
  }
  out.distance_after = placement.distance;
  return out;
}

RoundPlan RoundPlanner::plan(const cluster::Cloud& cloud, double now,
                             bool slo_hot,
                             const std::map<cluster::LeaseId, int>& inflight) {
  RoundPlan out;
  // Health gate: with failed nodes present the recovery ladder owns the
  // cluster; a round would chase capacity that is about to move.
  if (cloud.inventory().failed_count() > 0) {
    out.deferred = true;
    return out;
  }
  // An expired cooldown filters nothing now or later (now never
  // decreases), so forget it: the map holds only open windows.
  std::erase_if(cooldown_until_,
                [now](const auto& entry) { return entry.second <= now; });
  std::vector<DriftCandidate> candidates =
      collect_drift(cloud, policy_, slo_hot);
  // Rate-limit rails: leases with an in-flight move or inside their
  // cooldown window are left alone this round.
  std::erase_if(candidates, [&](const DriftCandidate& c) {
    return inflight.count(c.lease) > 0 || cooldown_until_.count(c.lease) > 0;
  });
  out.candidates = candidates.size();
  if (!candidates.empty()) {
    out.moves =
        plan_moves(cloud, candidates, policy_, policy_.max_moves_per_round);
  }
  return out;
}

void RoundPlanner::record_commit(const PlannedMove& move, double now) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("rebalance/migrations_committed").add(1);
  reg.histogram("rebalance/migration_gain",
                obs::MetricsRegistry::exponential_buckets(0.01, 2.0, 12))
      .observe(move.gain);
  cooldown_until_[move.lease] = now + policy_.lease_cooldown;
}

}  // namespace vcopt::placement
