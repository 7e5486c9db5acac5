#include "placement/migration.h"

#include <stdexcept>

namespace vcopt::placement {

namespace {
constexpr double kEps = 1e-9;

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

}  // namespace vcopt::placement
