#include "placement/migration.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "cluster/cloud.h"
#include "cluster/topology.h"
#include "placement/baselines.h"
#include "placement/online_heuristic.h"
#include "solver/sd_solver.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::placement {
namespace {

using cluster::Request;
using cluster::Topology;
using util::IntMatrix;

Placement make_placement(const cluster::Allocation& alloc,
                         const Topology& topology) {
  return evaluate(alloc, topology);
}

// ---- consolidate_budgeted with no costs: the plain Theorem-1 hill climb ---

TEST(Consolidate, PullsVmIntoFreedNearbySlot) {
  const Topology topo = Topology::uniform(2, 2);
  // Cluster: 2 VMs on node 0, 1 VM stranded cross-rack on node 2.
  cluster::Allocation alloc(4, 1);
  alloc.at(0, 0) = 2;
  alloc.at(2, 0) = 1;
  Placement p = make_placement(alloc, topo);
  EXPECT_DOUBLE_EQ(p.distance, 2.0);
  // Capacity freed on node 1 (same rack as the central node).
  IntMatrix remaining(4, 1, 0);
  remaining(1, 0) = 1;

  const BudgetedConsolidation res = consolidate_budgeted(p, remaining, topo);
  ASSERT_EQ(res.moves.size(), 1u);
  EXPECT_EQ(res.moves[0].move.from_node, 2u);
  EXPECT_EQ(res.moves[0].move.to_node, 1u);
  EXPECT_DOUBLE_EQ(res.distance_before, 2.0);
  EXPECT_DOUBLE_EQ(res.distance_after, 1.0);
  EXPECT_DOUBLE_EQ(p.distance, 1.0);
  EXPECT_DOUBLE_EQ(res.moves[0].cost, 0.0);
  EXPECT_DOUBLE_EQ(res.total_cost, 0.0);
  // Capacity bookkeeping: node 2's slot freed, node 1's consumed.
  EXPECT_EQ(remaining(1, 0), 0);
  EXPECT_EQ(remaining(2, 0), 1);
}

TEST(Consolidate, NoopWhenNoFreeCapacity) {
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 1);
  alloc.at(0, 0) = 1;
  alloc.at(2, 0) = 1;
  Placement p = make_placement(alloc, topo);
  IntMatrix remaining(4, 1, 0);
  const BudgetedConsolidation res = consolidate_budgeted(p, remaining, topo);
  EXPECT_TRUE(res.moves.empty());
  EXPECT_DOUBLE_EQ(res.improvement(), 0.0);
}

TEST(Consolidate, NoopWhenAlreadyTight) {
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 1);
  alloc.at(0, 0) = 3;
  Placement p = make_placement(alloc, topo);
  IntMatrix remaining(4, 1, 5);
  const BudgetedConsolidation res = consolidate_budgeted(p, remaining, topo);
  EXPECT_TRUE(res.moves.empty());
}

TEST(Consolidate, RespectsMigrationBudget) {
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 1);
  alloc.at(2, 0) = 1;
  alloc.at(3, 0) = 1;
  alloc.at(0, 0) = 2;
  Placement p = make_placement(alloc, topo);
  IntMatrix remaining(4, 1, 0);
  remaining(0, 0) = 5;
  remaining(1, 0) = 5;
  BudgetedConsolidateOptions opt;
  opt.max_migrations = 1;
  const BudgetedConsolidation res = consolidate_budgeted(p, remaining, topo, opt);
  EXPECT_EQ(res.moves.size(), 1u);
}

TEST(Consolidate, TypeMatters) {
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 2);
  alloc.at(0, 0) = 2;
  alloc.at(2, 1) = 1;  // stranded VM is of type 1
  Placement p = make_placement(alloc, topo);
  IntMatrix remaining(4, 2, 0);
  remaining(1, 0) = 3;  // free capacity of the WRONG type nearby
  const BudgetedConsolidation res = consolidate_budgeted(p, remaining, topo);
  EXPECT_TRUE(res.moves.empty());
  remaining(1, 1) = 1;  // now the right type
  const BudgetedConsolidation res2 = consolidate_budgeted(p, remaining, topo);
  EXPECT_EQ(res2.moves.size(), 1u);
  EXPECT_EQ(res2.moves[0].move.type, 1u);
}

// Property sweep: consolidation never increases distance, never breaks the
// request, never oversubscribes, ends at a local optimum for its final
// central node, and is bounded below by the exact SD optimum of the
// COMBINED capacity (own allocation + free slots).
class ConsolidateSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsolidateSweep, InvariantsAndBounds) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  IntMatrix capacity = workload::random_inventory(topo, catalog, rng, 0, 3);
  const Request r = workload::random_request(catalog, rng, 0, 4, 0);

  // Degrade the initial placement with the random policy.
  RandomPolicy random(GetParam() + 1);
  auto placed = random.place(r, capacity, topo);
  if (!placed) return;
  IntMatrix remaining = capacity;
  remaining -= placed->allocation.to_matrix();
  Placement p = *placed;
  const Request req_copy = r;

  const double before = p.distance;
  const BudgetedConsolidation res = consolidate_budgeted(p, remaining, topo);
  EXPECT_LE(p.distance, before + 1e-9);
  EXPECT_DOUBLE_EQ(res.distance_after, p.distance);
  EXPECT_TRUE(p.allocation.satisfies(req_copy));
  EXPECT_TRUE(remaining.all_nonnegative());
  // Combined conservation: allocation + remaining == original capacity.
  EXPECT_EQ(p.allocation.to_matrix() + remaining, capacity);

  // Local optimality at the final central: no single VM has a strictly
  // nearer free slot (otherwise the hill climb would have kept going).
  for (std::size_t donor = 0; donor < remaining.rows(); ++donor) {
    for (std::size_t j = 0; j < remaining.cols(); ++j) {
      if (p.allocation.at(donor, j) == 0) continue;
      for (std::size_t recv = 0; recv < remaining.rows(); ++recv) {
        if (recv == donor || remaining(recv, j) <= 0) continue;
        EXPECT_LE(topo.distance(donor, p.central) -
                      topo.distance(recv, p.central),
                  1e-9)
            << "seed=" << GetParam() << " improving move left on the table";
      }
    }
  }

  // Hill climbing is local (recentring can strand it), so the exact SD
  // optimum of the combined capacity is only a LOWER bound.
  const solver::SdResult opt =
      solver::solve_sd_exact(req_copy, capacity, topo.distance_matrix());
  ASSERT_TRUE(opt.feasible);
  EXPECT_GE(p.distance, opt.distance - 1e-9) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsolidateSweep,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---- consolidate_budgeted with move costs: the live-migration economics --

TEST(ConsolidateBudgeted, CostAboveGainVetoesTheMove) {
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 1);
  alloc.at(0, 0) = 2;
  alloc.at(2, 0) = 1;  // gain of pulling it to node 1 is 2 - 1 = 1 DC unit
  Placement p = make_placement(alloc, topo);
  IntMatrix remaining(4, 1, 0);
  remaining(1, 0) = 1;
  BudgetedConsolidateOptions opt;
  opt.move_cost = {1.5};  // dearer than the gain: migration uneconomic
  const BudgetedConsolidation res =
      consolidate_budgeted(p, remaining, topo, opt);
  EXPECT_TRUE(res.moves.empty());
  EXPECT_DOUBLE_EQ(res.distance_after, res.distance_before);
  // Cheapen the copy below the gain and the move goes through.
  opt.move_cost = {0.25};
  const BudgetedConsolidation res2 =
      consolidate_budgeted(p, remaining, topo, opt);
  ASSERT_EQ(res2.moves.size(), 1u);
  EXPECT_DOUBLE_EQ(res2.moves[0].gain, 1.0);
  EXPECT_DOUBLE_EQ(res2.moves[0].cost, 0.25);
  EXPECT_DOUBLE_EQ(res2.moves[0].net(), 0.75);
  EXPECT_DOUBLE_EQ(res2.total_cost, 0.25);
}

TEST(ConsolidateBudgeted, MinNetGainRaisesTheBar) {
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 1);
  alloc.at(0, 0) = 2;
  alloc.at(2, 0) = 1;
  Placement p = make_placement(alloc, topo);
  IntMatrix remaining(4, 1, 0);
  remaining(1, 0) = 1;
  BudgetedConsolidateOptions opt;
  opt.move_cost = {0.5};   // net gain would be 0.5
  opt.min_net_gain = 0.6;  // bar above it: vetoed
  EXPECT_TRUE(consolidate_budgeted(p, remaining, topo, opt).moves.empty());
  opt.min_net_gain = 0.4;  // bar below it: accepted
  EXPECT_EQ(consolidate_budgeted(p, remaining, topo, opt).moves.size(), 1u);
}

TEST(ConsolidateBudgeted, PicksCheaperTypeWhenGainsTie) {
  // Two stranded VMs of different types, both one hop from home, but only
  // budget for one move: the scan must take the higher NET gain (the
  // cheaper type), not just the higher raw gain.
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation alloc(4, 2);
  alloc.at(0, 0) = 2;
  alloc.at(0, 1) = 1;
  alloc.at(2, 0) = 1;  // type 0 stranded
  alloc.at(2, 1) = 1;  // type 1 stranded
  Placement p = make_placement(alloc, topo);
  IntMatrix remaining(4, 2, 0);
  remaining(1, 0) = 1;
  remaining(1, 1) = 1;
  BudgetedConsolidateOptions opt;
  opt.max_migrations = 1;
  opt.move_cost = {0.8, 0.1};  // type 1 is much cheaper to copy
  const BudgetedConsolidation res =
      consolidate_budgeted(p, remaining, topo, opt);
  ASSERT_EQ(res.moves.size(), 1u);
  EXPECT_EQ(res.moves[0].move.type, 1u);
}

// Property sweep: the budgeted variant inherits every conservation
// invariant and, because each accepted move's raw gain is at least its net,
// the realized DC improvement is bounded below by the sum of net gains.
class BudgetedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetedSweep, InvariantsAndEconomy) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  IntMatrix capacity = workload::random_inventory(topo, catalog, rng, 0, 3);
  const Request r = workload::random_request(catalog, rng, 0, 4, 0);

  RandomPolicy random(GetParam() + 1);
  auto placed = random.place(r, capacity, topo);
  if (!placed) return;
  IntMatrix remaining = capacity;
  remaining -= placed->allocation.to_matrix();
  Placement p = *placed;
  const Request req_copy = r;

  BudgetedConsolidateOptions opt;
  opt.max_migrations = 3;
  opt.min_net_gain = 1e-9;
  for (std::size_t j = 0; j < catalog.size(); ++j) {
    opt.move_cost.push_back(0.01 * catalog[j].memory_gb);
  }
  const double before = p.distance;
  const BudgetedConsolidation res =
      consolidate_budgeted(p, remaining, topo, opt);
  EXPECT_LE(res.moves.size(), 3u);
  EXPECT_LE(p.distance, before + 1e-9);
  EXPECT_TRUE(p.allocation.satisfies(req_copy));
  EXPECT_TRUE(remaining.all_nonnegative());
  EXPECT_EQ(p.allocation.to_matrix() + remaining, capacity);
  double net_sum = 0, gain_sum = 0;
  for (const BudgetedMove& m : res.moves) {
    EXPECT_GT(m.net(), 0.0) << "seed=" << GetParam();
    net_sum += m.net();
    gain_sum += m.gain;
  }
  // Each move's recorded gain is its DC drop at selection time; the total
  // realized improvement is the sum of gains (recentring never hurts it).
  EXPECT_GE(res.improvement() + 1e-9, gain_sum) << "seed=" << GetParam();
  EXPECT_GE(gain_sum, net_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetedSweep,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---- RoundPlanner: the drift-repair decision both rebalancers share ------

// 2 racks x 2 nodes, 3 EC2 types, 2 of each type per node, with a loose
// lease of type 0 and one of type 1: one VM on node 0 and one across racks
// on node 2 (DC 2), with room on nodes 0 and 1 to tighten them.
struct PlannerFixture {
  cluster::Cloud cloud{Topology::uniform(2, 2),
                       cluster::VmCatalog::ec2_default(), IntMatrix(4, 3, 2)};
  cluster::LeaseId a = loose_lease(0);
  cluster::LeaseId b = loose_lease(1);

  cluster::LeaseId loose_lease(std::size_t type) {
    std::vector<int> counts(3, 0);
    counts[type] = 2;
    cluster::Allocation alloc(4, 3);
    alloc.at(0, type) = 1;
    alloc.at(2, type) = 1;
    return cloud.grant(Request(counts), alloc);
  }
};

// Every lease with DC > 0 is a candidate; a migrated one rests 10 s.
RebalancePolicy any_dc_policy() {
  RebalancePolicy policy;
  policy.drift_ratio = 0.0;
  policy.lease_cooldown = 10.0;
  return policy;
}

std::set<cluster::LeaseId> moved_leases(const RoundPlan& plan) {
  std::set<cluster::LeaseId> out;
  for (const PlannedMove& mv : plan.moves) out.insert(mv.lease);
  return out;
}

const PlannedMove& move_of(const RoundPlan& plan, cluster::LeaseId lease) {
  for (const PlannedMove& mv : plan.moves) {
    if (mv.lease == lease) return mv;
  }
  throw std::logic_error("no planned move for the lease");
}

using Cooldowns = std::map<cluster::LeaseId, double>;

TEST(RoundPlanner, CooldownMapHoldsOnlyLeasesWhoseWindowIsOpen) {
  PlannerFixture f;
  RoundPlanner planner(any_dc_policy());
  const std::map<cluster::LeaseId, int> none;

  RoundPlan plan = planner.plan(f.cloud, 0.0, false, none);
  EXPECT_EQ(plan.candidates, 2u);
  EXPECT_EQ(moved_leases(plan), (std::set<cluster::LeaseId>{f.a, f.b}));
  planner.record_commit(move_of(plan, f.a), 0.0);  // a rests until 10
  EXPECT_EQ(planner.cooldowns(), (Cooldowns{{f.a, 10.0}}));

  // a is inside its window: only b is planned.
  plan = planner.plan(f.cloud, 5.0, false, none);
  EXPECT_EQ(plan.candidates, 1u);
  EXPECT_EQ(moved_leases(plan), (std::set<cluster::LeaseId>{f.b}));
  planner.record_commit(move_of(plan, f.b), 5.0);  // b rests until 15
  EXPECT_EQ(planner.cooldowns(), (Cooldowns{{f.a, 10.0}, {f.b, 15.0}}));

  // a's window closed at 10: it is forgotten and planned again; b rests.
  plan = planner.plan(f.cloud, 10.0, false, none);
  EXPECT_EQ(planner.cooldowns(), (Cooldowns{{f.b, 15.0}}));
  EXPECT_EQ(moved_leases(plan), (std::set<cluster::LeaseId>{f.a}));

  // Both windows closed: the map is empty and both leases are back.
  plan = planner.plan(f.cloud, 15.0, false, none);
  EXPECT_TRUE(planner.cooldowns().empty());
  EXPECT_EQ(plan.candidates, 2u);
  EXPECT_EQ(moved_leases(plan), (std::set<cluster::LeaseId>{f.a, f.b}));
}

TEST(RoundPlanner, SkipsInflightLeasesAndDefersWhileNodesAreFailed) {
  PlannerFixture f;
  RebalancePolicy policy = any_dc_policy();
  policy.max_moves_per_round = 1;
  RoundPlanner planner(policy);

  // A lease with a move in flight is left alone; the budget caps the rest.
  RoundPlan plan = planner.plan(f.cloud, 0.0, false, {{f.a, 1}});
  EXPECT_FALSE(plan.deferred);
  EXPECT_EQ(plan.candidates, 1u);
  EXPECT_EQ(moved_leases(plan), (std::set<cluster::LeaseId>{f.b}));
  plan = planner.plan(f.cloud, 0.0, false, {});
  EXPECT_EQ(plan.candidates, 2u);
  EXPECT_EQ(plan.moves.size(), 1u);

  // The health gate: a failed node defers the round.
  f.cloud.fail_node(3);
  plan = planner.plan(f.cloud, 1.0, false, {});
  EXPECT_TRUE(plan.deferred);
  EXPECT_EQ(plan.candidates, 0u);
  EXPECT_TRUE(plan.moves.empty());
}

}  // namespace
}  // namespace vcopt::placement
