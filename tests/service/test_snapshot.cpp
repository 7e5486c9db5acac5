// SnapshotArena points a window at the cloud's own state without copying
// it, and its snapshots may outlive the arena.  plan_window reads that view
// and copies it only for a debit a later placement of the window must see:
// a member planned after an earlier grant of its window never takes the
// cells that grant debited, whether the grant came from the batch step,
// the ladder or a cell.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cell/partition.h"
#include "cluster/cloud.h"
#include "cluster/snapshot.h"
#include "placement/policy.h"
#include "service/service.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;
using util::IntMatrix;

Cloud scenario_cloud(const workload::SimScenario& s) {
  return Cloud(s.topology, s.catalog, s.capacity);
}

TEST(SnapshotArena, BuildCapturesCloudState) {
  const auto scenario = workload::paper_sim_scenario(3);
  Cloud cloud = scenario_cloud(scenario);
  // Perturb capacity so the snapshot provably shows the *current* state.
  auto policy = placement::make_policy("first-fit");
  const auto placed =
      policy->place(scenario.requests[0], cloud.remaining(), cloud.topology());
  ASSERT_TRUE(placed.has_value());
  cloud.grant(scenario.requests[0], placed->allocation);

  cluster::SnapshotArena arena;
  const auto snap = arena.build(cloud, /*epoch=*/7, /*build_time=*/3.5);
  EXPECT_EQ(snap->epoch, 7u);
  EXPECT_DOUBLE_EQ(snap->build_time, 3.5);
  // The cloud's own view and index, not copies.
  EXPECT_EQ(snap->remaining, &cloud.capacity_view().matrix());
  EXPECT_EQ(*snap->remaining, cloud.remaining());
  EXPECT_TRUE(snap->remaining->sums_warm());
  EXPECT_EQ(snap->index, &cloud.free_index());
  EXPECT_EQ(snap->index_version, cloud.free_index().version());
  EXPECT_EQ(snap->topology, &cloud.topology());
  EXPECT_EQ(snap->type_count, cloud.type_count());
  // The capacity sums are the cloud's, fixed at its construction.
  EXPECT_EQ(snap->capacity_col_sums, &cloud.capacity_col_sums());
  ASSERT_EQ(snap->capacity_col_sums->size(), cloud.type_count());
  const IntMatrix& max = cloud.inventory().max_capacity();
  for (std::size_t j = 0; j < cloud.type_count(); ++j) {
    EXPECT_EQ(snap->capacity_col_sums->at(j), max.col_sum(j));
  }

  // A later grant shows through the snapshot, and the index version marks
  // the snapshot's state as gone.
  const auto more =
      policy->place(scenario.requests[1], cloud.remaining(), cloud.topology());
  ASSERT_TRUE(more.has_value());
  const IntMatrix before = cloud.remaining();
  cloud.grant(scenario.requests[1], more->allocation);
  EXPECT_NE(*snap->remaining, before);
  EXPECT_EQ(*snap->remaining, cloud.remaining());
  EXPECT_NE(snap->index->version(), snap->index_version);
}

TEST(SnapshotArena, SnapshotsSafelyOutliveTheArena) {
  const auto scenario = workload::paper_sim_scenario(3);
  Cloud cloud = scenario_cloud(scenario);
  std::shared_ptr<const cluster::CloudSnapshot> survivor;
  {
    cluster::SnapshotArena arena;
    survivor = arena.build(cloud, 9, 0.0);
  }
  EXPECT_EQ(survivor->epoch, 9u);
  EXPECT_EQ(survivor->remaining, &cloud.capacity_view().matrix());
  EXPECT_EQ(*survivor->remaining, cloud.remaining());
  survivor.reset();  // deleter must not touch the dead arena
}

cluster::VmCatalog two_types() {
  return cluster::VmCatalog({cluster::VmType{"a"}, cluster::VmType{"b"}});
}

std::vector<PendingEntry> entries(const std::vector<Request>& requests,
                                  std::size_t cell = kNoCell) {
  std::vector<PendingEntry> out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    PendingEntry e;
    e.request = requests[i];
    e.options.deadline = 1e9;
    e.seq = i + 1;
    e.cell = cell;
    out.push_back(e);
  }
  return out;
}

// The window's grants, summed, fit the free view the window saw: no member
// took a cell an earlier grant of the window had debited.  Then they land.
void expect_grants_fit(Cloud& cloud, detail::WindowPlan& plan) {
  IntMatrix used(cloud.node_count(), cloud.type_count());
  for (const detail::PlannedGrant& g : plan.grants) {
    for (const cluster::Allocation::Entry& e : g.allocation.entries()) {
      used.add_at(e.node, e.type, e.count);
    }
  }
  const IntMatrix free = cloud.remaining();
  for (std::size_t i = 0; i < free.rows(); ++i) {
    for (std::size_t j = 0; j < free.cols(); ++j) {
      EXPECT_LE(used(i, j), free(i, j)) << "cell (" << i << ", " << j << ")";
    }
  }
  detail::commit_window(cloud, plan);
}

detail::WindowPlan plan(const Cloud& cloud,
                        const std::vector<PendingEntry>& members,
                        const detail::CellPlanContext* ctx = nullptr) {
  const auto snap = cluster::SnapshotArena().build(cloud, 0, 0.0);
  return detail::plan_window(*snap, {}, members, /*window_id=*/1, 0.0,
                             ServiceOptions{}, ctx);
}

// One type, 2 slots on each of 4 nodes.  The batch step admits 3 VMs; the
// second member, 7 VMs, fits only the undebited view, so it falls to the
// ladder, which must see the 5 slots the admission left.
TEST(PlanWindow, LadderAfterTheBatchStepSeesItsAdmissions) {
  Cloud cloud(cluster::Topology::uniform(2, 2),
              cluster::VmCatalog({cluster::VmType{"vm"}}),
              IntMatrix{{2}, {2}, {2}, {2}});
  detail::WindowPlan p = plan(cloud, entries({Request({3}), Request({7})}));
  ASSERT_EQ(p.outcomes.size(), 2u);
  EXPECT_EQ(p.outcomes[0].kind, OutcomeKind::kGranted);
  EXPECT_EQ(p.outcomes[1].kind, OutcomeKind::kPartial);
  EXPECT_EQ(p.outcomes[1].granted_vms, 5);
  expect_grants_fit(cloud, p);
}

// Two types, 2 slots each on 4 nodes, 5 of each taken before the window:
// 3 of each are free.  Neither (4, 1) nor (1, 4) fits, so both take the
// ladder's partial rung.  The first takes 3 a and 1 b; the second must see
// only the 2 b left.
TEST(PlanWindow, LadderAfterALadderGrantSeesItsDebit) {
  Cloud cloud(cluster::Topology::uniform(2, 2), two_types(),
              IntMatrix{{2, 2}, {2, 2}, {2, 2}, {2, 2}});
  cloud.grant(Request({5, 5}),
              cluster::Allocation::from_entries(
                  4, 2, {{0, 0, 2}, {0, 1, 2}, {1, 0, 2}, {1, 1, 2},
                         {2, 0, 1}, {2, 1, 1}}));
  detail::WindowPlan p =
      plan(cloud, entries({Request({4, 1}), Request({1, 4})}));
  ASSERT_EQ(p.outcomes.size(), 2u);
  EXPECT_EQ(p.outcomes[0].kind, OutcomeKind::kPartial);
  EXPECT_EQ(p.outcomes[0].granted_vms, 4);
  EXPECT_EQ(p.outcomes[1].kind, OutcomeKind::kPartial);
  EXPECT_EQ(p.outcomes[1].granted_vms, 2);
  expect_grants_fit(cloud, p);
}

// One type, 2 slots on each of 8 nodes in two cells of 4.  A window routed
// to cell 0 grants 3 VMs in the cell, then a member of 12 VMs, more than
// the cell holds, spills flat: it must see the 13 slots the cell grant
// left, not the 16 the snapshot saw.
TEST(PlanWindow, SpillAfterInCellGrantsSeesThem) {
  const cluster::Topology topo = cluster::Topology::uniform(4, 2);
  Cloud cloud(topo, cluster::VmCatalog({cluster::VmType{"vm"}}),
              IntMatrix(8, 1, 2));
  cell::CellPartitionOptions po;
  po.target_cells = 2;
  const cell::CellPartition part(topo, po);
  ASSERT_EQ(part.cell_count(), 2u);
  const std::vector<std::vector<int>> sums =
      detail::cell_capacity_sums(part, cloud);
  detail::CellPlanContext ctx;
  ctx.partition = &part;
  ctx.capacity_col_sums = &sums;
  ctx.cell = 0;
  detail::WindowPlan p =
      plan(cloud, entries({Request({3}), Request({12})}, 0), &ctx);
  ASSERT_EQ(p.outcomes.size(), 2u);
  EXPECT_EQ(p.outcomes[0].kind, OutcomeKind::kGranted);
  EXPECT_EQ(p.outcomes[1].kind, OutcomeKind::kDegraded);
  EXPECT_EQ(p.outcomes[1].granted_vms, 12);
  for (const cluster::Allocation::Entry& e : p.grants[0].allocation.entries()) {
    EXPECT_EQ(part.cell_of_node(e.node), 0u);
  }
  expect_grants_fit(cloud, p);
}

}  // namespace
}  // namespace vcopt::service
