// SnapshotArena freezes the cloud's capacity correctly, and its snapshots
// own their storage (they may outlive the arena).
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cloud.h"
#include "cluster/snapshot.h"
#include "placement/policy.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;

Cloud scenario_cloud(const workload::SimScenario& s) {
  return Cloud(s.topology, s.catalog, s.capacity);
}

TEST(SnapshotArena, BuildCapturesCloudState) {
  const auto scenario = workload::paper_sim_scenario(3);
  Cloud cloud = scenario_cloud(scenario);
  // Perturb capacity so the snapshot is provably a copy of *current* state.
  auto policy = placement::make_policy("first-fit");
  const auto placed =
      policy->place(scenario.requests[0], cloud.remaining(), cloud.topology());
  ASSERT_TRUE(placed.has_value());
  cloud.grant(scenario.requests[0], placed->allocation);

  cluster::SnapshotArena arena;
  const auto snap = arena.build(cloud, /*epoch=*/7, /*build_time=*/3.5);
  EXPECT_EQ(snap->epoch, 7u);
  EXPECT_DOUBLE_EQ(snap->build_time, 3.5);
  EXPECT_EQ(snap->remaining, cloud.remaining());
  EXPECT_EQ(snap->topology, &cloud.topology());
  EXPECT_EQ(snap->type_count, cloud.type_count());
  ASSERT_EQ(snap->capacity_col_sums.size(), cloud.type_count());
  const util::IntMatrix& max = cloud.inventory().max_capacity();
  for (std::size_t j = 0; j < cloud.type_count(); ++j) {
    EXPECT_EQ(snap->capacity_col_sums[j], max.col_sum(j));
  }
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
  EXPECT_EQ(survivor->remaining, cloud.remaining());
  survivor.reset();  // deleter must not touch the dead arena
}

}  // namespace
}  // namespace vcopt::service
