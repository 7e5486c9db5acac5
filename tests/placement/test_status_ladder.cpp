// Typed provisioning outcomes: submit()'s explicit rejection statuses (with
// reasons recorded in metrics) and plan_laddered()'s graceful-degradation
// rungs kDegraded -> kPartial -> kAbandoned, with its typed rejections.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cloud.h"
#include "obs/metrics.h"
#include "placement/online_heuristic.h"
#include "placement/provisioner.h"

namespace vcopt::placement {
namespace {

using cluster::Allocation;
using cluster::Cloud;
using cluster::Request;

Cloud make_cloud(int per_node = 2) {
  // 2 racks x 2 nodes, 3 EC2 types.
  return Cloud(cluster::Topology::uniform(2, 2),
               cluster::VmCatalog::ec2_default(),
               util::IntMatrix(4, 3, per_node));
}

Provisioner make_prov(Cloud& cloud) {
  return Provisioner(cloud, std::make_unique<OnlineHeuristic>());
}

TEST(ProvisionStatus, ZeroVmRequestIsTypedRejection) {
  Cloud cloud = make_cloud();
  Provisioner prov = make_prov(cloud);
  obs::MetricsRegistry::global().set_enabled(true);
  const std::uint64_t before =
      obs::MetricsRegistry::global().counter("provisioner/reject_empty").value();

  const ProvisionResult res = prov.submit(Request({0, 0, 0}));
  EXPECT_EQ(res.status, PlacementStatus::kRejectedEmpty);
  EXPECT_FALSE(res.grant.has_value());
  EXPECT_EQ(res.requested_vms, 0);
  EXPECT_EQ(prov.rejected_count(), 1u);
  EXPECT_EQ(cloud.lease_count(), 0u);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("provisioner/reject_empty").value(),
      before + 1);
  obs::MetricsRegistry::global().set_enabled(false);
}

TEST(ProvisionStatus, ShapeMismatchIsTypedRejection) {
  Cloud cloud = make_cloud();
  Provisioner prov = make_prov(cloud);
  const ProvisionResult res = prov.submit(Request({1, 1}));  // 2 != 3 types
  EXPECT_EQ(res.status, PlacementStatus::kRejectedShape);
  EXPECT_FALSE(res.grant.has_value());
  // The legacy optional-returning entry point still throws for shape bugs.
  EXPECT_THROW(prov.request(Request({1, 1})), std::invalid_argument);
}

TEST(ProvisionStatus, OverCapacityIsTypedRejection) {
  Cloud cloud = make_cloud();
  Provisioner prov = make_prov(cloud);
  const ProvisionResult res = prov.submit(Request({100, 0, 0}));
  EXPECT_EQ(res.status, PlacementStatus::kRejectedOverCapacity);
  EXPECT_FALSE(res.grant.has_value());
  EXPECT_EQ(prov.rejected_count(), 1u);
}

TEST(ProvisionStatus, ServableRequestIsGrantedAndLargerOneQueued) {
  Cloud cloud = make_cloud();
  Provisioner prov = make_prov(cloud);
  const ProvisionResult granted = prov.submit(Request({2, 1, 0}, 1));
  EXPECT_EQ(granted.status, PlacementStatus::kGranted);
  ASSERT_TRUE(granted.grant.has_value());
  EXPECT_EQ(granted.granted_vms, 3);

  // Fits total capacity but not right now -> queued, not rejected.
  const ProvisionResult queued = prov.submit(Request({8, 0, 0}, 2));
  EXPECT_EQ(queued.status, PlacementStatus::kQueued);
  EXPECT_FALSE(is_terminal(PlacementStatus::kQueued));
  EXPECT_EQ(prov.queue_length(), 1u);
}

TEST(ProvisionStatus, ToStringCoversEveryStatus) {
  for (PlacementStatus s :
       {PlacementStatus::kGranted, PlacementStatus::kQueued,
        PlacementStatus::kRejectedEmpty, PlacementStatus::kRejectedShape,
        PlacementStatus::kRejectedOverCapacity, PlacementStatus::kRepaired,
        PlacementStatus::kDegraded, PlacementStatus::kPartial,
        PlacementStatus::kAbandoned}) {
    EXPECT_STRNE(to_string(s), "");
    EXPECT_EQ(is_terminal(s), s != PlacementStatus::kQueued);
  }
}

/// plan_laddered over the cloud's live capacity, with Algorithm 1 as the
/// policy rung.
LadderPlan ladder(const Cloud& cloud, const Request& r) {
  const util::IntMatrix& max = cloud.inventory().max_capacity();
  std::vector<int> capacity_col_sums(max.cols());
  for (std::size_t j = 0; j < max.cols(); ++j) {
    capacity_col_sums[j] = max.col_sum(j);
  }
  OnlineHeuristic policy;
  return plan_laddered(r, cloud.remaining(), cloud.topology(),
                       capacity_col_sums, policy);
}

TEST(Ladder, HeuristicRungReportsDegraded) {
  Cloud cloud = make_cloud();
  const Request r({2, 1, 1}, 7);
  const LadderPlan plan = ladder(cloud, r);
  EXPECT_EQ(plan.status, PlacementStatus::kDegraded);
  ASSERT_TRUE(plan.placement.has_value());
  ASSERT_TRUE(plan.effective.has_value());
  EXPECT_EQ(plan.requested_vms, 4);
  EXPECT_EQ(plan.granted_vms, 4);  // still a FULL allocation
  EXPECT_TRUE(plan.placement->allocation.satisfies(r));
  EXPECT_EQ(plan.effective->counts(), r.counts());
  EXPECT_EQ(plan.effective->id(), 7u);
  // Planning is pure: nothing was granted.
  EXPECT_EQ(cloud.lease_count(), 0u);
}

TEST(Ladder, UnfittableRequestDegradesToPartial) {
  Cloud cloud = make_cloud();
  Provisioner prov = make_prov(cloud);
  // 8 of type 0 exist in total; occupy 2 first so only 6 remain -> a full
  // fit of 8 is impossible right now, partial clips to the 6 available.
  ASSERT_EQ(prov.submit(Request({2, 0, 0}, 1)).status,
            PlacementStatus::kGranted);
  const LadderPlan plan = ladder(cloud, Request({8, 0, 0}, 2, /*priority=*/3));
  EXPECT_EQ(plan.status, PlacementStatus::kPartial);
  ASSERT_TRUE(plan.placement.has_value());
  ASSERT_TRUE(plan.effective.has_value());
  EXPECT_EQ(plan.requested_vms, 8);
  EXPECT_EQ(plan.granted_vms, 6);
  // The grant is recorded under the clipped request, which keeps the
  // original id and priority.
  EXPECT_EQ(plan.effective->counts(), (std::vector<int>{6, 0, 0}));
  EXPECT_EQ(plan.effective->id(), 2u);
  EXPECT_EQ(plan.effective->priority(), 3);
  EXPECT_TRUE(plan.placement->allocation.satisfies(*plan.effective));
  EXPECT_TRUE(plan.placement->allocation.fits(cloud.remaining()));
  // The partial plan is a real lease once granted.
  const cluster::LeaseId lease =
      cloud.grant(*plan.effective, plan.placement->allocation);
  EXPECT_TRUE(cloud.has_lease(lease));
}

TEST(Ladder, NothingPlaceableIsAbandoned) {
  Cloud cloud = make_cloud();
  Provisioner prov = make_prov(cloud);
  // Fill type 0 completely, then ask for more of it.
  ASSERT_EQ(prov.submit(Request({8, 0, 0}, 1)).status,
            PlacementStatus::kGranted);
  const LadderPlan plan = ladder(cloud, Request({2, 0, 0}, 2));
  EXPECT_EQ(plan.status, PlacementStatus::kAbandoned);
  EXPECT_FALSE(plan.placement.has_value());
  EXPECT_FALSE(plan.effective.has_value());
  EXPECT_EQ(plan.requested_vms, 2);
  EXPECT_EQ(plan.granted_vms, 0);
}

TEST(Ladder, TypedRejections) {
  // One VM type, 8 VMs in total.
  const Cloud cloud(cluster::Topology::uniform(2, 2),
                    cluster::VmCatalog({{"m", 4, 2, 100, 64}}),
                    util::IntMatrix(4, 1, 2));
  EXPECT_EQ(ladder(cloud, Request({0})).status,
            PlacementStatus::kRejectedEmpty);
  EXPECT_EQ(ladder(cloud, Request({9})).status,
            PlacementStatus::kRejectedOverCapacity);
  EXPECT_EQ(ladder(cloud, Request({1, 1})).status,
            PlacementStatus::kRejectedShape);
}

}  // namespace
}  // namespace vcopt::placement
