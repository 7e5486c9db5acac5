#include "placement/provisioner.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "placement/online_heuristic.h"

namespace vcopt::placement {
namespace {

using cluster::Admission;
using cluster::Cloud;
using cluster::Request;
using cluster::Topology;

Cloud small_cloud() {
  // 2 racks x 2 nodes, 1 type, 2 VMs per node = 8 total.
  return Cloud(Topology::uniform(2, 2),
               cluster::VmCatalog({{"m", 4, 2, 100, 64}}),
               util::IntMatrix(4, 1, 2));
}

TEST(Provisioner, GrantsWhenCapacityAvailable) {
  Cloud cloud = small_cloud();
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());
  const auto grant = prov.request(Request({3}, 1));
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->request_id, 1u);
  EXPECT_EQ(cloud.lease_count(), 1u);
  EXPECT_EQ(prov.queue_length(), 0u);
}

TEST(Provisioner, QueuesWhenBusyAndDrainsOnRelease) {
  Cloud cloud = small_cloud();
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());
  const auto g1 = prov.request(Request({6}, 1));
  ASSERT_TRUE(g1.has_value());
  // Only 2 VMs left: a request for 4 must wait.
  EXPECT_EQ(prov.request(Request({4}, 2)), std::nullopt);
  EXPECT_EQ(prov.queue_length(), 1u);
  const auto drained = prov.release(g1->lease);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].request_id, 2u);
  EXPECT_EQ(prov.queue_length(), 0u);
}

TEST(Provisioner, QueueWaitTimeHistogramSpansEnqueueToGrant) {
  auto& reg = obs::MetricsRegistry::global();
  auto& wait_hist = reg.histogram(
      "provisioner/queue_wait_time",
      obs::MetricsRegistry::exponential_buckets(0.001, 2.0, 24));
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const std::size_t before_count = wait_hist.count();
  const double before_sum = wait_hist.sum();

  Cloud cloud = small_cloud();
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());
  prov.set_now(10.0);
  const auto g1 = prov.request(Request({6}, 1));
  ASSERT_TRUE(g1.has_value());
  prov.set_now(12.5);  // request 2 joins the queue at t=12.5
  EXPECT_EQ(prov.request(Request({4}, 2)), std::nullopt);
  prov.set_now(20.0);  // ... and is granted on the release at t=20
  const auto drained = prov.release(g1->lease);
  ASSERT_EQ(drained.size(), 1u);

  EXPECT_EQ(wait_hist.count(), before_count + 1);
  EXPECT_DOUBLE_EQ(wait_hist.sum() - before_sum, 7.5);
  reg.set_enabled(was_enabled);
}

TEST(Provisioner, RejectsImpossibleRequests) {
  Cloud cloud = small_cloud();
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());
  EXPECT_EQ(prov.request(Request({9}, 1)), std::nullopt);
  EXPECT_EQ(prov.rejected_count(), 1u);
  EXPECT_EQ(prov.queue_length(), 0u);
}

TEST(Provisioner, FifoDrainStopsAtFirstBlockedRequest) {
  Cloud cloud = small_cloud();
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());
  const auto g1 = prov.request(Request({6}, 1));
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(prov.request(Request({5}, 2)), std::nullopt);  // waits
  EXPECT_EQ(prov.request(Request({1}, 3)), std::nullopt);  // waits behind it
  // Release frees 6 VMs (8 total); request 2 (5 VMs) fits and is served;
  // request 3 also fits afterwards.
  const auto drained = prov.release(g1->lease);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].request_id, 2u);
  EXPECT_EQ(drained[1].request_id, 3u);
}

TEST(Provisioner, FifoNoQueueJumping) {
  Cloud cloud = small_cloud();
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());
  const auto g1 = prov.request(Request({4}, 1));
  ASSERT_TRUE(g1.has_value());
  const auto g2 = prov.request(Request({4}, 2));
  ASSERT_TRUE(g2.has_value());
  // Queue: big then small.
  EXPECT_EQ(prov.request(Request({8}, 3)), std::nullopt);
  EXPECT_EQ(prov.request(Request({1}, 4)), std::nullopt);
  // Releasing one lease leaves 4 VMs: head (8 VMs) still blocked, so the
  // small request behind it must NOT jump the queue.
  const auto drained = prov.release(g1->lease);
  EXPECT_TRUE(drained.empty());
  EXPECT_EQ(prov.queue_length(), 2u);
}

TEST(Provisioner, NullPolicyThrows) {
  Cloud cloud = small_cloud();
  EXPECT_THROW(Provisioner(cloud, nullptr), std::invalid_argument);
}

TEST(Provisioner, GrantedAllocationsAreLeased) {
  Cloud cloud = small_cloud();
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());
  const auto g = prov.request(Request({2}, 1));
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(cloud.has_lease(g->lease));
  EXPECT_EQ(cloud.lease_allocation(g->lease).total_vms(), 2);
}

}  // namespace
}  // namespace vcopt::placement
