// Plain churn: fault::run_fault_sim with the default (quiet) profile.
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "fault/fault_sim.h"
#include "placement/online_heuristic.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace vcopt::sim {
namespace {

using cluster::Cloud;
using cluster::Request;
using cluster::TimedRequest;
using cluster::Topology;
using fault::FaultSimResult;
using fault::run_fault_sim;

Cloud small_cloud() {
  return Cloud(Topology::uniform(2, 2),
               cluster::VmCatalog({{"m", 4, 2, 100, 64}}),
               util::IntMatrix(4, 1, 2));
}

TEST(ClusterSim, ServesNonOverlappingRequestsImmediately) {
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {
      {Request({2}, 0), 0.0, 5.0},
      {Request({2}, 1), 10.0, 5.0},
  };
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  ASSERT_EQ(res.grants.size(), 2u);
  EXPECT_DOUBLE_EQ(res.grants[0].wait(), 0.0);
  EXPECT_DOUBLE_EQ(res.grants[1].wait(), 0.0);
  EXPECT_DOUBLE_EQ(res.grants[0].released, 5.0);
  EXPECT_DOUBLE_EQ(res.makespan, 15.0);
  EXPECT_EQ(res.rejected, 0u);
  EXPECT_EQ(res.unserved, 0u);
  EXPECT_EQ(cloud.lease_count(), 0u);  // everything released
}

TEST(ClusterSim, QueuedRequestWaitsForRelease) {
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {
      {Request({8}, 0), 0.0, 10.0},  // occupies everything
      {Request({4}, 1), 2.0, 3.0},   // must wait until t = 10
  };
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  ASSERT_EQ(res.grants.size(), 2u);
  EXPECT_DOUBLE_EQ(res.grants[1].granted, 10.0);
  EXPECT_DOUBLE_EQ(res.grants[1].wait(), 8.0);
  EXPECT_DOUBLE_EQ(res.makespan, 13.0);
  EXPECT_DOUBLE_EQ(res.mean_wait, 4.0);
}

TEST(ClusterSim, RejectsOversizeRequests) {
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {{Request({9}, 0), 0.0, 1.0}};
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  EXPECT_TRUE(res.grants.empty());
  EXPECT_EQ(res.rejected, 1u);
}

TEST(ClusterSim, UtilizationAccounting) {
  Cloud cloud = small_cloud();  // capacity 8 VMs
  std::vector<TimedRequest> trace = {{Request({4}, 0), 0.0, 10.0}};
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  // 4 VMs for the whole 10 s makespan out of 8 -> 50 %.
  EXPECT_NEAR(res.mean_utilization, 0.5, 1e-9);
}

TEST(ClusterSim, TotalDistanceSumsGrants) {
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {
      {Request({4}, 0), 0.0, 5.0},   // needs 2 nodes -> distance 2 (same rack)
      {Request({4}, 1), 20.0, 5.0},
  };
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  ASSERT_EQ(res.grants.size(), 2u);
  EXPECT_DOUBLE_EQ(res.total_distance,
                   res.grants[0].distance + res.grants[1].distance);
}

TEST(ClusterSim, DuplicateRequestIdsRejected) {
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {
      {Request({1}, 0), 0.0, 1.0},
      {Request({1}, 0), 1.0, 1.0},
  };
  EXPECT_THROW(run_fault_sim(
                   cloud, std::make_unique<placement::OnlineHeuristic>(), trace),
               std::invalid_argument);
}

TEST(ClusterSim, NegativeTimesRejected) {
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {{Request({1}, 0), -1.0, 1.0}};
  EXPECT_THROW(run_fault_sim(
                   cloud, std::make_unique<placement::OnlineHeuristic>(), trace),
               std::invalid_argument);
}

TEST(ClusterSim, NonFiniteTimesRejected) {
  // NaN slips past a `< 0` test; infinity would schedule an event that
  // never fires in a finite makespan.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [arrival, hold] : {std::pair{nan, 1.0}, std::pair{0.0, nan},
                                      std::pair{inf, 1.0}, std::pair{0.0, inf}}) {
    Cloud cloud = small_cloud();
    std::vector<TimedRequest> trace = {{Request({1}, 0), arrival, hold}};
    EXPECT_THROW(run_fault_sim(cloud,
                               std::make_unique<placement::OnlineHeuristic>(),
                               trace),
                 std::invalid_argument)
        << "arrival " << arrival << " hold " << hold;
  }
}

TEST(ClusterSim, TimelineTracksStateChanges) {
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {
      {Request({8}, 0), 0.0, 10.0},  // fills the cloud
      {Request({4}, 1), 2.0, 3.0},   // queued until t = 10
  };
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  ASSERT_GE(res.timeline.size(), 4u);
  // Timestamps are non-decreasing; VM counts stay within capacity.
  double prev = 0;
  for (const TimelineSample& s : res.timeline) {
    EXPECT_GE(s.time, prev);
    prev = s.time;
    EXPECT_GE(s.allocated_vms, 0);
    EXPECT_LE(s.allocated_vms, 8);
  }
  // The queued request is visible in the timeline.
  bool saw_queue = false;
  for (const TimelineSample& s : res.timeline) {
    if (s.queue_length > 0) saw_queue = true;
  }
  EXPECT_TRUE(saw_queue);
  // The last sample shows the drained cloud.
  EXPECT_EQ(res.timeline.back().allocated_vms, 0);
  EXPECT_EQ(res.timeline.back().active_leases, 0u);
}

TEST(ClusterSim, ReleaseSampleShowsTheStateAfterTheDrain) {
  // The release at t = 10 frees the cloud and the queued request is granted
  // in the same instant: every sample taken then shows it allocated, in
  // step with the queue length and lease count of the same sample.
  Cloud cloud = small_cloud();
  std::vector<TimedRequest> trace = {
      {Request({8}, 0), 0.0, 10.0},
      {Request({4}, 1), 2.0, 3.0},
  };
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  std::size_t at_release = 0;
  for (const TimelineSample& s : res.timeline) {
    if (s.time != 10.0) continue;
    ++at_release;
    EXPECT_EQ(s.allocated_vms, 4);
    EXPECT_EQ(s.queue_length, 0u);
    EXPECT_EQ(s.active_leases, 1u);
  }
  EXPECT_EQ(at_release, 2u);  // the release, then the drained grant
}

TEST(ClusterSim, RandomTraceDrainsCompletely) {
  util::Rng rng(21);
  const workload::SimScenario sc = workload::paper_sim_scenario(21);
  Cloud cloud(sc.topology, sc.catalog, sc.capacity);
  const auto trace = workload::poisson_trace(sc.requests, rng, 5.0, 20.0);
  const FaultSimResult res = run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  EXPECT_EQ(res.grants.size() + res.rejected + res.unserved, trace.size());
  EXPECT_EQ(cloud.lease_count(), 0u);
  EXPECT_GE(res.mean_utilization, 0.0);
  EXPECT_LE(res.mean_utilization, 1.0);
}

}  // namespace
}  // namespace vcopt::sim
