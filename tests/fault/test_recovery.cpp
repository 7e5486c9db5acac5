// RecoveryManager: affinity-preserving repair, the degradation ladder
// (kRepaired -> kPartial -> kDegraded -> kAbandoned), backoff retries and
// deterministic repair transcripts.
#include "fault/recovery.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cloud.h"
#include "placement/online_heuristic.h"
#include "placement/provisioner.h"
#include "sim/event_queue.h"

namespace vcopt::fault {
namespace {

using cluster::Allocation;
using cluster::Cloud;
using cluster::Request;
using placement::PlacementStatus;

// 3 racks x 4 nodes, 3 EC2 types, plenty of room everywhere.
Cloud roomy_cloud() {
  return Cloud(cluster::Topology::uniform(3, 4),
               cluster::VmCatalog::ec2_default(), util::IntMatrix(12, 3, 4));
}

// Single rack of 3 nodes with 2 slots per type: small enough to fill
// completely so repairs can be starved on purpose.
Cloud tiny_cloud() {
  return Cloud(cluster::Topology::uniform(1, 3),
               cluster::VmCatalog::ec2_default(), util::IntMatrix(3, 3, 2));
}

// Grants `alloc` as a lease after wrapping it in a matching request.
cluster::LeaseId grant_exact(Cloud& cloud, const Allocation& alloc,
                             std::uint64_t id = 99) {
  std::vector<int> totals(cloud.type_count(), 0);
  for (std::size_t t = 0; t < cloud.type_count(); ++t) {
    totals[t] = alloc.vms_of_type(t);
  }
  return cloud.grant(Request(totals, id), alloc);
}

// Fills every remaining slot of the cloud with one big filler lease.
void fill_remaining(Cloud& cloud) {
  const util::IntMatrix rem = cloud.remaining();
  Allocation filler(cloud.node_count(), cloud.type_count());
  for (std::size_t i = 0; i < cloud.node_count(); ++i) {
    for (std::size_t t = 0; t < cloud.type_count(); ++t) {
      filler.at(i, t) = rem(i, t);
    }
  }
  grant_exact(cloud, filler, 1000);
}

TEST(RecoveryManager, FullRepairRestoresTheLeaseOffTheFailedNode) {
  Cloud cloud = roomy_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/7);
  placement::Provisioner prov(
      cloud, std::make_unique<placement::OnlineHeuristic>());

  const Request request({2, 3, 1}, /*id=*/1);
  const auto grant = prov.request(request);
  ASSERT_TRUE(grant.has_value());
  recovery.track(*grant);

  // Crash the node hosting the most of the lease's VMs.
  const Allocation& alloc = cloud.lease_allocation(grant->lease);
  std::size_t victim = 0;
  for (std::size_t i = 1; i < alloc.node_count(); ++i) {
    if (alloc.vms_on_node(i) > alloc.vms_on_node(victim)) victim = i;
  }
  const int lost = alloc.vms_on_node(victim);
  ASSERT_GT(lost, 0);
  recovery.on_node_failed(victim);
  queue.run();

  ASSERT_EQ(recovery.records().size(), 1u);
  const RepairRecord& r = recovery.records()[0];
  EXPECT_EQ(r.status, PlacementStatus::kRepaired);
  EXPECT_EQ(r.lease, grant->lease);
  EXPECT_EQ(r.request_id, grant->request_id);
  EXPECT_EQ(r.vms_lost, lost);
  EXPECT_EQ(r.vms_replaced, lost);
  EXPECT_EQ(recovery.pending_count(), 0u);

  // The repaired lease still satisfies the request, with nothing left on
  // the failed node.
  const Allocation& repaired = cloud.lease_allocation(grant->lease);
  EXPECT_TRUE(repaired.satisfies(request));
  EXPECT_EQ(repaired.vms_on_node(victim), 0);
  EXPECT_EQ(cloud.lease_part_on_node(grant->lease, victim).total_vms(), 0);
}

TEST(RecoveryManager, RepairNeverReturnsToATaintedNodeEvenAfterRecovery) {
  Cloud cloud = roomy_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/3);

  Allocation alloc(cloud.node_count(), cloud.type_count());
  alloc.at(0, 0) = 3;
  alloc.at(1, 0) = 1;
  const cluster::LeaseId lease = grant_exact(cloud, alloc);

  recovery.on_node_failed(0);
  // The node comes back before the repair attempt executes; the replacement
  // must still avoid it (the conservation validator depends on this).
  recovery.on_node_recovered(0);
  ASSERT_FALSE(cloud.is_failed(0));
  queue.run();

  ASSERT_EQ(recovery.records().size(), 1u);
  EXPECT_EQ(recovery.records()[0].status, PlacementStatus::kRepaired);
  EXPECT_EQ(cloud.lease_allocation(lease).vms_on_node(0), 0);
  EXPECT_EQ(cloud.lease_allocation(lease).vms_of_type(0), 4);
}

TEST(RecoveryManager, ExhaustedRetriesWithSomeCapacityEndInPartial) {
  Cloud cloud = tiny_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/5);

  // Lease: 2 type-0 VMs on node 0, 1 on node 1.  Fill the rest of the cloud
  // except a single type-0 slot on node 2.
  Allocation alloc(3, 3);
  alloc.at(0, 0) = 2;
  alloc.at(1, 0) = 1;
  const cluster::LeaseId lease = grant_exact(cloud, alloc);
  util::IntMatrix rem = cloud.remaining();
  Allocation filler(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t t = 0; t < 3; ++t) filler.at(i, t) = rem(i, t);
  }
  filler.at(2, 0) -= 1;  // the one slot the partial refill will find
  grant_exact(cloud, filler, 1000);

  recovery.on_node_failed(0);
  queue.run();

  const RepairRecord* rec = nullptr;
  for (const RepairRecord& r : recovery.records()) {
    if (r.lease == lease) rec = &r;
  }
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, PlacementStatus::kPartial);
  EXPECT_EQ(rec->attempts, kMaxRepairAttempts);
  EXPECT_EQ(rec->vms_lost, 2);
  EXPECT_EQ(rec->vms_replaced, 1);
  // Backoff between attempts advances the event clock.
  EXPECT_GT(rec->completed_at, rec->failed_at);
  // Survivor + the partial replacement, none of it on the failed node.
  EXPECT_EQ(cloud.lease_allocation(lease).total_vms(), 2);
  EXPECT_EQ(cloud.lease_allocation(lease).vms_on_node(0), 0);
}

TEST(RecoveryManager, NoCapacityButSurvivorsEndsInDegraded) {
  Cloud cloud = tiny_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/5);

  Allocation alloc(3, 3);
  alloc.at(0, 0) = 1;
  alloc.at(1, 0) = 1;
  const cluster::LeaseId lease = grant_exact(cloud, alloc);
  fill_remaining(cloud);  // zero free slots anywhere

  recovery.on_node_failed(0);
  queue.run();

  const RepairRecord* rec = nullptr;
  for (const RepairRecord& r : recovery.records()) {
    if (r.lease == lease) rec = &r;
  }
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, PlacementStatus::kDegraded);
  EXPECT_EQ(rec->vms_replaced, 0);
  EXPECT_TRUE(cloud.has_lease(lease));
  EXPECT_EQ(cloud.lease_allocation(lease).total_vms(), 1);
}

TEST(RecoveryManager, EmptiedLeaseWithNoCapacityIsAbandonedAndReleased) {
  Cloud cloud = tiny_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/2);

  Allocation alloc(3, 3);
  alloc.at(0, 0) = 2;  // the whole lease lives on the doomed node
  const cluster::LeaseId lease = grant_exact(cloud, alloc);
  fill_remaining(cloud);

  int releases = 0;
  recovery.set_release_hook([&](cluster::LeaseId id) {
    EXPECT_EQ(id, lease);
    ++releases;
    cloud.release(id);
  });

  recovery.on_node_failed(0);
  queue.run();

  const RepairRecord* rec = nullptr;
  for (const RepairRecord& r : recovery.records()) {
    if (r.lease == lease) rec = &r;
  }
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, PlacementStatus::kAbandoned);
  EXPECT_EQ(rec->vms_replaced, 0);
  EXPECT_EQ(releases, 1);
  EXPECT_FALSE(cloud.has_lease(lease));
  EXPECT_EQ(recovery.pending_count(), 0u);
}

TEST(RecoveryManager, UntrackMidRepairFinalizesAsAbandoned) {
  Cloud cloud = roomy_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/4);

  Allocation alloc(cloud.node_count(), cloud.type_count());
  alloc.at(0, 0) = 2;
  const cluster::LeaseId lease = grant_exact(cloud, alloc);

  recovery.on_node_failed(0);
  ASSERT_EQ(recovery.pending_count(), 1u);
  // The lease is released (normal departure) before the repair event runs.
  cloud.release(lease);
  recovery.untrack(lease);

  EXPECT_EQ(recovery.pending_count(), 0u);
  ASSERT_EQ(recovery.records().size(), 1u);
  EXPECT_EQ(recovery.records()[0].status, PlacementStatus::kAbandoned);
  // The stale repair event must be a harmless no-op.
  EXPECT_NO_THROW(queue.run());
  EXPECT_EQ(recovery.records().size(), 1u);
}

TEST(RecoveryManager, FailedNodeHandlingIsIdempotent) {
  Cloud cloud = roomy_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/8);

  Allocation alloc(cloud.node_count(), cloud.type_count());
  alloc.at(2, 1) = 2;
  grant_exact(cloud, alloc);

  recovery.on_node_failed(2);
  recovery.on_node_failed(2);  // duplicate crash event
  EXPECT_EQ(recovery.pending_count(), 1u);
  queue.run();
  EXPECT_EQ(recovery.records().size(), 1u);
  EXPECT_EQ(recovery.records()[0].status, PlacementStatus::kRepaired);
}

TEST(RecoveryManager, RepairHookFiresOncePerFinalizedRecord) {
  Cloud cloud = roomy_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, /*seed=*/6);

  Allocation alloc(cloud.node_count(), cloud.type_count());
  alloc.at(1, 0) = 2;
  alloc.at(4, 0) = 2;
  grant_exact(cloud, alloc);

  std::vector<placement::PlacementStatus> seen;
  recovery.set_repair_hook(
      [&](const RepairRecord& r) { seen.push_back(r.status); });

  recovery.on_node_failed(1);
  queue.run();
  recovery.on_node_failed(4);
  queue.run();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], PlacementStatus::kRepaired);
  EXPECT_EQ(seen[1], PlacementStatus::kRepaired);
}

// Runs a fixed crash scenario and returns the repair transcript.
std::vector<RepairRecord> run_scenario(std::uint64_t seed) {
  Cloud cloud = roomy_cloud();
  sim::EventQueue queue;
  RecoveryManager recovery(cloud, queue, seed);
  placement::Provisioner prov(
      cloud, std::make_unique<placement::OnlineHeuristic>());
  for (int i = 0; i < 4; ++i) {
    const auto grant = prov.request(Request({2, 1, 1}, 10 + i));
    if (grant) recovery.track(*grant);
  }
  recovery.on_node_failed(0);
  recovery.on_node_failed(1);
  queue.run();
  return recovery.records();
}

TEST(RecoveryManager, IdenticalRunsProduceIdenticalTranscripts) {
  const std::vector<RepairRecord> a = run_scenario(11);
  const std::vector<RepairRecord> b = run_scenario(11);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lease, b[i].lease);
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].vms_lost, b[i].vms_lost);
    EXPECT_EQ(a[i].vms_replaced, b[i].vms_replaced);
    EXPECT_DOUBLE_EQ(a[i].completed_at, b[i].completed_at);
    EXPECT_DOUBLE_EQ(a[i].distance_after, b[i].distance_after);
    EXPECT_EQ(a[i].restricted_scan_used, b[i].restricted_scan_used);
  }
}

}  // namespace
}  // namespace vcopt::fault
