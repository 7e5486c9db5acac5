// The self-healing rebalancer: drift collection off each lease's DC record,
// budgeted economic planning, two-phase migration with rollback + capped
// retry, the per-round degradation ladder, cooldown/budget rate limits and
// the disable/reset rail.  Drift comes from real allocation history: a
// lease is granted tight and a committed migration loosens it.
#include "rebalance/rebalancer.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "cluster/cloud.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"

namespace vcopt::rebalance {
namespace {

using cluster::Allocation;
using cluster::Cloud;
using cluster::LeaseId;
using cluster::Request;

Cloud make_cloud() {
  // 2 racks x 2 nodes, 3 EC2 types, 2 of each type per node.
  return Cloud(cluster::Topology::uniform(2, 2),
               cluster::VmCatalog::ec2_default(), util::IntMatrix(4, 3, 2));
}

// 2 VMs of type 0 on node 0 + 1 stranded cross-rack on node 2: DC = 2,
// and node 1 (same rack as the central) has free slots, so one Theorem-1
// move with gain 1.0 tightens it.  Loose from the grant on, so its DC
// record is flat: min == last == 2.
LeaseId stranded_lease(Cloud& cloud) {
  Request r({3, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 2;
  a.at(2, 0) = 1;
  return cloud.grant(r, a);
}

// Moves one VM of `type` of lease `id` from node `from` to node `to`.
void migrate(Cloud& cloud, LeaseId id, std::size_t from, std::size_t to,
             std::size_t type) {
  ASSERT_TRUE(cloud.commit_migration(cloud.begin_migration(id, from, to, type)));
}

// The stranded lease with a tighter past: granted with its third VM on
// node 1 (DC 1), then migrated across racks to node 2.  Its DC record reads
// min 1.0, last 2.0 — well past the default 1.10 drift ratio.
LeaseId drifted_lease(Cloud& cloud) {
  Request r({3, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 2;
  a.at(1, 0) = 1;
  const LeaseId id = cloud.grant(r, a);
  migrate(cloud, id, 1, 2, 0);
  return id;
}

TEST(Rebalancer, MigratesDriftedLeaseBackTogether) {
  Cloud cloud = make_cloud();
  const LeaseId id = drifted_lease(cloud);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);

  Rebalancer reb(cloud, queue, recorder);
  reb.tick();
  EXPECT_EQ(reb.inflight_count(), 1u);  // live copy in flight
  queue.run();

  ASSERT_EQ(reb.migrations().size(), 1u);
  const MigrationRecord& m = reb.migrations()[0];
  EXPECT_TRUE(m.committed);
  EXPECT_EQ(m.lease, id);
  EXPECT_EQ(m.from, 2u);
  EXPECT_EQ(m.to, 1u);
  EXPECT_DOUBLE_EQ(m.gain, 1.0);
  EXPECT_GT(m.gain, m.cost);
  EXPECT_EQ(m.attempts, 1);
  // The VM actually moved.
  EXPECT_EQ(cloud.lease_allocation(id).at(1, 0), 1);
  EXPECT_EQ(cloud.lease_allocation(id).at(2, 0), 0);
  EXPECT_DOUBLE_EQ(cloud.lease_dc(id).last, 1.0);

  ASSERT_EQ(reb.rounds().size(), 1u);
  const RoundRecord& r = reb.rounds()[0];
  EXPECT_EQ(r.status, RoundStatus::kRebalanced);
  EXPECT_EQ(r.candidates, 1u);
  EXPECT_EQ(r.planned, 1u);
  EXPECT_EQ(r.committed, 1u);
  EXPECT_GT(r.net_gain, 0.0);
  EXPECT_EQ(reb.inflight_count(), 0u);
  // The rebalancer's own telemetry appeared.
  EXPECT_GT(recorder.series("rebalance/round_net_gain").summarize().count, 0u);
}

TEST(Rebalancer, FlatTrajectoryIsNotDrift) {
  Cloud cloud = make_cloud();
  stranded_lease(cloud);  // loose but stable: last == min (and no SLO wired)
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);

  Rebalancer reb(cloud, queue, recorder);
  reb.tick();
  queue.run();
  EXPECT_TRUE(reb.migrations().empty());
  ASSERT_EQ(reb.rounds().size(), 1u);
  EXPECT_EQ(reb.rounds()[0].status, RoundStatus::kRebalanced);
  EXPECT_EQ(reb.rounds()[0].candidates, 0u);
}

TEST(Rebalancer, HealthGateDefersWhileNodesAreDown) {
  Cloud cloud = make_cloud();
  drifted_lease(cloud);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);
  cloud.fail_node(3);  // unrelated node, but the cluster is unhealthy

  Rebalancer reb(cloud, queue, recorder);
  reb.tick();
  queue.run();
  EXPECT_TRUE(reb.migrations().empty());
  ASSERT_EQ(reb.rounds().size(), 1u);
  EXPECT_EQ(reb.rounds()[0].status, RoundStatus::kDeferred);
  // Recovery lifts the gate.
  cloud.recover_node(3);
  reb.tick();
  queue.run();
  EXPECT_EQ(reb.migrations().size(), 1u);
  EXPECT_EQ(reb.rounds().back().status, RoundStatus::kRebalanced);
}

TEST(Rebalancer, DisablesAfterConsecutiveBadRoundsAndResetsBack) {
  Cloud cloud = make_cloud();
  drifted_lease(cloud);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);
  cloud.fail_node(3);

  Rebalancer reb(cloud, queue, recorder);
  for (int i = 1; i < kDisableAfterBadRounds; ++i) reb.tick();
  EXPECT_FALSE(reb.disabled());
  reb.tick();
  EXPECT_TRUE(reb.disabled());
  // kDisableAfterBadRounds deferred rounds, then the kDisabled marker round.
  const std::size_t rounds = kDisableAfterBadRounds + 1;
  ASSERT_EQ(reb.rounds().size(), rounds);
  for (std::size_t i = 0; i + 1 < rounds; ++i) {
    EXPECT_EQ(reb.rounds()[i].status, RoundStatus::kDeferred);
  }
  EXPECT_EQ(reb.rounds().back().status, RoundStatus::kDisabled);
  // Disabled loop ignores further ticks.
  reb.tick();
  EXPECT_EQ(reb.rounds().size(), rounds);
  // Operator reset re-arms it.
  reb.reset();
  EXPECT_FALSE(reb.disabled());
  cloud.recover_node(3);
  reb.tick();
  queue.run();
  EXPECT_EQ(reb.migrations().size(), 1u);
}

TEST(Rebalancer, CooldownLeavesAJustMigratedLeaseAlone) {
  Cloud cloud = make_cloud();
  // Four VMs granted on nodes 0 and 1 (DC 2), then two stranded across
  // racks on nodes 2 and 3 (DC 4).
  Request r({4, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 2;
  a.at(1, 0) = 2;
  const LeaseId id = cloud.grant(r, a);
  migrate(cloud, id, 1, 2, 0);
  migrate(cloud, id, 1, 3, 0);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);

  placement::RebalancePolicy policy;
  policy.max_moves_per_round = 1;
  Rebalancer reb(cloud, queue, recorder, policy);
  reb.tick();
  queue.run();
  ASSERT_EQ(reb.migrations().size(), 1u);
  // One stranded VM is back (DC 3, min 2): the lease is still drifted, but
  // it is inside its cooldown window, so the next round skips it.
  const cluster::LeaseDc dc = cloud.lease_dc(id);
  EXPECT_GT(dc.last, policy.drift_ratio * dc.min);
  reb.tick();
  queue.run();
  EXPECT_EQ(reb.migrations().size(), 1u);
  ASSERT_EQ(reb.rounds().size(), 2u);
  EXPECT_EQ(reb.rounds()[1].candidates, 0u);
}

TEST(Rebalancer, PerRoundBudgetCapsConcurrentMoves) {
  Cloud cloud = make_cloud();
  drifted_lease(cloud);
  // Second drifted lease of a different type: granted within rack 0, then
  // stranded cross-rack on node 3.
  Request r({0, 2, 0});
  Allocation al(4, 3);
  al.at(0, 1) = 1;
  al.at(1, 1) = 1;
  const LeaseId b = cloud.grant(r, al);
  migrate(cloud, b, 1, 3, 1);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);

  placement::RebalancePolicy policy;
  policy.max_moves_per_round = 1;
  Rebalancer reb(cloud, queue, recorder, policy);
  reb.tick();
  queue.run();
  EXPECT_EQ(reb.migrations().size(), 1u);
  EXPECT_EQ(reb.rounds()[0].candidates, 2u);
  EXPECT_EQ(reb.rounds()[0].planned, 1u);
}

TEST(Rebalancer, MidCopyNodeFailureRollsBackThenRetriesToExhaustion) {
  Cloud cloud = make_cloud();
  const LeaseId id = drifted_lease(cloud);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);

  Rebalancer reb(cloud, queue, recorder);
  reb.tick();  // begin_migration reserves a slot on node 1
  EXPECT_EQ(cloud.pending_migration_count(), 1u);
  // The destination crashes mid-copy: commit must roll back, then every
  // retry finds the node still down and the chain ends terminally.
  cloud.fail_node(1);
  queue.run();

  ASSERT_EQ(reb.migrations().size(), 1u);
  const MigrationRecord& m = reb.migrations()[0];
  EXPECT_FALSE(m.committed);
  EXPECT_EQ(m.attempts, kMaxRetries + 1);
  EXPECT_EQ(cloud.pending_migration_count(), 0u);
  // Books intact: the VM never left node 2, nothing was duplicated.
  EXPECT_EQ(cloud.lease_allocation(id).at(2, 0), 1);
  EXPECT_EQ(cloud.lease_allocation(id).total_vms(), 3);
  ASSERT_EQ(reb.rounds().size(), 1u);
  EXPECT_EQ(reb.rounds()[0].status, RoundStatus::kDeferred);
  EXPECT_GE(reb.rounds()[0].rolled_back, 1u);
}

TEST(Rebalancer, LeaseReleasedMidRetryEndsTheChainCleanly) {
  Cloud cloud = make_cloud();
  const LeaseId id = drifted_lease(cloud);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);

  Rebalancer reb(cloud, queue, recorder);
  reb.tick();
  cloud.release(id);  // tenant leaves while the copy is in flight
  queue.run();
  ASSERT_EQ(reb.migrations().size(), 1u);
  EXPECT_FALSE(reb.migrations()[0].committed);
  EXPECT_EQ(cloud.pending_migration_count(), 0u);
  EXPECT_EQ(reb.inflight_count(), 0u);
}

TEST(Rebalancer, SloObjectiveWidensTheNetToFlatButLooseLeases) {
  // Under the default tiers no lease's DC per VM exceeds the threshold of
  // 4: every VM sits at most cross_cloud = 4 from the central.  Two
  // one-rack clouds 16 apart let the stranded lease (two VMs on node 0, one
  // on node 2, across clouds) reach 16 / 3 = 5.33 per VM.
  cluster::DistanceConfig far;
  far.cross_cloud = 16.0;
  Cloud cloud(cluster::Topology::multi_cloud(2, 1, 2, far),
              cluster::VmCatalog::ec2_default(), util::IntMatrix(4, 3, 2));
  stranded_lease(cloud);
  sim::EventQueue queue;
  obs::Recorder recorder;
  recorder.set_enabled(true);
  // Flat DC record — no drift signal — but DC-per-VM is above
  // placement::kDcPerVmThreshold with the whole lease loose from day one.
  ASSERT_GT(16.0 / 3.0, placement::kDcPerVmThreshold);

  obs::SloTracker slo;
  Rebalancer reb(cloud, queue, recorder, {}, /*seed=*/1, &slo);
  ASSERT_TRUE(slo.declared("rebalance/dc_per_vm"));
  // Each tick feeds the objective one (bad) sample; once the burn alert
  // arms, the flat-but-loose lease becomes a candidate.
  for (int i = 0; i < 12 && reb.migrations().empty(); ++i) {
    reb.tick();
    queue.run();
  }
  ASSERT_EQ(reb.migrations().size(), 1u);
  EXPECT_TRUE(reb.migrations()[0].committed);
  EXPECT_TRUE(slo.any_alerting(queue.now()));
}

TEST(Rebalancer, ArmedTickerReplaysByteIdenticalTranscripts) {
  const auto run = [] {
    Cloud cloud = make_cloud();
    drifted_lease(cloud);
    sim::EventQueue queue;
    obs::Recorder recorder;
    recorder.set_enabled(true);
    placement::RebalancePolicy policy;
    policy.tick_period = 5.0;
    Rebalancer reb(cloud, queue, recorder, policy, /*seed=*/7);
    reb.arm(/*horizon=*/60.0);
    queue.run();
    return reb.transcript();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace vcopt::rebalance
