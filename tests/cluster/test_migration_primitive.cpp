// Two-phase live migration on the Cloud: reserve -> move -> commit, the
// rollback paths (explicit and automatic when the world changed mid-copy),
// reservation-aware remaining(), and VM conservation across every outcome.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/validators.h"
#include "cluster/cloud.h"

namespace vcopt::cluster {
namespace {

Cloud make_cloud() {
  // 2 racks x 2 nodes, 3 EC2 types, 2 of each type per node.
  return Cloud(Topology::uniform(2, 2), VmCatalog::ec2_default(),
               util::IntMatrix(4, 3, 2));
}

// Grants one VM of type 0 on node 0 and one on node 2 (cross-rack).
LeaseId spread_lease(Cloud& cloud) {
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(2, 0) = 1;
  return cloud.grant(r, a);
}

TEST(Migration, CommitMovesVmAndConservesTotals) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  const util::IntMatrix before = cloud.lease_allocation(id).to_matrix();

  const std::uint64_t ticket = cloud.begin_migration(id, 2, 1, 0);
  ASSERT_GT(ticket, 0u);
  EXPECT_EQ(cloud.pending_migration_count(), 1u);
  ASSERT_TRUE(cloud.commit_migration(ticket));
  EXPECT_EQ(cloud.pending_migration_count(), 0u);

  const util::IntMatrix after = cloud.lease_allocation(id).to_matrix();
  EXPECT_EQ(after(2, 0), 0);
  EXPECT_EQ(after(1, 0), 1);
  EXPECT_TRUE(
      check::validate_migration_conservation(before, after, 2, 1, 0).ok);
}

TEST(Migration, ReservationHidesDestinationSlotFromRemaining) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  EXPECT_EQ(cloud.remaining()(1, 0), 2);
  const std::uint64_t ticket = cloud.begin_migration(id, 2, 1, 0);
  ASSERT_GT(ticket, 0u);
  // One slot at the destination is reserved for the in-flight copy...
  EXPECT_EQ(cloud.remaining()(1, 0), 1);
  // ...and the source VM still occupies its slot until commit.
  EXPECT_EQ(cloud.remaining()(2, 0), 1);
  cloud.rollback_migration(ticket);
  // Rollback returns the reservation untouched.
  EXPECT_EQ(cloud.remaining()(1, 0), 2);
  EXPECT_EQ(cloud.lease_allocation(id).at(2, 0), 1);
}

TEST(Migration, BeginRefusesTransientConditionsWithZeroTicket) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  // No such VM held by the lease on that node.
  EXPECT_EQ(cloud.begin_migration(id, 1, 3, 0), 0u);
  // Destination full: consume both slots of type 0 on node 1.
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(1, 0) = 2;
  cloud.grant(r, a);
  EXPECT_EQ(cloud.begin_migration(id, 2, 1, 0), 0u);
  // Destination drained / failed.
  cloud.drain_node(3);
  EXPECT_EQ(cloud.begin_migration(id, 2, 3, 0), 0u);
  cloud.undrain_node(3);
  cloud.fail_node(3);
  EXPECT_EQ(cloud.begin_migration(id, 2, 3, 0), 0u);
  // Source failed.
  cloud.fail_node(2);
  EXPECT_EQ(cloud.begin_migration(id, 2, 3, 0), 0u);
  EXPECT_EQ(cloud.pending_migration_count(), 0u);
}

TEST(Migration, BeginThrowsOnCallerBugs) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  EXPECT_THROW(cloud.begin_migration(999, 2, 1, 0), std::invalid_argument);
  EXPECT_THROW(cloud.begin_migration(id, 9, 1, 0), std::invalid_argument);
  EXPECT_THROW(cloud.begin_migration(id, 2, 9, 0), std::invalid_argument);
  EXPECT_THROW(cloud.begin_migration(id, 2, 1, 9), std::invalid_argument);
  EXPECT_THROW(cloud.begin_migration(id, 2, 2, 0), std::invalid_argument);
}

TEST(Migration, CommitRollsBackWhenSourceVmLostMidCopy) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  const std::uint64_t ticket = cloud.begin_migration(id, 2, 1, 0);
  ASSERT_GT(ticket, 0u);
  // Node 2 crashes mid-copy and the repair layer revokes the lost VM.
  cloud.fail_node(2);
  Allocation lost(4, 3);
  lost.at(2, 0) = 1;
  cloud.shrink_lease(id, lost);

  EXPECT_FALSE(cloud.commit_migration(ticket));
  EXPECT_EQ(cloud.pending_migration_count(), 0u);
  // The reservation was released; the lease kept only its surviving VM.
  EXPECT_EQ(cloud.remaining()(1, 0), 2);
  EXPECT_EQ(cloud.lease_allocation(id).total_vms(), 1);
}

TEST(Migration, CommitRollsBackWhenDestinationFailedMidCopy) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  const std::uint64_t ticket = cloud.begin_migration(id, 2, 1, 0);
  ASSERT_GT(ticket, 0u);
  cloud.fail_node(1);
  EXPECT_FALSE(cloud.commit_migration(ticket));
  // The VM never moved: books unchanged, conservation trivially holds.
  EXPECT_EQ(cloud.lease_allocation(id).at(2, 0), 1);
  EXPECT_EQ(cloud.lease_allocation(id).at(1, 0), 0);
  EXPECT_EQ(cloud.pending_migration_count(), 0u);
}

TEST(Migration, CommitRollsBackWhenLeaseReleasedMidCopy) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  const std::uint64_t ticket = cloud.begin_migration(id, 2, 1, 0);
  ASSERT_GT(ticket, 0u);
  cloud.release(id);
  EXPECT_FALSE(cloud.commit_migration(ticket));
  // Everything the lease held is back in the pool, reservation included.
  EXPECT_EQ(cloud.remaining()(0, 0), 2);
  EXPECT_EQ(cloud.remaining()(1, 0), 2);
  EXPECT_EQ(cloud.remaining()(2, 0), 2);
}

TEST(Migration, UnknownTicketThrows) {
  Cloud cloud = make_cloud();
  EXPECT_THROW(cloud.commit_migration(42), std::invalid_argument);
  EXPECT_THROW(cloud.rollback_migration(42), std::invalid_argument);
  // A ticket is single-use: committing twice throws the second time.
  const LeaseId id = spread_lease(cloud);
  const std::uint64_t ticket = cloud.begin_migration(id, 2, 1, 0);
  ASSERT_TRUE(cloud.commit_migration(ticket));
  EXPECT_THROW(cloud.commit_migration(ticket), std::invalid_argument);
  EXPECT_THROW(cloud.rollback_migration(ticket), std::invalid_argument);
}

TEST(Migration, ReservationBlocksCompetingGrant) {
  Cloud cloud = make_cloud();
  const LeaseId id = spread_lease(cloud);
  // Reserve both free type-0 slots on node 1 via two in-flight migrations
  // of the same lease's two VMs.
  const std::uint64_t t1 = cloud.begin_migration(id, 0, 1, 0);
  const std::uint64_t t2 = cloud.begin_migration(id, 2, 1, 0);
  ASSERT_GT(t1, 0u);
  ASSERT_GT(t2, 0u);
  EXPECT_EQ(cloud.remaining()(1, 0), 0);
  // A grant trying to take those reserved slots must be rejected.
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(1, 0) = 2;
  EXPECT_THROW(cloud.grant(r, a), std::invalid_argument);
  ASSERT_TRUE(cloud.commit_migration(t1));
  ASSERT_TRUE(cloud.commit_migration(t2));
  // Both VMs now live on node 1; the lease is whole.
  EXPECT_EQ(cloud.lease_allocation(id).at(1, 0), 2);
  EXPECT_EQ(cloud.lease_allocation(id).total_vms(), 2);
}

TEST(Migration, ConservationValidatorCatchesBrokenBooks) {
  // The validator itself: a "migration" that teleports the VM to the wrong
  // node, duplicates it, or changes its type must be flagged.
  util::IntMatrix before(4, 3, 0);
  before(2, 0) = 1;
  util::IntMatrix moved(4, 3, 0);
  moved(1, 0) = 1;
  EXPECT_TRUE(
      check::validate_migration_conservation(before, moved, 2, 1, 0).ok);
  util::IntMatrix duplicated(4, 3, 0);
  duplicated(1, 0) = 1;
  duplicated(2, 0) = 1;
  EXPECT_FALSE(
      check::validate_migration_conservation(before, duplicated, 2, 1, 0)
          .ok);
  util::IntMatrix wrong_type(4, 3, 0);
  wrong_type(1, 1) = 1;
  EXPECT_FALSE(
      check::validate_migration_conservation(before, wrong_type, 2, 1, 0)
          .ok);
}

}  // namespace
}  // namespace vcopt::cluster
