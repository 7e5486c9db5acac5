#include "cluster/cloud.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace vcopt::cluster {
namespace {

Cloud make_cloud() {
  // 2 racks x 2 nodes, 3 EC2 types, 2 of each type per node.
  return Cloud(Topology::uniform(2, 2), VmCatalog::ec2_default(),
               util::IntMatrix(4, 3, 2));
}

// The lease's DC record is Definition 1 of its current allocation, bit for
// bit, and its minimum never rises.  Returns the record.
LeaseDc expect_current_dc(const Cloud& cloud, LeaseId id, double prev_min) {
  const CentralNode c =
      cloud.lease_allocation(id).best_central(cloud.topology());
  const LeaseDc dc = cloud.lease_dc(id);
  EXPECT_EQ(dc.central, c.node);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dc.last),
            std::bit_cast<std::uint64_t>(c.distance));
  EXPECT_LE(dc.min, prev_min);
  return dc;
}

TEST(Cloud, ConstructionValidation) {
  EXPECT_THROW(Cloud(Topology::uniform(2, 2), VmCatalog::ec2_default(),
                     util::IntMatrix(3, 3, 1)),
               std::invalid_argument);
  EXPECT_THROW(Cloud(Topology::uniform(2, 2), VmCatalog::ec2_default(),
                     util::IntMatrix(4, 2, 1)),
               std::invalid_argument);
}

TEST(Cloud, GrantAndRelease) {
  Cloud cloud = make_cloud();
  Request r({1, 1, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 1;
  const LeaseId id = cloud.grant(r, a);
  EXPECT_TRUE(cloud.has_lease(id));
  EXPECT_EQ(cloud.lease_count(), 1u);
  EXPECT_EQ(cloud.remaining()(0, 0), 1);
  EXPECT_EQ(cloud.lease_allocation(id).total_vms(), 2);
  cloud.release(id);
  EXPECT_FALSE(cloud.has_lease(id));
  EXPECT_EQ(cloud.remaining()(0, 0), 2);
}

TEST(Cloud, GrantRequiresSatisfyingAllocation) {
  Cloud cloud = make_cloud();
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;  // only 1 of the 2 requested
  EXPECT_THROW(cloud.grant(r, a), std::invalid_argument);
}

TEST(Cloud, GrantRequiresCapacity) {
  Cloud cloud = make_cloud();
  Request r({3, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 3;  // node 0 only has 2 smalls
  EXPECT_THROW(cloud.grant(r, a), std::invalid_argument);
}

TEST(Cloud, ReleaseUnknownLeaseThrows) {
  Cloud cloud = make_cloud();
  EXPECT_THROW(cloud.release(99), std::invalid_argument);
  EXPECT_THROW(cloud.lease_allocation(99), std::invalid_argument);
  EXPECT_THROW(cloud.lease_dc(99), std::invalid_argument);
}

TEST(Cloud, LeaseDcFollowsEveryAllocationChange) {
  Cloud cloud = make_cloud();
  // Two VMs on node 0 and one on node 1, same rack: DC 1.
  Request r({3, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 2;
  a.at(1, 0) = 1;
  const LeaseId id = cloud.grant(r, a);
  LeaseDc dc = expect_current_dc(cloud, id, 1.0);
  EXPECT_EQ(dc.last, 1.0);
  EXPECT_EQ(dc.min, 1.0);

  // Migrating the node-1 VM across racks loosens the lease: DC 2, min 1.
  ASSERT_TRUE(cloud.commit_migration(cloud.begin_migration(id, 1, 2, 0)));
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.last, 2.0);
  EXPECT_EQ(dc.min, 1.0);

  // Growing by one VM on node 3 (rack 1): DC 4 from central node 0.
  Allocation extra(4, 3);
  extra.at(3, 0) = 1;
  cloud.grow_lease(id, extra);
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.central, 0u);
  EXPECT_EQ(dc.last, 4.0);
  EXPECT_EQ(dc.min, 1.0);

  // Shrinking the rack-1 VMs away leaves both VMs on node 0: DC 0.
  Allocation lost(4, 3);
  lost.at(2, 0) = 1;
  lost.at(3, 0) = 1;
  cloud.shrink_lease(id, lost);
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.last, 0.0);
  EXPECT_EQ(dc.min, 0.0);

  // Growing back across racks raises `last` but not `min`.
  cloud.grow_lease(id, extra);
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.last, 2.0);
  EXPECT_EQ(dc.min, 0.0);

  cloud.release(id);
  EXPECT_THROW(cloud.lease_dc(id), std::invalid_argument);
}

TEST(Cloud, LeaseShrunkToZeroKeepsItsMinimum) {
  Cloud cloud = make_cloud();
  // One VM on each rack: DC 2.
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(2, 0) = 1;
  const LeaseId id = cloud.grant(r, a);
  cloud.shrink_lease(id, a);
  const LeaseDc dc = expect_current_dc(cloud, id, 2.0);
  EXPECT_EQ(dc.last, 0.0);
  EXPECT_EQ(dc.min, 2.0);  // an empty allocation has no DC to compare with
}

TEST(Cloud, LeaseIdsAreUnique) {
  Cloud cloud = make_cloud();
  Request r({1, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  const LeaseId id1 = cloud.grant(r, a);
  Allocation b(4, 3);
  b.at(1, 0) = 1;
  const LeaseId id2 = cloud.grant(r, b);
  EXPECT_NE(id1, id2);
  cloud.release(id1);
  // Releasing id1 must not disturb id2's resources.
  EXPECT_EQ(cloud.remaining()(1, 0), 1);
}

TEST(Cloud, AdmitDelegatesToInventory) {
  Cloud cloud = make_cloud();
  EXPECT_EQ(cloud.admit(Request({8, 0, 0})), Admission::kAccept);
  EXPECT_EQ(cloud.admit(Request({9, 0, 0})), Admission::kReject);
}

TEST(Cloud, ChangeStampsMarkTouchedNodesAndRacks) {
  Cloud cloud = make_cloud();  // racks {0, 1} and {2, 3}
  EXPECT_EQ(cloud.change_stamp(), 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(cloud.node_stamp(i), 0u);

  // Stamps are written with no listener set.
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 1;
  a.at(2, 0) = 1;
  const LeaseId id = cloud.grant(Request({2, 1, 0}), a);
  const std::uint64_t s1 = cloud.change_stamp();
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(cloud.node_stamp(0), s1);
  EXPECT_EQ(cloud.node_stamp(1), 0u);
  EXPECT_EQ(cloud.node_stamp(2), s1);
  EXPECT_EQ(cloud.rack_stamp(0), s1);
  EXPECT_EQ(cloud.rack_stamp(1), s1);

  cloud.drain_node(3);
  const std::uint64_t s2 = cloud.change_stamp();
  EXPECT_GT(s2, s1);
  EXPECT_EQ(cloud.node_stamp(3), s2);
  EXPECT_EQ(cloud.rack_stamp(1), s2);
  EXPECT_EQ(cloud.rack_stamp(0), s1);
  EXPECT_EQ(cloud.node_stamp(2), s1);

  // A migration stamps its destination at begin and both ends at commit.
  const std::uint64_t ticket = cloud.begin_migration(id, 0, 1, 0);
  ASSERT_NE(ticket, 0u);
  const std::uint64_t s3 = cloud.change_stamp();
  EXPECT_EQ(cloud.node_stamp(1), s3);
  EXPECT_EQ(cloud.node_stamp(0), s1);
  ASSERT_TRUE(cloud.commit_migration(ticket));
  const std::uint64_t s4 = cloud.change_stamp();
  EXPECT_EQ(cloud.node_stamp(0), s4);
  EXPECT_EQ(cloud.node_stamp(1), s4);
  EXPECT_EQ(cloud.rack_stamp(1), s2);

  cloud.release(id);
  EXPECT_GT(cloud.change_stamp(), s4);
  EXPECT_EQ(cloud.node_stamp(3), s2);
  EXPECT_THROW(cloud.node_stamp(4), std::out_of_range);
  EXPECT_THROW(cloud.rack_stamp(2), std::out_of_range);
}

TEST(Cloud, Describe) {
  Cloud cloud = make_cloud();
  const std::string d = cloud.describe();
  EXPECT_NE(d.find("2 racks"), std::string::npos);
  EXPECT_NE(d.find("0 active leases"), std::string::npos);
}

}  // namespace
}  // namespace vcopt::cluster
