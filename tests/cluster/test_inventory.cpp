#include "cluster/inventory.h"

#include <gtest/gtest.h>

namespace vcopt::cluster {
namespace {

Inventory make_inventory() {
  // Table II flavour: 3 nodes, 2 VM types.
  return Inventory(util::IntMatrix{{2, 3}, {3, 0}, {0, 2}});
}

TEST(Inventory, InitialState) {
  Inventory inv = make_inventory();
  EXPECT_EQ(inv.node_count(), 3u);
  EXPECT_EQ(inv.type_count(), 2u);
  EXPECT_EQ(inv.allocated().total(), 0);
  EXPECT_EQ(inv.remaining(), inv.max_capacity());
  EXPECT_EQ(inv.available(), (std::vector<int>{5, 5}));
  EXPECT_DOUBLE_EQ(inv.utilization(), 0.0);
}

TEST(Inventory, AllocateAndRelease) {
  Inventory inv = make_inventory();
  Allocation a({{1, 2}, {1, 0}, {0, 0}});
  inv.allocate(a);
  EXPECT_EQ(inv.remaining_at(0, 0), 1);
  EXPECT_EQ(inv.remaining_at(0, 1), 1);
  EXPECT_EQ(inv.remaining_at(1, 0), 2);
  EXPECT_EQ(inv.available_of(0), 3);
  EXPECT_NEAR(inv.utilization(), 4.0 / 10.0, 1e-12);
  inv.release(a);
  EXPECT_EQ(inv.allocated().total(), 0);
}

TEST(Inventory, RunningTotalsMatchTheMatrices) {
  Inventory inv = make_inventory();
  EXPECT_EQ(inv.capacity_total(), inv.max_capacity().total());
  EXPECT_EQ(inv.allocated_total(), 0);
  Allocation a({{1, 2}, {1, 0}, {0, 0}});
  Allocation b({{1, 0}, {0, 0}, {0, 2}});
  inv.allocate(a);
  inv.allocate(b);
  EXPECT_EQ(inv.allocated_total(), inv.allocated().total());
  EXPECT_EQ(inv.allocated_total(), 7);
  // A failed release leaves the total as it was.
  EXPECT_THROW(inv.release(Allocation({{3, 0}, {0, 0}, {0, 0}})),
               std::invalid_argument);
  EXPECT_EQ(inv.allocated_total(), 7);
  inv.release(a);
  EXPECT_EQ(inv.allocated_total(), inv.allocated().total());
  EXPECT_EQ(inv.utilization(), static_cast<double>(inv.allocated().total()) /
                                   inv.max_capacity().total());
  EXPECT_EQ(inv.capacity_total(), inv.max_capacity().total());
}

TEST(Inventory, AllocateOverCapacityThrowsAndLeavesStateIntact) {
  Inventory inv = make_inventory();
  Allocation too_big({{3, 0}, {0, 0}, {0, 0}});
  EXPECT_THROW(inv.allocate(too_big), std::invalid_argument);
  EXPECT_EQ(inv.allocated().total(), 0);  // strong guarantee
  // A negative entry would hand back capacity nobody holds; an allocation
  // cannot hold one, so it never reaches the inventory.
  EXPECT_THROW(Allocation(util::IntMatrix{{1, 0}, {-1, 0}, {0, 0}}),
               std::invalid_argument);
  EXPECT_EQ(inv.remaining(), inv.max_capacity());
}

TEST(Inventory, SequentialAllocationsRespectCapacity) {
  Inventory inv = make_inventory();
  Allocation a({{2, 0}, {0, 0}, {0, 0}});
  inv.allocate(a);
  // Node 0 type 0 is now full.
  Allocation b({{1, 0}, {0, 0}, {0, 0}});
  EXPECT_THROW(inv.allocate(b), std::invalid_argument);
}

TEST(Inventory, ReleaseUnallocatedThrows) {
  Inventory inv = make_inventory();
  Allocation a({{1, 0}, {0, 0}, {0, 0}});
  EXPECT_THROW(inv.release(a), std::invalid_argument);
}

TEST(Inventory, ShapeMismatchThrows) {
  Inventory inv = make_inventory();
  Allocation wrong(2, 2);
  EXPECT_THROW(inv.allocate(wrong), std::invalid_argument);
  EXPECT_THROW(inv.release(wrong), std::invalid_argument);
}

TEST(Inventory, AdmissionRules) {
  Inventory inv = make_inventory();
  // Fits available resources now.
  EXPECT_EQ(inv.admit(Request({5, 5})), Admission::kAccept);
  // Exceeds total capacity of type 0 (5): reject.
  EXPECT_EQ(inv.admit(Request({6, 0})), Admission::kReject);
  // After allocating, a request can exceed current availability but not
  // total capacity: wait.
  inv.allocate(Allocation({{2, 0}, {3, 0}, {0, 0}}));
  EXPECT_EQ(inv.admit(Request({1, 0})), Admission::kWait);
}

TEST(Inventory, AdmitTypeMismatchThrows) {
  Inventory inv = make_inventory();
  EXPECT_THROW(inv.admit(Request({1})), std::invalid_argument);
}

TEST(Inventory, ConstructionValidation) {
  EXPECT_THROW(Inventory(util::IntMatrix{}), std::invalid_argument);
  EXPECT_THROW(Inventory(util::IntMatrix{{-1}}), std::invalid_argument);
}

TEST(Inventory, AdmissionToString) {
  EXPECT_STREQ(to_string(Admission::kAccept), "accept");
  EXPECT_STREQ(to_string(Admission::kWait), "wait");
  EXPECT_STREQ(to_string(Admission::kReject), "reject");
}

TEST(Inventory, Describe) {
  Inventory inv = make_inventory();
  EXPECT_EQ(inv.describe(), "3 nodes x 2 VM types, 0/10 VMs allocated");
}

}  // namespace
}  // namespace vcopt::cluster
