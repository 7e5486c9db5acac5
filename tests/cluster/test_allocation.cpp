#include "cluster/allocation.h"

#include <gtest/gtest.h>

#include "cluster/topology.h"

namespace vcopt::cluster {
namespace {

// The worked example of the paper's Fig. 1: a request for two V1, four V2,
// one V3 over two racks, and the four candidate allocations DC1..DC4 whose
// distances the paper reports as 2d1+d2, 2d1+d2, 2d2, d1+2d2.
class Fig1Example : public ::testing::Test {
 protected:
  // Rack 1: nodes 0, 1.  Rack 2: nodes 2, 3.  d1 = 1, d2 = 2.
  Topology topo_ = Topology::uniform(2, 2);
};

TEST_F(Fig1Example, DC1) {
  Allocation c({{2, 2, 0}, {0, 2, 0}, {0, 0, 1}, {0, 0, 0}});
  // Central N0: 4*0 + 2*d1 + 1*d2 = 2 + 2 = 4 = 2d1 + d2.
  const CentralNode best = c.best_central(topo_.distance_matrix());
  EXPECT_DOUBLE_EQ(best.distance, 2 * 1.0 + 2.0);
  EXPECT_EQ(best.node, 0u);
}

TEST_F(Fig1Example, DC3) {
  // All seven VMs packed in rack 1 except one: {N0: 2+2+0, N1: 0+2+1}
  // gives 2d1... the paper's DC3 = 2d2 variant instead splits across racks:
  // {N0: (2,2,1) = 5 VMs, N2: (0,2,0) = 2 VMs} -> central N0: 2 VMs at d2.
  Allocation c({{2, 2, 1}, {0, 0, 0}, {0, 2, 0}, {0, 0, 0}});
  EXPECT_DOUBLE_EQ(c.best_central(topo_.distance_matrix()).distance, 2 * 2.0);
}

TEST_F(Fig1Example, DC4) {
  // {N0: 4 VMs, N1: 1 VM, N2: 2 VMs} -> central N0: d1 + 2d2 = 5.
  Allocation c({{2, 1, 1}, {0, 1, 0}, {0, 2, 0}, {0, 0, 0}});
  EXPECT_DOUBLE_EQ(c.best_central(topo_.distance_matrix()).distance,
                   1.0 + 2 * 2.0);
}

TEST(Allocation, EmptyDimensionsThrow) {
  EXPECT_THROW(Allocation(0, 2), std::invalid_argument);
  EXPECT_THROW(Allocation(2, 0), std::invalid_argument);
}

TEST(Allocation, VmCounts) {
  Allocation a({{1, 2}, {0, 3}});
  EXPECT_EQ(a.vms_on_node(0), 3);
  EXPECT_EQ(a.vms_on_node(1), 3);
  EXPECT_EQ(a.vms_of_type(0), 1);
  EXPECT_EQ(a.vms_of_type(1), 5);
  EXPECT_EQ(a.total_vms(), 6);
  EXPECT_FALSE(a.empty_allocation());
}

TEST(Allocation, UsedNodes) {
  Allocation a({{1, 0}, {0, 0}, {0, 2}});
  EXPECT_EQ(a.used_nodes(), (std::vector<std::size_t>{0, 2}));
}

TEST(Allocation, DistanceFromSpecificCentral) {
  const Topology topo = Topology::uniform(2, 2);
  Allocation a({{2, 0}, {1, 0}, {1, 0}, {0, 0}});
  // From node 0: 2*0 + 1*1 + 1*2 = 3.
  EXPECT_DOUBLE_EQ(a.distance_from(0, topo.distance_matrix()), 3.0);
  // From node 3: 2*2 + 1*2 + 1*1 = 7.
  EXPECT_DOUBLE_EQ(a.distance_from(3, topo.distance_matrix()), 7.0);
}

TEST(Allocation, BestCentralPicksMinimum) {
  const Topology topo = Topology::uniform(2, 2);
  Allocation a({{1, 0}, {3, 0}, {0, 0}, {0, 0}});
  const CentralNode best = a.best_central(topo.distance_matrix());
  EXPECT_EQ(best.node, 1u);  // 1 VM at d1 beats 3 VMs at d1
  EXPECT_DOUBLE_EQ(best.distance, 1.0);
}

TEST(Allocation, SatisfiesRequest) {
  Allocation a({{2, 1}, {0, 3}});
  EXPECT_TRUE(a.satisfies(Request({2, 4})));
  EXPECT_FALSE(a.satisfies(Request({2, 3})));
  EXPECT_FALSE(a.satisfies(Request({2, 4, 0})));  // type count mismatch
}

TEST(Allocation, FitsRemaining) {
  Allocation a({{2, 1}, {0, 3}});
  util::IntMatrix enough{{2, 1}, {1, 3}};
  util::IntMatrix tight{{2, 1}, {0, 3}};
  util::IntMatrix small{{1, 1}, {0, 3}};
  EXPECT_TRUE(a.fits(enough));
  EXPECT_TRUE(a.fits(tight));
  EXPECT_FALSE(a.fits(small));
  EXPECT_FALSE(a.fits(util::IntMatrix(1, 2)));  // shape mismatch
}

TEST(Allocation, DistanceFromValidation) {
  Allocation a(2, 2);
  util::DoubleMatrix wrong(3, 3);
  EXPECT_THROW(a.distance_from(0, wrong), std::invalid_argument);
  const Topology topo = Topology::uniform(1, 2);
  EXPECT_THROW(a.distance_from(2, topo.distance_matrix()), std::out_of_range);
}

TEST(Allocation, Describe) {
  Allocation a({{1, 0}, {0, 2}});
  EXPECT_EQ(a.describe(), "{N0:(1,0), N1:(0,2)}");
}

TEST(Allocation, EmptyAllocationDistanceZero) {
  const Topology topo = Topology::uniform(2, 2);
  Allocation a(4, 2);
  EXPECT_DOUBLE_EQ(a.best_central(topo.distance_matrix()).distance, 0.0);
}

}  // namespace
}  // namespace vcopt::cluster
