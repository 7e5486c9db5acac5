#include "placement/global_subopt.h"

#include <gtest/gtest.h>

#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::placement {
namespace {

using cluster::Request;
using cluster::Topology;
using util::IntMatrix;

// Theorem 2 scenario: cluster A (central x) parked a VM on cluster B's
// central node y while B holds a VM of the same type on another node q with
// D(x,y) + D(y,q) > D(x,q); the transfer must strictly reduce the sum.
TEST(GlobalSubOpt, TheoremTwoTransferImprovesSum) {
  const Topology topo = Topology::uniform(2, 2);

  // A: central node 0 (3 VMs), plus one VM on node 2 (B's central).
  Placement a;
  a.allocation = cluster::Allocation(4, 1);
  a.allocation.at(0, 0) = 3;
  a.allocation.at(2, 0) = 1;
  a.central = 0;
  a.distance = a.allocation.distance_from(0, topo);

  // B: central node 2 (2 VMs), plus one VM on node 1 (in A's rack).
  Placement b;
  b.allocation = cluster::Allocation(4, 1);
  b.allocation.at(2, 0) = 2;
  b.allocation.at(1, 0) = 1;
  b.central = 2;
  b.distance = b.allocation.distance_from(2, topo);

  const double before = a.distance + b.distance;
  const std::size_t swaps = GlobalSubOpt::transfer(a, b, topo);
  EXPECT_GE(swaps, 1u);
  const double after = a.distance + b.distance;
  EXPECT_LT(after, before);

  // Totals per node/type across the pair are conserved by swapping.
  EXPECT_EQ(a.allocation.total_vms(), 4);
  EXPECT_EQ(b.allocation.total_vms(), 3);
}

TEST(GlobalSubOpt, TransferNoopWhenSameCentral) {
  const Topology topo = Topology::uniform(2, 2);
  Placement a;
  a.allocation = cluster::Allocation(4, 1);
  a.allocation.at(0, 0) = 2;
  a.central = 0;
  Placement b = a;
  EXPECT_EQ(GlobalSubOpt::transfer(a, b, topo), 0u);
}

TEST(GlobalSubOpt, TransferNoopWithoutPattern) {
  const Topology topo = Topology::uniform(2, 2);
  // Disjoint racks, no VM of A on B's central: nothing to swap.
  Placement a;
  a.allocation = cluster::Allocation(4, 1);
  a.allocation.at(0, 0) = 2;
  a.central = 0;
  a.distance = 0;
  Placement b;
  b.allocation = cluster::Allocation(4, 1);
  b.allocation.at(2, 0) = 2;
  b.central = 2;
  b.distance = 0;
  EXPECT_EQ(GlobalSubOpt::transfer(a, b, topo), 0u);
}

TEST(GlobalSubOpt, BatchAdmitsFifoUntilCapacity) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{2}, {1}};
  GlobalSubOpt g;
  const std::vector<Request> batch = {Request({2}, 0), Request({1}, 1),
                                      Request({4}, 2)};
  const BatchPlacement out = g.place_batch(batch, remaining, topo);
  ASSERT_EQ(out.admitted.size(), 2u);
  EXPECT_EQ(out.admitted[0], 0u);
  EXPECT_EQ(out.admitted[1], 1u);
}

// Requests one node can hold take Algorithm 1's whole-node shortcut.  With a
// nonzero same-node tier each must still report Definition 1 of its
// allocation, which checked builds re-verify after the transfer step.
TEST(GlobalSubOpt, WholeNodePlacementsReportDefinitionOneDistance) {
  cluster::DistanceConfig tiers;
  tiers.same_node = 0.1;
  tiers.same_rack = 0.7;
  tiers.cross_rack = 1.3;
  tiers.cross_cloud = 2.9;
  const Topology topo = Topology::multi_cloud(2, 2, 2, tiers);
  const IntMatrix remaining(8, 2, 3);
  const std::vector<Request> batch = {Request({3, 2}, 0), Request({2, 3}, 1),
                                      Request({1, 1}, 2), Request({3, 3}, 3)};
  GlobalSubOpt g;
  const BatchPlacement out = g.place_batch(batch, remaining, topo);
  ASSERT_EQ(out.admitted.size(), batch.size());
  for (const Placement& p : out.placements) {
    EXPECT_EQ(p.allocation.used_nodes().size(), 1u);
    const cluster::CentralNode best = p.allocation.best_central(topo);
    EXPECT_EQ(p.central, best.node);
    EXPECT_EQ(p.distance, best.distance);
    EXPECT_GT(p.distance, 0.0);
  }
}

TEST(GlobalSubOpt, BatchRespectsSharedCapacity) {
  util::Rng rng(11);
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const auto batch = workload::random_requests(catalog, rng, 10, 0, 4);
  GlobalSubOpt g;
  const BatchPlacement out = g.place_batch(batch, remaining, topo);
  IntMatrix used(remaining.rows(), remaining.cols(), 0);
  for (std::size_t t = 0; t < out.placements.size(); ++t) {
    used += out.placements[t].allocation.to_matrix();
    EXPECT_TRUE(out.placements[t].allocation.satisfies(batch[out.admitted[t]]));
  }
  EXPECT_TRUE(remaining.dominates(used));
}

// The paper's headline simulation claim (Figs. 5-6): the global
// sub-optimisation never yields a larger total distance than the plain
// online sequence, because step 3 only applies strictly improving swaps.
class GlobalNeverWorse : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobalNeverWorse, TransfersOnlyImprove) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const auto batch = workload::random_requests(catalog, rng, 8, 0, 3);

  GlobalSubOpt with_transfers;
  GlobalSubOpt::Options no_opt;
  no_opt.apply_transfers = false;
  GlobalSubOpt without(no_opt);

  const BatchPlacement a = with_transfers.place_batch(batch, remaining, topo);
  const BatchPlacement b = without.place_batch(batch, remaining, topo);
  ASSERT_EQ(a.admitted, b.admitted);
  EXPECT_LE(a.total_distance, b.total_distance + 1e-9) << "seed=" << GetParam();

  // Post-transfer allocations still satisfy their requests and capacity.
  IntMatrix used(remaining.rows(), remaining.cols(), 0);
  for (std::size_t t = 0; t < a.placements.size(); ++t) {
    EXPECT_TRUE(a.placements[t].allocation.satisfies(batch[a.admitted[t]]));
    used += a.placements[t].allocation.to_matrix();
  }
  EXPECT_TRUE(remaining.dominates(used));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalNeverWorse,
                         ::testing::Range<std::uint64_t>(0, 30));

// ISSUE 3: place_batch's dirty-pair worklist skips pairs both of whose
// members are unchanged since their last scan.  The applied-swap sequence —
// and therefore the final placements — must be identical to the full
// O(P^2)-per-round sweep, reimplemented here from the public pieces.
class WorklistEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorklistEquivalence, MatchesFullSweepBitwise) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const auto batch = workload::random_requests(catalog, rng, 14, 0, 4);

  // Reference: steps 1+2 via the online heuristic, step 3 as the pre-PR
  // full sweep over every pair each round.
  OnlineHeuristic online;
  std::vector<Placement> ref;
  IntMatrix avail = remaining;
  for (const Request& r : batch) {
    auto placed = online.place(r, avail, topo);
    if (!placed) continue;
    avail -= placed->allocation.to_matrix();
    ref.push_back(std::move(*placed));
  }
  std::size_t ref_transfers = 0;
  for (std::size_t round = 0; round < 100; ++round) {
    std::size_t swaps = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      for (std::size_t j = i + 1; j < ref.size(); ++j) {
        swaps += GlobalSubOpt::transfer(ref[i], ref[j], topo);
      }
    }
    ref_transfers += swaps;
    if (swaps == 0) break;
  }

  GlobalSubOpt g;
  const BatchPlacement out = g.place_batch(batch, remaining, topo);
  ASSERT_EQ(out.placements.size(), ref.size()) << "seed=" << GetParam();
  EXPECT_EQ(out.transfers_applied, ref_transfers) << "seed=" << GetParam();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(out.placements[i].central, ref[i].central)
        << "seed=" << GetParam() << " i=" << i;
    EXPECT_EQ(out.placements[i].distance, ref[i].distance)
        << "seed=" << GetParam() << " i=" << i;
    EXPECT_EQ(out.placements[i].allocation, ref[i].allocation)
        << "seed=" << GetParam() << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorklistEquivalence,
                         ::testing::Range<std::uint64_t>(200, 212));

TEST(GlobalSubOpt, EmptyBatch) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{1}, {1}};
  GlobalSubOpt g;
  const BatchPlacement out = g.place_batch({}, remaining, topo);
  EXPECT_TRUE(out.placements.empty());
  EXPECT_DOUBLE_EQ(out.total_distance, 0.0);
}

}  // namespace
}  // namespace vcopt::placement
