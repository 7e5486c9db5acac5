// Algorithm 1 from the cloud's free-vector class index must give the scored
// scan's answer: place() on a Cloud's capacity view (matrix + class index,
// with or without a window overlay) equals place() on the bare matrix —
// the same whole-node node, or the same central, distance bits and
// entries — on uniform, multi-cloud and irregular topologies, churned
// inventories with empty and full racks, requests that fit one node, one
// rack or only several clouds, the all-zero request, and random window
// debits.  Shapes above FreeIndex::kMaxClasses keep no classes and scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/capacity_view.h"
#include "cluster/cloud.h"
#include "obs/metrics.h"
#include "placement/online_heuristic.h"
#include "reference.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::placement {
namespace {

using cluster::Cloud;
using cluster::DistanceConfig;
using cluster::Request;
using cluster::Topology;
using reference::irregular;
using reference::tiers;
using util::IntMatrix;

void expect_identical(const std::optional<Placement>& got,
                      const std::optional<Placement>& want,
                      const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->central, want->central) << where;
  EXPECT_EQ(got->distance, want->distance) << where;  // bitwise
  EXPECT_EQ(got->allocation, want->allocation) << where;
}

struct Shape {
  std::string name;
  Topology topology;
};

std::vector<Shape> shapes(util::Rng& rng) {
  return {
      {"uniform", Topology::uniform(4, 8)},
      {"multi_cloud", Topology::multi_cloud(3, 2, 5)},
      {"irregular", irregular(rng, 40, 7, DistanceConfig{})},
      {"integral_tiers", Topology::multi_cloud(2, 3, 4, tiers(1, 3, 7, 20))},
      {"zero_node_tier", irregular(rng, 30, 5, tiers(0, 2, 5, 9))},
      // Four 64-node words: walks cross word boundaries.
      {"wide", Topology::uniform(8, 32)},
      // Fractional tiers take the scan, view or not.
      {"fractional", Topology::multi_cloud(2, 3, 5, tiers(0.1, 0.7, 1.3, 2.9))},
  };
}

// A Fig.-5 inventory churned through the cloud's own mutators: grants and
// releases, a drained rack (empty), a rack granted full, a failed node.
void churn(Cloud& cloud, util::Rng& rng) {
  const cluster::VmCatalog& catalog = cloud.catalog();
  const Topology& topo = cloud.topology();
  OnlineHeuristic heuristic;
  std::vector<cluster::LeaseId> live;
  for (std::uint64_t id = 0; id < 24; ++id) {
    const Request r = workload::random_request(catalog, rng, 0, 4, id);
    if (r.empty()) continue;
    if (auto p = heuristic.place(r, cloud.capacity_view(), topo)) {
      live.push_back(cloud.grant(r, p->allocation));
    }
    if (!live.empty() && rng.bernoulli(0.3)) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      cloud.release(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  // Rack 0 drained empty; the last rack granted full.
  for (const std::size_t i : topo.nodes_in_rack(0)) cloud.drain_node(i);
  const std::size_t last = topo.rack_count() - 1;
  std::vector<cluster::Allocation::Entry> all;
  std::vector<int> counts(cloud.type_count(), 0);
  for (const std::size_t i : topo.nodes_in_rack(last)) {
    for (std::size_t j = 0; j < cloud.type_count(); ++j) {
      const int v = cloud.remaining_at(i, j);
      if (v == 0) continue;
      all.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j), v});
      counts[j] += v;
    }
  }
  if (!all.empty()) {
    cloud.grant(Request(counts), cluster::Allocation::from_entries(
                                     cloud.node_count(), cloud.type_count(),
                                     std::move(all)));
  }
  cloud.fail_node(topo.nodes_in_rack(1).front());
}

// Requests that fit one node, one rack, or only several racks or clouds,
// some that no capacity admits, and the all-zero request.
std::vector<Request> requests(const cluster::VmCatalog& catalog,
                              util::Rng& rng) {
  std::vector<Request> out;
  for (std::uint64_t id = 0; id < 12; ++id) {
    const int hi = id < 4 ? 2 : id < 8 ? 6 : 16;
    out.push_back(workload::random_request(catalog, rng, hi / 4, hi, id));
  }
  out.emplace_back(std::vector<int>(catalog.size(), 0));
  return out;
}

cluster::VmCatalog two_types() {
  return cluster::VmCatalog({cluster::VmType{"a"}, cluster::VmType{"b"}});
}

class ClassQuery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassQuery, MatchesTheScanOnChurnedInventories) {
  util::Rng rng(GetParam());
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  OnlineHeuristic heuristic;
  for (const Shape& s : shapes(rng)) {
    Cloud cloud(s.topology, catalog,
                workload::random_inventory(s.topology, catalog, rng, 0, 4));
    churn(cloud, rng);
    ASSERT_TRUE(cloud.free_index().has_classes());
    const IntMatrix bare = cloud.remaining();
    for (const Request& r : requests(catalog, rng)) {
      expect_identical(heuristic.place(r, cloud.capacity_view(), s.topology),
                       heuristic.place(r, bare, s.topology),
                       s.name + " seed=" + std::to_string(GetParam()));
    }
  }
}

// A window's view: the snapshot's matrix debited by earlier grants of the
// window, with the cloud's index of the undebited state and the debited
// nodes as the overlay.
TEST_P(ClassQuery, MatchesTheScanUnderWindowOverlays) {
  util::Rng rng(GetParam() + 1000);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  OnlineHeuristic heuristic;
  for (const Shape& s : shapes(rng)) {
    Cloud cloud(s.topology, catalog,
                workload::random_inventory(s.topology, catalog, rng, 0, 4));
    churn(cloud, rng);
    IntMatrix avail = cloud.remaining();
    cluster::WindowOverlay overlay;
    const cluster::CapacityView view(avail, &cloud.free_index(), &overlay);
    for (const Request& r : requests(catalog, rng)) {
      const std::string where = s.name + " seed=" + std::to_string(GetParam()) +
                                " overlay " +
                                std::to_string(overlay.nodes().size());
      const std::optional<Placement> got = heuristic.place(r, view, s.topology);
      expect_identical(got, heuristic.place(r, avail, s.topology), where);
      // Debit the grant, as plan_window does, so later queries see it.
      if (got && rng.bernoulli(0.7)) {
        ASSERT_TRUE(got->allocation.debit_from(avail)) << where;
        overlay.add(got->allocation);
      }
    }
  }
}

// The winner's off-rack fill.  Each case below is built so the fill must
// leave the central's rack, asserts that it does, and compares the class
// query's placement, entries included, with the scan's.

// place() on `view` and on its bare matrix, which must agree; returns the
// view's answer.
std::optional<Placement> place_both(const Request& r,
                                    const cluster::CapacityView& view,
                                    const Topology& topo,
                                    const std::string& where) {
  OnlineHeuristic heuristic;
  const std::optional<Placement> got = heuristic.place(r, view, topo);
  expect_identical(got, heuristic.place(r, view.matrix(), topo), where);
  return got;
}

// A request that no group of nodes completes, `group_of` mapping a node to
// its group: one VM of each type more than the group freest in that type
// holds, capped at the total.  Empty if some type's total fits one group.
std::optional<Request> beyond_every_group(
    const IntMatrix& free, std::size_t groups,
    const std::function<std::size_t(std::size_t)>& group_of) {
  std::vector<int> sums(groups * free.cols(), 0);
  std::vector<int> total(free.cols(), 0);
  for (std::size_t i = 0; i < free.rows(); ++i) {
    for (std::size_t j = 0; j < free.cols(); ++j) {
      sums[group_of(i) * free.cols() + j] += free(i, j);
      total[j] += free(i, j);
    }
  }
  std::vector<int> counts(free.cols(), 0);
  bool beyond = false;
  for (std::size_t j = 0; j < free.cols(); ++j) {
    int most = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      most = std::max(most, sums[g * free.cols() + j]);
    }
    counts[j] = std::min(total[j], most + 1);
    beyond = beyond || counts[j] > most;
  }
  if (!beyond) return std::nullopt;
  return Request(std::move(counts));
}

std::optional<Request> beyond_every_rack(const IntMatrix& free,
                                         const Topology& topo) {
  return beyond_every_group(free, topo.rack_count(),
                            [&](std::size_t i) { return topo.rack_of(i); });
}

std::set<std::size_t> racks_of(const Placement& p, const Topology& topo) {
  std::set<std::size_t> racks;
  for (const cluster::Allocation::Entry& e : p.allocation.entries()) {
    racks.insert(topo.rack_of(e.node));
  }
  return racks;
}

// getList's key com(L[x], row).
int overlap(const IntMatrix& free, std::size_t x, const int* row) {
  int k = 0;
  for (std::size_t j = 0; j < free.cols(); ++j) {
    k += std::min(free(x, j), row[j]);
  }
  return k;
}

// Three clouds; the request needs more of some type than any one cloud
// has free, so the same-cloud tier cannot complete it and the walk of the
// other clouds must.
TEST_P(ClassQuery, OffRackFillCrossesClouds) {
  util::Rng rng(GetParam() + 2000);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const Topology topo = Topology::multi_cloud(3, 2, 4);
  const Cloud cloud(topo, catalog,
                    workload::random_inventory(topo, catalog, rng, 0, 4));
  const IntMatrix free = cloud.remaining();
  const std::optional<Request> r = beyond_every_group(
      free, topo.cloud_count(), [&](std::size_t i) { return topo.cloud_of(i); });
  ASSERT_TRUE(r.has_value());
  const auto got = place_both(*r, cloud.capacity_view(), topo, "clouds");
  ASSERT_TRUE(got.has_value());
  std::set<std::size_t> clouds;
  for (const cluster::Allocation::Entry& e : got->allocation.entries()) {
    clouds.insert(topo.cloud_of(e.node));
  }
  EXPECT_GE(clouds.size(), 2u);
}

// Racks drawn per node, so no rack is a contiguous node range, and the
// request needs more than any rack holds.
TEST_P(ClassQuery, OffRackFillOnIrregularRacks) {
  util::Rng rng(GetParam() + 3000);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const Topology topo = irregular(rng, 40, 7, DistanceConfig{});
  bool scattered = false;
  for (std::size_t k = 0; k < topo.rack_count(); ++k) {
    const std::vector<std::size_t>& nodes = topo.nodes_in_rack(k);
    scattered = scattered ||
                (!nodes.empty() && nodes.back() - nodes.front() + 1 != nodes.size());
  }
  ASSERT_TRUE(scattered);
  Cloud cloud(topo, catalog,
              workload::random_inventory(topo, catalog, rng, 0, 4));
  const std::optional<Request> r = beyond_every_rack(cloud.remaining(), topo);
  ASSERT_TRUE(r.has_value());
  const auto got = place_both(*r, cloud.capacity_view(), topo, "irregular");
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(racks_of(*got, topo).size(), 2u);
}

// A window whose earlier grants took half of every cell of every other
// node: an overlay node off the central's rack whose current row's key
// differs from its stale class's must be merged in by its current key.
// The request takes most of what is left, so such nodes give VMs.
TEST_P(ClassQuery, OffRackFillMergesOverlayRowsByTheirCurrentKey) {
  util::Rng rng(GetParam() + 4000);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const Topology topo = Topology::uniform(4, 8);
  Cloud cloud(topo, catalog,
              workload::random_inventory(topo, catalog, rng, 0, 4));
  const cluster::FreeIndex& index = cloud.free_index();
  IntMatrix avail = cloud.remaining();
  const IntMatrix& rows = avail;  // reads that keep the sums warm
  std::vector<cluster::Allocation::Entry> half;
  for (std::size_t i = 0; i < topo.node_count(); i += 2) {
    for (std::size_t j = 0; j < catalog.size(); ++j) {
      if (rows(i, j) >= 2) {
        half.push_back({static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(j), rows(i, j) / 2});
      }
    }
  }
  const cluster::Allocation debit = cluster::Allocation::from_entries(
      topo.node_count(), catalog.size(), std::move(half));
  ASSERT_TRUE(debit.debit_from(avail));
  cluster::WindowOverlay overlay;
  overlay.add(debit);
  const cluster::CapacityView view(avail, &index, &overlay);
  const std::vector<std::uint32_t>& nodes = overlay.nodes();

  bool reached = false;
  for (const int share : {3, 2, 1}) {  // quarters of the free total
    std::vector<int> counts(catalog.size(), 0);
    for (std::size_t j = 0; j < catalog.size(); ++j) {
      counts[j] = rows.col_sum(j) * share / 4;
    }
    const auto got = place_both(Request(counts), view, topo,
                                "overlay share " + std::to_string(share));
    ASSERT_TRUE(got.has_value());
    const std::size_t x = got->central;
    for (const cluster::Allocation::Entry& e : got->allocation.entries()) {
      if (topo.rack_of(e.node) == topo.rack_of(x) ||
          !std::binary_search(nodes.begin(), nodes.end(), e.node)) {
        continue;
      }
      const int now = overlap(rows, x, &rows(e.node, 0));
      const int stale =
          overlap(rows, x, index.class_free(index.class_of(e.node)));
      reached = reached || now != stale;
    }
  }
  EXPECT_TRUE(reached);
}

// Two types, every node free in one of them only, so the central has no
// free slot of the other: every node holding that type has key 0, last in
// getList order, and the fill still takes the type from off-rack ones.
TEST_P(ClassQuery, OffRackFillTakesFromKeyZeroNodes) {
  util::Rng rng(GetParam() + 5000);
  const Topology topo = Topology::uniform(4, 4);
  IntMatrix caps(topo.node_count(), 2, 0);
  for (std::size_t i = 0; i < caps.rows(); ++i) {
    caps(i, rng.bernoulli(0.5) ? 0 : 1) =
        static_cast<int>(rng.uniform_int(1, 4));
  }
  const Cloud cloud(topo, two_types(), caps);
  const IntMatrix& free = cloud.capacity_view().matrix();
  const std::optional<Request> r = beyond_every_rack(free, topo);
  ASSERT_TRUE(r.has_value());
  const auto got = place_both(*r, cloud.capacity_view(), topo, "key zero");
  ASSERT_TRUE(got.has_value());
  const std::size_t x = got->central;
  bool key_zero = false;
  for (const cluster::Allocation::Entry& e : got->allocation.entries()) {
    key_zero = key_zero || (topo.rack_of(e.node) != topo.rack_of(x) &&
                            overlap(free, x, &free(e.node, 0)) == 0);
  }
  EXPECT_TRUE(key_zero);
}

// Most nodes hold one row, so the class of the top key has members in the
// central's rack; the rack step has taken them, and the off-rack walk
// must skip them.
TEST_P(ClassQuery, OffRackFillSkipsTopKeyRackMates) {
  util::Rng rng(GetParam() + 6000);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const Topology topo = Topology::uniform(4, 8);
  std::vector<int> top(catalog.size());
  for (int& v : top) v = static_cast<int>(rng.uniform_int(1, 4));
  IntMatrix caps(topo.node_count(), catalog.size());
  for (std::size_t i = 0; i < caps.rows(); ++i) {
    const bool low = rng.bernoulli(0.3);
    for (std::size_t j = 0; j < caps.cols(); ++j) {
      caps(i, j) = low ? top[j] / 2 : top[j];
    }
  }
  const Cloud cloud(topo, catalog, caps);
  const std::optional<Request> r =
      beyond_every_rack(cloud.capacity_view().matrix(), topo);
  ASSERT_TRUE(r.has_value());
  const auto got = place_both(*r, cloud.capacity_view(), topo, "top key");
  ASSERT_TRUE(got.has_value());
  const std::size_t x = got->central;
  const cluster::FreeIndex& index = cloud.free_index();
  std::size_t mates = 0;
  for (const std::size_t i : topo.nodes_in_rack(topo.rack_of(x))) {
    mates += static_cast<std::size_t>(i != x &&
                                      index.class_of(i) == index.class_of(x));
  }
  EXPECT_GE(mates, 1u);
  EXPECT_GE(racks_of(*got, topo).size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassQuery,
                         ::testing::Range<std::uint64_t>(0, 30));

// One type on two racks of three nodes, request 5, default tiers.  Free
// slots 2, 0, 0 in rack 0 and 2, 2, 0 in rack 1: no node hosts the
// request, and nodes 0, 3 and 4 form the one non-zero class (coverage 2).
// Rack 0 scores K = 2 + 2·3 = 8, rack 1 K = 4 + 2·1 = 6 = K_min, so
// node 0 scores 6 and nodes 3 and 4 score 4.  The walk scores node 0, then
// node 3, the class's first member in a K_min rack, and stops there.
TEST(ClassQuery, WalkStopsAtTheClasssFirstMemberInAMinimalRack) {
  const Topology topo = Topology::uniform(2, 3);
  const Cloud cloud(topo, cluster::VmCatalog({cluster::VmType{"vm"}}),
                    IntMatrix{{2}, {0}, {0}, {2}, {2}, {0}});
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& walked = reg.counter("placement/index_nodes_walked");
  const std::uint64_t before = walked.value();
  const std::optional<Placement> got =
      OnlineHeuristic().place(Request({5}), cloud.capacity_view(), topo);
  const std::uint64_t walked_nodes = walked.value() - before;
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->central, 3u);
  EXPECT_EQ(got->distance, 4.0);
  EXPECT_EQ(walked_nodes, 2u);
}

// Equal bounds.  Request (2, 2), default tiers, one cloud, so a rack's K
// is 8 − Σ_j min(2, RF_j) here and a central of coverage A scores K − A.
//  * Racks interleave (rack 0 = nodes 0, 2; rack 1 = nodes 1, 3).  Node 2
//    (2, 1), coverage 3, sits in rack 0 at K = 5 and scores 2; nodes 1
//    (2, 0) and 3 (0, 2), coverage 2, sit in rack 1 at K = 4 = K_min and
//    score 2 too.  The coverage-2 bound, 4 − 2, equals the best score after
//    node 2, and the walk must go on to node 1, the lower index.
//  * Two classes of one coverage: (2, 0) holds nodes 0 and 4, (0, 2) node
//    3, in racks of three (K 6 and K_min 4).  Class (2, 0) is listed first
//    and stops at node 4; the walk must still visit class (0, 2) to find
//    node 3.
TEST(ClassQuery, EqualBoundsKeepWalkingForALowerIndex) {
  const Request r({2, 2});
  const Topology interleaved({0, 1, 0, 1}, {0, 0});
  const IntMatrix across{{0, 0}, {2, 0}, {2, 1}, {0, 2}};
  const Cloud a(interleaved, two_types(), across);
  const auto got = OnlineHeuristic().place(r, a.capacity_view(), interleaved);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->central, 1u);
  EXPECT_EQ(got->distance, 2.0);
  expect_identical(got, OnlineHeuristic().place(r, across, interleaved),
                   "across coverages");

  const Topology racks = Topology::uniform(2, 3);
  const IntMatrix within{{2, 0}, {0, 0}, {0, 0}, {0, 2}, {2, 0}, {0, 0}};
  const Cloud b(racks, two_types(), within);
  const auto tie = OnlineHeuristic().place(r, b.capacity_view(), racks);
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(tie->central, 3u);
  EXPECT_EQ(tie->distance, 2.0);
  expect_identical(tie, OnlineHeuristic().place(r, within, racks),
                   "within a coverage");
}

// Caps of 100 and 200 make more class ids than FreeIndex::kMaxClasses: the
// cloud keeps no classes, and place() on its view scans.
TEST(ClassQuery, ShapesAboveTheBoundKeepNoClassesAndScan) {
  util::Rng rng(7);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const Topology topo = Topology::multi_cloud(2, 3, 4);
  IntMatrix caps(topo.node_count(), catalog.size());
  for (std::size_t i = 0; i < caps.rows(); ++i) {
    for (std::size_t j = 0; j < caps.cols(); ++j) {
      caps(i, j) = rng.bernoulli(0.25) ? (rng.bernoulli(0.5) ? 100 : 200)
                                       : static_cast<int>(rng.uniform_int(0, 4));
    }
  }
  Cloud cloud(topo, catalog, caps);
  ASSERT_FALSE(cloud.free_index().has_classes());
  OnlineHeuristic heuristic;
  for (const Request& r : requests(catalog, rng)) {
    expect_identical(heuristic.place(r, cloud.capacity_view(), topo),
                     reference::reference_best(r, cloud.remaining(), topo),
                     "wide caps");
  }
}

}  // namespace
}  // namespace vcopt::placement
