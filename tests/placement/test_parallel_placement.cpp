// Algorithm 1's scored candidate scan must equal an independent argmin over
// the dense-D reference fill (reference.h): same central, same distance down
// to the last bit, same allocation matrix.  place() scores every candidate
// central from its coverage and its rack's free sums, fills only the
// candidates that can still win and orders each getList tier by counting
// sort, so these tests pin the scan against a fill-every-candidate
// reference that shares none of that code — on uniform, multi-cloud and
// irregular topologies, integral and fractional tiers, churned
// inventories, and inventories whose getList keys outrun their tiers — and
// pin the lemma the scan rests on: a candidate's score is its fill's
// distance.
//
// The ParallelEquivalence and ParallelPlacement ids date from the chunked
// parallel scan these suites used to compare with the serial one; they are
// kept so test ids stay comparable across commits.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "placement/online_heuristic.h"
#include "reference.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::placement {
namespace {

using cluster::DistanceConfig;
using cluster::Request;
using cluster::Topology;
using reference::irregular;
using reference::reference_best;
using reference::tiers;
using util::IntMatrix;

void expect_identical(const std::optional<Placement>& a,
                      const std::optional<Placement>& b,
                      const std::string& where) {
  ASSERT_EQ(a.has_value(), b.has_value()) << where;
  if (!a) return;
  EXPECT_EQ(a->central, b->central) << where;
  // Bitwise: both paths must evaluate the winning distance identically.
  EXPECT_EQ(a->distance, b->distance) << where;
  EXPECT_EQ(a->allocation, b->allocation) << where;
}

bool integral(const DistanceConfig& t) {
  for (double v : {t.same_node, t.same_rack, t.cross_rack, t.cross_cloud}) {
    if (v != std::trunc(v)) return false;
  }
  return true;
}

// The rounding slack place() allows between a score and its fill: zero for
// integral tiers, 2(n + 4)ε relative otherwise.
double slack(const Topology& topo, double score) {
  if (integral(topo.distances())) return 0;
  return 2.0 * static_cast<double>(topo.node_count() + 4) *
         std::numeric_limits<double>::epsilon() * score;
}

struct Variant {
  std::string name;
  Topology topology;
};

std::vector<Variant> variants(util::Rng& rng) {
  const DistanceConfig frac = tiers(0.1, 0.7, 1.3, 2.9);
  return {
      {"uniform", Topology::uniform(3, 10)},
      {"multi_cloud", Topology::multi_cloud(2, 3, 5)},
      {"irregular", irregular(rng, 36, 7, DistanceConfig{})},
      {"fractional", Topology::multi_cloud(2, 3, 5, frac)},
      {"fractional_irregular",
       irregular(rng, 40, 6, tiers(0.05, 0.3, 1.1, 3.7))},
      {"fractional_zero_node", Topology::uniform(4, 8, tiers(0, 0.3, 0.7, 1.9))},
  };
}

// A Fig.-5 inventory after churn: about a fifth of the nodes emptied and a
// few placements taken out of the rest.
IntMatrix churned_inventory(const Topology& topo,
                            const cluster::VmCatalog& catalog,
                            util::Rng& rng) {
  IntMatrix remaining = workload::random_inventory(topo, catalog, rng, 0, 4);
  for (std::size_t i = 0; i < remaining.rows(); ++i) {
    if (!rng.bernoulli(0.2)) continue;
    for (std::size_t j = 0; j < remaining.cols(); ++j) remaining(i, j) = 0;
  }
  OnlineHeuristic heuristic;
  for (std::uint64_t id = 0; id < 4; ++id) {
    const Request r = workload::random_request(catalog, rng, 0, 3, id);
    if (auto p = heuristic.place(r, remaining, topo)) {
      remaining -= p->allocation.to_matrix();
    }
  }
  return remaining;
}

bool admissible(const Request& r, const IntMatrix& remaining) {
  for (std::size_t j = 0; j < remaining.cols(); ++j) {
    if (r.count(j) > remaining.col_sum(j)) return false;
  }
  return true;
}

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, SerialAndParallelBitIdentical) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);

  OnlineHeuristic heuristic;
  // Several request shapes per seed, including ones too big to admit.
  for (int lo_hi = 0; lo_hi < 4; ++lo_hi) {
    const Request r =
        workload::random_request(catalog, rng, lo_hi, 2 + 3 * lo_hi, 0);
    expect_identical(heuristic.place(r, remaining, topo),
                     reference_best(r, remaining, topo),
                     "seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(ParallelPlacement, LargeCloudMultiRackIdentical) {
  util::Rng rng(1234);
  const Topology topo = Topology::multi_cloud(2, 5, 8);  // 80 nodes, 2 clouds
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 3);

  OnlineHeuristic heuristic;
  for (std::uint64_t id = 0; id < 10; ++id) {
    const Request r = workload::random_request(catalog, rng, 2, 12, id);
    expect_identical(heuristic.place(r, remaining, topo),
                     reference_best(r, remaining, topo),
                     "id=" + std::to_string(id));
  }
}

class ScoredScan : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoredScan, MatchesReferenceOnEveryTopology) {
  util::Rng rng(GetParam());
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  OnlineHeuristic heuristic;
  for (const Variant& v : variants(rng)) {
    const IntMatrix remaining = churned_inventory(v.topology, catalog, rng);
    for (int lo_hi = 0; lo_hi < 4; ++lo_hi) {
      const Request r =
          workload::random_request(catalog, rng, lo_hi, 2 + 3 * lo_hi, 0);
      expect_identical(heuristic.place(r, remaining, v.topology),
                       reference_best(r, remaining, v.topology),
                       v.name + " seed=" + std::to_string(GetParam()));
    }
  }
}

// The lemma: for every candidate central of an admissible request, the
// score equals the distance of fill_from_central — bit for bit on integral
// tiers, within the rounding slack on fractional ones.
TEST_P(ScoredScan, ScoreEqualsFillDistance) {
  util::Rng rng(GetParam());
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  for (const Variant& v : variants(rng)) {
    const IntMatrix remaining = churned_inventory(v.topology, catalog, rng);
    for (int lo_hi = 0; lo_hi < 3; ++lo_hi) {
      const Request r =
          workload::random_request(catalog, rng, lo_hi, 2 + 3 * lo_hi, 0);
      if (!admissible(r, remaining)) continue;
      for (std::size_t x = 0; x < remaining.rows(); ++x) {
        if (remaining.row_sum(x) == 0) continue;
        const auto fill =
            OnlineHeuristic::fill_from_central(r, remaining, v.topology, x);
        ASSERT_TRUE(fill.has_value()) << v.name << " central " << x;
        const double d = fill->distance_from(x, v.topology);
        const double score =
            OnlineHeuristic::score_from_central(r, remaining, v.topology, x);
        EXPECT_LE(std::abs(score - d), slack(v.topology, score))
            << v.name << " central " << x << " scored " << score
            << " filled " << d;
      }
    }
  }
}

// Cells of 0-4 with a quarter at 100 or 200: a getList tier's overlap keys
// then span up to 600 with few distinct values, so tiers whose keys outrun
// their size take the comparison-sort fallback, tiers of small nodes the
// counting sort, and both meet ties.
IntMatrix wide_key_inventory(std::size_t nodes, std::size_t types,
                             util::Rng& rng) {
  IntMatrix remaining(nodes, types);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < types; ++j) {
      remaining(i, j) = rng.bernoulli(0.25)
                            ? (rng.bernoulli(0.5) ? 100 : 200)
                            : static_cast<int>(rng.uniform_int(0, 4));
    }
  }
  return remaining;
}

// Both getList orderings, single-node off-rack tiers and fractional tiers:
// every central's fill equals the dense-D reference fill, and place()
// equals the reference argmin.
TEST_P(ScoredScan, WideKeysAndSingleNodeTiersMatchReference) {
  util::Rng rng(GetParam());
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const DistanceConfig frac = tiers(0.1, 0.7, 1.3, 2.9);
  // Each cloud holds a rack of five and a rack of one node.
  const std::vector<std::size_t> node_rack = {0, 0, 0, 0, 0, 1, 2, 2, 2,
                                              2, 2, 3, 4, 4, 4, 4, 4, 5};
  const std::vector<std::size_t> rack_cloud = {0, 0, 1, 1, 2, 2};
  const std::vector<Variant> wide = {
      {"single_node_racks", Topology::multi_cloud(3, 2, 1)},
      {"lone_node_racks", Topology(node_rack, rack_cloud)},
      {"lone_node_racks_fractional", Topology(node_rack, rack_cloud, frac)},
      {"irregular_fractional", irregular(rng, 24, 8, frac)},
  };
  OnlineHeuristic heuristic;
  for (const Variant& v : wide) {
    const IntMatrix remaining =
        wide_key_inventory(v.topology.node_count(), catalog.size(), rng);
    const util::DoubleMatrix d = v.topology.distance_matrix();
    for (int k = 0; k < 6; ++k) {
      // Small requests fill from the small nodes; large ones reach the
      // 100/200 nodes and the off-rack tiers.
      const int hi = k % 2 == 0 ? 6 : 300;
      const Request r = workload::random_request(catalog, rng, hi / 3, hi, 0);
      const std::string where =
          v.name + " seed=" + std::to_string(GetParam()) + " k=" +
          std::to_string(k);
      for (std::size_t x = 0; x < remaining.rows(); ++x) {
        const auto got =
            OnlineHeuristic::fill_from_central(r, remaining, v.topology, x);
        const auto want =
            reference::reference_fill(r, remaining, v.topology, d, x);
        ASSERT_EQ(got.has_value(), want.has_value()) << where << " x=" << x;
        if (got) {
          EXPECT_EQ(*got, *want) << where << " x=" << x;
        }
      }
      expect_identical(heuristic.place(r, remaining, v.topology),
                       reference_best(r, remaining, v.topology), where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoredScan,
                         ::testing::Range<std::uint64_t>(0, 40));

// Two centrals whose fills tie in exact arithmetic: node 3 takes 5 + 1 + 5
// VMs at 0.1, 0.7 and 1.3, node 5 takes 4 + 3 + 4.  Both fills sum to the
// same double, but node 5 scores a rounding step below node 3, so an argmin
// over scores alone would pick node 5.  The lower index must win.
TEST(ScoredScan, FractionalNearTieLowerIndexWins) {
  const Topology topo =
      Topology::multi_cloud(2, 2, 2, tiers(0.1, 0.7, 1.3, 2.9));
  const IntMatrix remaining{{1}, {4}, {1}, {5}, {3}, {4}, {3}, {1}};
  const Request r({11});
  auto fill_distance = [&](std::size_t x) {
    return OnlineHeuristic::fill_from_central(r, remaining, topo, x)
        ->distance_from(x, topo);
  };
  auto score = [&](std::size_t x) {
    return OnlineHeuristic::score_from_central(r, remaining, topo, x);
  };
  ASSERT_EQ(fill_distance(3), fill_distance(5));
  ASSERT_LT(score(5), score(3));
  for (std::size_t x = 0; x < remaining.rows(); ++x) {
    ASSERT_GE(score(x), score(5)) << "central " << x;
  }

  const auto best = OnlineHeuristic().place(r, remaining, topo);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->central, 3u);
  expect_identical(best, reference_best(r, remaining, topo), "near tie");
}

// Mode semantics (ISSUE 3 satellite): kFirstImprovement stops at the first
// feasible candidate central (ascending index, empty nodes skipped), while
// kBestOfAllStarts keeps scanning and can only be better or equal.
TEST(HeuristicModes, FirstImprovementPicksFirstFeasibleCentral) {
  const Topology topo = Topology::uniform(2, 2);
  // Node 0 is empty (skipped as a central); no single node fits the whole
  // request, so the single-node shortcut cannot fire.  Central 1 completes
  // by borrowing off-rack, centrals 2-3 complete within their own rack.
  IntMatrix remaining{{0, 0}, {1, 1}, {1, 1}, {1, 1}};
  const Request r({2, 1});

  OnlineHeuristic first(OnlineHeuristic::Mode::kFirstImprovement);
  const auto pf = first.place(r, remaining, topo);
  ASSERT_TRUE(pf.has_value());
  // The first candidate with free capacity is node 1; its fill must match
  // fill_from_central(central=1) exactly.
  const auto ref = OnlineHeuristic::fill_from_central(r, remaining, topo, 1);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(pf->central, 1u);
  EXPECT_EQ(pf->allocation, *ref);

  OnlineHeuristic best(OnlineHeuristic::Mode::kBestOfAllStarts);
  const auto pb = best.place(r, remaining, topo);
  ASSERT_TRUE(pb.has_value());
  EXPECT_LE(pb->distance, pf->distance);
}

class ModeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModeSweep, BestNeverWorseThanFirstImprovement) {
  util::Rng rng(GetParam());
  const Topology topo = Topology::uniform(3, 10);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const Request r = workload::random_request(catalog, rng, 1, 7, 0);

  OnlineHeuristic first(OnlineHeuristic::Mode::kFirstImprovement);
  OnlineHeuristic best(OnlineHeuristic::Mode::kBestOfAllStarts);
  const auto pf = first.place(r, remaining, topo);
  const auto pb = best.place(r, remaining, topo);
  ASSERT_EQ(pf.has_value(), pb.has_value()) << "seed=" << GetParam();
  if (!pf) return;
  EXPECT_TRUE(pf->allocation.satisfies(r));
  EXPECT_TRUE(pb->allocation.satisfies(r));
  EXPECT_LE(pb->distance, pf->distance + 1e-12) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeSweep,
                         ::testing::Range<std::uint64_t>(100, 120));

// The hoisted shape check must fire once per place() call.
TEST(ParallelPlacement, ShapeMismatchThrows) {
  const Topology topo = Topology::uniform(2, 2);
  IntMatrix wrong_rows(3, 2, 1);
  OnlineHeuristic h;
  EXPECT_THROW(h.place(Request({1, 1}), wrong_rows, topo),
               std::invalid_argument);
  IntMatrix ok_shape(4, 2, 1);
  EXPECT_THROW(h.place(Request({1, 1, 1}), ok_shape, topo),
               std::invalid_argument);
}

}  // namespace
}  // namespace vcopt::placement
