#include "placement/baselines.h"

#include <gtest/gtest.h>

#include "placement/online_heuristic.h"
#include "placement/policy.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::placement {
namespace {

using cluster::Request;
using cluster::Topology;
using util::IntMatrix;

struct Fixture {
  Topology topo = Topology::uniform(3, 10);
  cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  IntMatrix remaining;
  Request request{{0}};

  explicit Fixture(std::uint64_t seed) {
    util::Rng rng(seed);
    remaining = workload::random_inventory(topo, catalog, rng, 0, 4);
    request = workload::random_request(catalog, rng, 0, 5, 0);
  }
};

TEST(Baselines, FirstFitFeasibility) {
  Fixture f(3);
  FirstFitPolicy p;
  const auto placed = p.place(f.request, f.remaining, f.topo);
  ASSERT_TRUE(placed.has_value());
  EXPECT_TRUE(placed->allocation.satisfies(f.request));
  EXPECT_TRUE(placed->allocation.fits(f.remaining));
}

TEST(Baselines, FirstFitUsesLowestIndexNodes) {
  const Topology topo = Topology::uniform(1, 3);
  IntMatrix remaining{{1}, {5}, {5}};
  FirstFitPolicy p;
  const auto placed = p.place(Request({3}), remaining, topo);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->allocation.at(0, 0), 1);
  EXPECT_EQ(placed->allocation.at(1, 0), 2);
  EXPECT_EQ(placed->allocation.at(2, 0), 0);
}

TEST(Baselines, SpreadMaximisesNodeCount) {
  const Topology topo = Topology::uniform(1, 4);
  IntMatrix remaining(4, 1, 4);
  SpreadPolicy p;
  const auto placed = p.place(Request({4}), remaining, topo);
  ASSERT_TRUE(placed.has_value());
  // Equal free capacity everywhere: the spread policy lands one VM per node.
  EXPECT_EQ(placed->allocation.used_nodes().size(), 4u);
}

TEST(Baselines, SpreadFeasibility) {
  Fixture f(7);
  SpreadPolicy p;
  const auto placed = p.place(f.request, f.remaining, f.topo);
  ASSERT_TRUE(placed.has_value());
  EXPECT_TRUE(placed->allocation.satisfies(f.request));
  EXPECT_TRUE(placed->allocation.fits(f.remaining));
}

TEST(Baselines, RandomDeterministicPerSeed) {
  Fixture f(9);
  RandomPolicy p1(123), p2(123), p3(456);
  const auto a = p1.place(f.request, f.remaining, f.topo);
  const auto b = p2.place(f.request, f.remaining, f.topo);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->allocation, b->allocation);
  // A different seed is allowed to differ (and overwhelmingly does).
  const auto c = p3.place(f.request, f.remaining, f.topo);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(a->allocation.satisfies(f.request));
  EXPECT_TRUE(c->allocation.fits(f.remaining));
}

TEST(Baselines, AllRejectWhenInfeasible) {
  const Topology topo = Topology::uniform(1, 2);
  IntMatrix remaining{{1}, {0}};
  const Request r({2});
  EXPECT_EQ(FirstFitPolicy{}.place(r, remaining, topo), std::nullopt);
  EXPECT_EQ(SpreadPolicy{}.place(r, remaining, topo), std::nullopt);
  RandomPolicy rp(1);
  EXPECT_EQ(rp.place(r, remaining, topo), std::nullopt);
  SdExactPolicy sd;
  EXPECT_EQ(sd.place(r, remaining, topo), std::nullopt);
}

TEST(Baselines, SdExactNeverWorseThanOthers) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Fixture f(seed);
    SdExactPolicy sd;
    const auto best = sd.place(f.request, f.remaining, f.topo);
    if (!best) continue;
    for (const char* name : {"first-fit", "spread", "random:7",
                             "online-heuristic"}) {
      auto p = make_policy(name);
      const auto placed = p->place(f.request, f.remaining, f.topo);
      ASSERT_TRUE(placed.has_value()) << name;
      EXPECT_GE(placed->distance, best->distance - 1e-9)
          << name << " seed=" << seed;
    }
  }
}

TEST(PolicyFactory, KnownNames) {
  for (const std::string& name : policy_names()) {
    const std::string spec = name == "random" ? "random:5" : name;
    auto p = make_policy(spec);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_THROW(make_policy("nope"), std::invalid_argument);
}

TEST(PolicyFactory, PolicyNamesRoundTrip) {
  auto p = make_policy("online-heuristic");
  EXPECT_EQ(p->name(), "online-heuristic");
  auto q = make_policy("spread");
  EXPECT_EQ(q->name(), "spread");
}

TEST(Evaluate, ComputesBestCentral) {
  const Topology topo = Topology::uniform(2, 2);
  cluster::Allocation a(4, 1);
  a.at(0, 0) = 3;
  a.at(1, 0) = 1;
  const Placement p = evaluate(a, topo);
  EXPECT_EQ(p.central, 0u);
  EXPECT_DOUBLE_EQ(p.distance, 1.0);
}

}  // namespace
}  // namespace vcopt::placement
