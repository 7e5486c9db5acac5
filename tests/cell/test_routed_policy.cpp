// RoutedPolicy properties pinned across a >= 25-seed sweep:
//   1. with a single-cell partition, route-then-place is BITWISE identical
//      to the flat OnlineHeuristic on every grant (allocation, central node,
//      DC) over full seeded request streams with mid-stream releases;
//   2. with a multi-cell partition and flat fallback, routing never refuses
//      a request the flat scan would satisfy, and every grant it does make
//      is feasible against the live inventory.
#include "cell/routed_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cell/directory.h"
#include "cluster/cloud.h"
#include "obs/metrics.h"
#include "placement/online_heuristic.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace vcopt::cell {
namespace {

using cluster::Cloud;
using cluster::LeaseId;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& s) {
  return Cloud(s.topology, s.catalog, s.capacity);
}

TEST(RoutedPolicy, SingleCellIsBitwiseFlatAcross25Seeds) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto scenario =
        workload::paper_sim_scenario(seed, workload::RequestScale::kBig, 30);
    Cloud flat_cloud = scenario_cloud(scenario);
    Cloud routed_cloud = scenario_cloud(scenario);
    CellPartitionOptions po;
    po.target_cells = 1;
    CellDirectory dir(routed_cloud, po);
    placement::OnlineHeuristic flat;
    RoutedPolicy routed(dir);

    util::Rng rng(seed * 101 + 7);
    std::vector<LeaseId> flat_leases;
    std::vector<LeaseId> routed_leases;
    double flat_dc = 0;
    double routed_dc = 0;
    for (const Request& r : scenario.requests) {
      auto f = flat.place(r, flat_cloud.remaining(), flat_cloud.topology());
      auto g =
          routed.place(r, routed_cloud.remaining(), routed_cloud.topology());
      ASSERT_EQ(f.has_value(), g.has_value())
          << "seed " << seed << " request " << r.describe();
      if (f) {
        // Bitwise: same allocation matrix, same central, same DC.
        EXPECT_EQ(f->allocation.to_matrix(), g->allocation.to_matrix())
            << "seed " << seed << " request " << r.describe();
        EXPECT_EQ(f->central, g->central) << "seed " << seed;
        EXPECT_DOUBLE_EQ(f->distance, g->distance) << "seed " << seed;
        flat_dc += f->distance;
        routed_dc += g->distance;
        flat_leases.push_back(flat_cloud.grant(r, f->allocation));
        routed_leases.push_back(routed_cloud.grant(r, g->allocation));
      }
      // Mid-stream releases keep the two capacity evolutions in lockstep
      // while exercising the directory's incremental sketch updates.
      if (!flat_leases.empty() && rng.uniform(0.0, 1.0) < 0.3) {
        flat_cloud.release(flat_leases.back());
        routed_cloud.release(routed_leases.back());
        flat_leases.pop_back();
        routed_leases.pop_back();
      }
    }
    EXPECT_DOUBLE_EQ(flat_dc, routed_dc) << "seed " << seed;
    EXPECT_EQ(flat_cloud.remaining(), routed_cloud.remaining())
        << "seed " << seed;
  }
}

TEST(RoutedPolicy, NeverRefusesWhatFlatGrantsAcross25Seeds) {
  for (std::uint64_t seed = 100; seed < 125; ++seed) {
    const auto scenario =
        workload::paper_sim_scenario(seed, workload::RequestScale::kMedium, 30);
    Cloud cloud = scenario_cloud(scenario);
    CellPartitionOptions po;
    po.cell_size = 10;  // 3 racks x 10 nodes -> 3 single-rack cells
    CellDirectory dir(cloud, po);
    placement::OnlineHeuristic flat;
    RoutedPolicy routed(dir);
    std::vector<LeaseId> leases;
    util::Rng rng(seed);
    for (const Request& r : scenario.requests) {
      const util::IntMatrix remaining = cloud.remaining();
      const bool flat_ok =
          flat.place(r, remaining, cloud.topology()).has_value();
      auto g = routed.place(r, remaining, cloud.topology());
      if (flat_ok) {
        ASSERT_TRUE(g.has_value())
            << "seed " << seed << ": routing refused " << r.describe()
            << " which the flat scan grants";
      }
      if (g) {
        // Feasibility of the scattered-back allocation against live capacity.
        for (std::size_t n = 0; n < remaining.rows(); ++n) {
          for (std::size_t j = 0; j < remaining.cols(); ++j) {
            ASSERT_LE(g->allocation.at(n, j), remaining(n, j))
                << "seed " << seed << " node " << n;
          }
        }
        for (std::size_t j = 0; j < remaining.cols(); ++j) {
          ASSERT_EQ(g->allocation.vms_of_type(j), r.count(j)) << "seed " << seed;
        }
        leases.push_back(cloud.grant(r, g->allocation));
      }
      if (!leases.empty() && rng.uniform(0.0, 1.0) < 0.25) {
        cloud.release(leases.front());
        leases.erase(leases.begin());
      }
    }
  }
}

TEST(RoutedPolicy, MultiCellGrantStaysInsideOneCellUnlessSpilled) {
  const auto scenario =
      workload::paper_sim_scenario(42, workload::RequestScale::kSmall, 20);
  Cloud cloud = scenario_cloud(scenario);
  CellPartitionOptions po;
  po.cell_size = 10;
  CellDirectory dir(cloud, po);
  ASSERT_GT(dir.cell_count(), 1u);
  RoutedPolicy routed(dir);
  // The flat fallback is always on; the cell/fallback_flat counter says
  // which grants it made, and only the others must stay inside one cell.
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const obs::Counter& fallback = reg.counter("cell/fallback_flat");
  std::size_t routed_grants = 0;
  for (const Request& r : scenario.requests) {
    const std::uint64_t fallbacks = fallback.value();
    auto g = routed.place(r, cloud.remaining(), cloud.topology());
    if (!g) continue;
    cloud.grant(r, g->allocation);
    if (fallback.value() != fallbacks) continue;
    ++routed_grants;
    // All VMs of a routed (non-fallback) grant land in one cell.
    std::size_t owner = dir.cell_count();
    for (std::size_t n = 0; n < g->allocation.node_count(); ++n) {
      if (g->allocation.vms_on_node(n) == 0) continue;
      const std::size_t c = dir.partition().cell_of_node(n);
      if (owner == dir.cell_count()) owner = c;
      EXPECT_EQ(c, owner) << "grant straddles cells without fallback";
    }
    EXPECT_EQ(dir.partition().cell_of_node(g->central), owner);
  }
  reg.set_enabled(was_enabled);
  EXPECT_GT(routed_grants, 0u);
}

}  // namespace
}  // namespace vcopt::cell
