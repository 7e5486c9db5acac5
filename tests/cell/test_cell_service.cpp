// Service-level cell mode: per-cell windows keep the journal/replay
// guarantee (cell-mode journals replay byte-identically), `--cells 1`
// serving is grant-for-grant identical to flat serving when every request
// routes, and cell-mode serving is deterministic run-to-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "cluster/topology.h"
#include "cluster/vm_type.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& s) {
  return Cloud(s.topology, s.catalog, s.capacity);
}

/// An ample-capacity scenario where every request is routable in any cell
/// configuration (demand well under each cell's free totals throughout).
workload::SimScenario ample_scenario(std::uint64_t seed) {
  cluster::Topology topo = cluster::Topology::uniform(4, 8);
  cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  util::Rng rng(seed);
  util::IntMatrix capacity =
      workload::random_inventory(topo, catalog, rng, 2, 4);
  std::vector<Request> requests =
      workload::random_requests(catalog, rng, 24, 0, 2);
  return workload::SimScenario{std::move(topo), std::move(catalog),
                               std::move(capacity), std::move(requests), seed};
}

struct LiveRun {
  std::string journal;
  std::string grants;
  double total_distance = 0;
};

LiveRun run_live(const workload::SimScenario& scenario, ServiceOptions options,
                 std::uint64_t seed) {
  Cloud cloud = scenario_cloud(scenario);
  std::ostringstream journal;
  options.journal = &journal;
  PlacementService svc(cloud, options);
  util::Rng rng(seed);
  std::vector<Outcome> outcomes;
  std::vector<cluster::LeaseId> live;
  double t = 0;
  for (const Request& r : scenario.requests) {
    t += rng.uniform(0.0, 0.02);
    svc.advance_to(t);
    svc.submit(r);
    for (Outcome& done : svc.take_outcomes()) {
      if (has_lease(done.kind)) live.push_back(done.lease);
      outcomes.push_back(std::move(done));
    }
    if (!live.empty() && rng.uniform(0.0, 1.0) < 0.25) {
      svc.release(live.back());
      live.pop_back();
    }
  }
  svc.stop();
  for (Outcome& done : svc.take_outcomes()) outcomes.push_back(std::move(done));
  LiveRun out;
  out.journal = journal.str();
  for (const Outcome& o : outcomes) {
    if (has_lease(o.kind)) out.total_distance += o.distance;
  }
  out.grants = grant_stream(std::move(outcomes));
  return out;
}

TEST(CellService, SingleCellServingMatchesFlatGrantForGrant) {
  for (std::uint64_t seed : {2ull, 9ull, 31ull}) {
    const auto scenario = ample_scenario(seed);
    ServiceOptions flat;
    flat.max_batch = 4;
    flat.max_wait = 0.01;
    ServiceOptions routed = flat;
    routed.cells = 1;
    const LiveRun a = run_live(scenario, flat, seed * 13 + 1);
    const LiveRun b = run_live(scenario, routed, seed * 13 + 1);
    EXPECT_EQ(a.grants, b.grants) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.total_distance, b.total_distance) << "seed " << seed;
  }
}

TEST(CellService, CellModeJournalReplaysByteIdentically) {
  for (std::uint64_t seed : {5ull, 23ull, 77ull}) {
    const auto scenario =
        workload::paper_sim_scenario(seed, workload::RequestScale::kBig, 40);
    ServiceOptions options;
    options.max_batch = 4;
    options.max_wait = 0.01;
    options.cell_size = 10;  // 3 racks x 10 nodes -> 3 cells
    const LiveRun live = run_live(scenario, options, seed + 3);
    ASSERT_FALSE(live.journal.empty());
    // Cell-mode windows carry their cell id in the journal.
    EXPECT_NE(live.journal.find("\"cell\""), std::string::npos)
        << "seed " << seed;

    Cloud fresh = scenario_cloud(scenario);
    std::istringstream in(live.journal);
    const ReplayResult replayed =
        replay_journal(parse_journal(in), fresh, options);
    EXPECT_EQ(replayed.grants, live.grants) << "seed " << seed;
    EXPECT_DOUBLE_EQ(replayed.total_distance, live.total_distance)
        << "seed " << seed;
  }
}

TEST(CellService, CellModeServingIsDeterministic) {
  const auto scenario =
      workload::paper_sim_scenario(12, workload::RequestScale::kMedium, 30);
  ServiceOptions options;
  options.max_batch = 3;
  options.max_wait = 0.008;
  options.cells = 3;
  const LiveRun a = run_live(scenario, options, 41);
  const LiveRun b = run_live(scenario, options, 41);
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.grants, b.grants);
}

TEST(CellService, FlatJournalStaysByteCompatible) {
  // No cell mode => no "cell" field anywhere: journals written by a flat
  // service are bytewise what they were before the cell layer existed.
  const auto scenario = workload::paper_sim_scenario(4);
  ServiceOptions options;
  options.max_batch = 4;
  const LiveRun live = run_live(scenario, options, 6);
  EXPECT_EQ(live.journal.find("\"cell\""), std::string::npos);
}

TEST(CellService, WindowRecordRoundTripsCellField) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.window(7, 0.5, "size", {1, 2}, {}, /*cell=*/2);
  writer.window(8, 0.6, "wait", {3}, {});
  std::istringstream in(out.str());
  const std::vector<JournalRecord> records = parse_journal(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].cell, 2u);
  EXPECT_EQ(records[1].cell, kNoCell);
}

}  // namespace
}  // namespace vcopt::service
