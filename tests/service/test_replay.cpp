// The replay guarantee: a journal written in deterministic virtual-time mode
// replays against a fresh cloud into byte-identical grant records (same
// windows, same leases, same DC totals), across seeds, disciplines and
// release interleavings.
#include "service/replay.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cluster/cloud.h"
#include "service/journal.h"
#include "service/service.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& scenario) {
  return Cloud(scenario.topology, scenario.catalog, scenario.capacity);
}

/// Runs a seeded request stream through a journaling virtual-time service
/// and returns {journal text, canonical grant stream, DC total}.
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
  std::vector<cluster::LeaseId> live_leases;
  double t = 0;
  for (const Request& r : scenario.requests) {
    t += rng.uniform(0.0, 0.02);
    svc.advance_to(t);
    SubmitOptions o;
    o.priority = static_cast<int>(rng.uniform_int(0, 4));
    svc.submit(r, o);
    // Occasionally release an earlier lease mid-stream so the journal also
    // replays capacity evolution, not just a monotone fill.
    for (Outcome& done : svc.take_outcomes()) {
      if (has_lease(done.kind)) live_leases.push_back(done.lease);
      outcomes.push_back(std::move(done));
    }
    if (!live_leases.empty() && rng.uniform(0.0, 1.0) < 0.25) {
      svc.release(live_leases.back());
      live_leases.pop_back();
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

TEST(Replay, ReproducesLiveRunByteIdentically) {
  const auto scenario = workload::paper_sim_scenario(7);
  ServiceOptions options;
  options.max_batch = 4;
  options.max_wait = 0.01;
  const LiveRun live = run_live(scenario, options, 99);
  ASSERT_FALSE(live.journal.empty());

  Cloud fresh = scenario_cloud(scenario);
  std::istringstream in(live.journal);
  const ReplayResult replayed =
      replay_journal(parse_journal(in), fresh, options);
  EXPECT_EQ(replayed.grants, live.grants);
  EXPECT_DOUBLE_EQ(replayed.total_distance, live.total_distance);
}

TEST(Replay, ByteIdenticalAcrossSeedsAndDisciplines) {
  for (std::uint64_t seed : {1ull, 17ull, 123ull}) {
    for (placement::QueueDiscipline d :
         {placement::QueueDiscipline::kFifo,
          placement::QueueDiscipline::kPriority,
          placement::QueueDiscipline::kSmallestFirst}) {
      const auto scenario = workload::paper_sim_scenario(seed);
      ServiceOptions options;
      options.max_batch = 6;
      options.max_wait = 0.005;
      options.discipline = d;
      const LiveRun live = run_live(scenario, options, seed * 31 + 1);
      Cloud fresh = scenario_cloud(scenario);
      std::istringstream in(live.journal);
      const ReplayResult replayed =
          replay_journal(parse_journal(in), fresh, options);
      EXPECT_EQ(replayed.grants, live.grants)
          << "seed " << seed << " discipline " << placement::to_string(d);
    }
  }
}

TEST(Replay, ReplayIsItselfDeterministic) {
  const auto scenario = workload::paper_sim_scenario(3);
  ServiceOptions options;
  options.max_batch = 5;
  const LiveRun live = run_live(scenario, options, 5);
  ReplayResult first;
  ReplayResult second;
  {
    Cloud fresh = scenario_cloud(scenario);
    std::istringstream in(live.journal);
    first = replay_journal(parse_journal(in), fresh, options);
  }
  {
    Cloud fresh = scenario_cloud(scenario);
    std::istringstream in(live.journal);
    second = replay_journal(parse_journal(in), fresh, options);
  }
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(first.windows, second.windows);
  EXPECT_EQ(first.releases, second.releases);
}

TEST(Replay, CorruptJournalDiagnosesMissingSubmit) {
  const std::string journal =
      "{\"type\":\"window\",\"members\":[5],\"reason\":\"size\",\"shed\":[],"
      "\"time\":0,\"window\":1}\n";
  const auto scenario = workload::paper_sim_scenario(1);
  Cloud cloud = scenario_cloud(scenario);
  std::istringstream in(journal);
  EXPECT_THROW(replay_journal(parse_journal(in), cloud, ServiceOptions{}),
               std::invalid_argument);
}

TEST(Replay, DuplicateSubmitSeqIsRejected) {
  const std::string journal =
      "{\"class\":\"batch\",\"counts\":[1,0,0],\"id\":1,\"priority\":0,"
      "\"seq\":1,\"time\":0,\"type\":\"submit\"}\n"
      "{\"class\":\"batch\",\"counts\":[1,0,0],\"id\":2,\"priority\":0,"
      "\"seq\":1,\"time\":0,\"type\":\"submit\"}\n";
  const auto scenario = workload::paper_sim_scenario(1);
  Cloud cloud = scenario_cloud(scenario);
  std::istringstream in(journal);
  EXPECT_THROW(replay_journal(parse_journal(in), cloud, ServiceOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vcopt::service
