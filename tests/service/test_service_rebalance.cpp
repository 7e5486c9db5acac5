// The service's opt-in drift-repair pass: journaled write-ahead rebalance
// records, byte-identical replay of a rebalancing run, decisions that see
// every lease whatever the recorder does, and the gating rails (disabled by
// default, period respected).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "obs/timeseries.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& scenario) {
  return Cloud(scenario.topology, scenario.catalog, scenario.capacity);
}

struct RunResult {
  std::string grants;
  std::string journal;
  util::IntMatrix remaining;
  std::size_t lease_count = 0;
  ServiceStats stats;
};

// Churn driver: `rounds` rounds of submits, releasing the previous round's
// leases first, with the clock advanced between rounds so the rebalance
// period elapses.  `recorder` may be null.
RunResult run_churn(const workload::SimScenario& scenario,
                    ServiceOptions options, obs::Recorder* recorder,
                    int rounds = 3) {
  Cloud cloud = scenario_cloud(scenario);
  std::ostringstream journal;
  options.journal = &journal;
  options.queue_capacity = 4096;
  options.recorder = recorder;
  options.sample_period = 0.5;
  RunResult result;
  {
    PlacementService svc(cloud, options);
    std::vector<Outcome> all;
    std::vector<cluster::LeaseId> held;
    double t = 0;
    std::uint64_t id = 1;
    for (int round = 0; round < rounds; ++round) {
      for (const auto& r : scenario.requests) {
        svc.submit(Request(r.counts(), id));
        ++id;
      }
      t += 2.0;
      svc.advance_to(t);
      svc.flush();
      for (cluster::LeaseId lease : held) svc.release(lease);
      held.clear();
      t += 2.0;
      svc.advance_to(t);
      svc.flush();
      for (Outcome& o : svc.take_outcomes()) {
        if (has_lease(o.kind)) held.push_back(o.lease);
        all.push_back(std::move(o));
      }
    }
    svc.stop();
    for (Outcome& o : svc.take_outcomes()) all.push_back(std::move(o));
    result.grants = grant_stream(std::move(all));
    result.stats = svc.stats();
  }
  result.journal = journal.str();
  result.remaining = cloud.remaining();
  result.lease_count = cloud.lease_count();
  return result;
}

ServiceOptions rebalance_options() {
  ServiceOptions options;
  options.max_batch = 4;
  options.rebalance = true;
  options.rebalance_policy.tick_period = 1.0;
  options.rebalance_policy.max_moves_per_round = 4;
  // Any lease with DC > 0 is a candidate: churn leaves loose placements
  // that never had a "tighter past" to drift from.
  options.rebalance_policy.drift_ratio = 0.0;
  options.rebalance_policy.lease_cooldown = 1.0;
  options.rebalance_policy.cost.cost_per_gb = 1e-4;
  options.rebalance_policy.cost.shuffle_cost_factor = 1e-4;
  return options;
}

TEST(ServiceRebalance, DisabledByDefault) {
  const auto scenario = workload::paper_sim_scenario(3);
  obs::Recorder recorder;
  recorder.set_enabled(true);
  // Default options: pass disabled even with a recorder wired.
  ServiceOptions off;
  off.max_batch = 4;
  const RunResult a = run_churn(scenario, off, &recorder);
  EXPECT_EQ(a.stats.rebalance_passes, 0u);
  EXPECT_EQ(a.stats.rebalance_migrations, 0u);
  EXPECT_EQ(a.journal.find("\"rebalance\""), std::string::npos);
}

TEST(ServiceRebalance, ChurnTriggersJournaledMigrations) {
  const auto scenario = workload::paper_sim_scenario(7);
  obs::Recorder recorder;
  recorder.set_enabled(true);
  const RunResult live = run_churn(scenario, rebalance_options(), &recorder);
  EXPECT_GT(live.stats.rebalance_migrations, 0u) << "churn never drifted";
  EXPECT_GT(live.stats.rebalance_passes, 0u);
  EXPECT_NE(live.journal.find("\"type\":\"rebalance\""), std::string::npos);

  // Every journaled rebalance record parses with its move list intact.
  std::istringstream in(live.journal);
  const std::vector<JournalRecord> records = parse_journal(in, "live");
  std::size_t journaled_moves = 0;
  for (const JournalRecord& rec : records) {
    if (rec.type != RecordType::kRebalance) continue;
    EXPECT_FALSE(rec.moves.empty());
    journaled_moves += rec.moves.size();
  }
  EXPECT_EQ(journaled_moves, live.stats.rebalance_migrations);
}

TEST(ServiceRebalance, JournalReplaysByteIdentically) {
  const auto scenario = workload::paper_sim_scenario(7);
  obs::Recorder recorder;
  recorder.set_enabled(true);
  const ServiceOptions options = rebalance_options();
  const RunResult live = run_churn(scenario, options, &recorder);
  ASSERT_GT(live.stats.rebalance_migrations, 0u);

  // Replay has no recorder and no drift detector: the journaled moves alone
  // must reproduce the exact final books and grant bytes.
  Cloud fresh = scenario_cloud(scenario);
  std::istringstream in(live.journal);
  const ReplayResult replayed =
      replay_journal(parse_journal(in, "live"), fresh, options);
  EXPECT_EQ(replayed.grants, live.grants);
  EXPECT_EQ(replayed.migrations, live.stats.rebalance_migrations);
  EXPECT_EQ(fresh.remaining(), live.remaining);
  EXPECT_EQ(fresh.lease_count(), live.lease_count);
}

TEST(ServiceRebalance, PeriodGatesBackToBackPasses) {
  const auto scenario = workload::paper_sim_scenario(7);
  obs::Recorder recorder;
  recorder.set_enabled(true);
  ServiceOptions slow = rebalance_options();
  slow.rebalance_policy.tick_period = 1e9;  // one pass per geological era
  const RunResult r = run_churn(scenario, slow, &recorder);
  // The gate admits at most the very first eligible pass.
  EXPECT_LE(r.stats.rebalance_passes, 1u);
}

// Sixty rounds of the six-request scenario grant 360 leases, most of them
// after the 128th; the pass must keep moving those too.
constexpr int kLongChurnRounds = 60;

// Journaled moves of every rebalance record, in journal order.
std::vector<RebalanceMove> journaled_moves(const std::string& journal) {
  std::istringstream in(journal);
  std::vector<RebalanceMove> moves;
  for (const JournalRecord& rec : parse_journal(in, "live")) {
    if (rec.type != RecordType::kRebalance) continue;
    moves.insert(moves.end(), rec.moves.begin(), rec.moves.end());
  }
  return moves;
}

TEST(ServiceRebalance, MovesLeasesBeyondThe128th) {
  const auto scenario = workload::paper_sim_scenario(7);
  obs::Recorder recorder;
  recorder.set_enabled(true);
  const RunResult live =
      run_churn(scenario, rebalance_options(), &recorder, kLongChurnRounds);
  const std::vector<RebalanceMove> moves = journaled_moves(live.journal);
  ASSERT_FALSE(moves.empty());
  const auto late = std::count_if(
      moves.begin(), moves.end(),
      [](const RebalanceMove& m) { return m.lease > 128; });
  EXPECT_GT(late, 0) << "no journaled move names a lease above 128 (of "
                     << moves.size() << " moves)";
}

TEST(ServiceRebalance, SameMovesWithADisabledRecorderOrNone) {
  const auto scenario = workload::paper_sim_scenario(7);
  obs::Recorder enabled;
  enabled.set_enabled(true);
  obs::Recorder disabled;
  const ServiceOptions options = rebalance_options();
  const RunResult on =
      run_churn(scenario, options, &enabled, kLongChurnRounds);
  const RunResult off =
      run_churn(scenario, options, &disabled, kLongChurnRounds);
  const RunResult none =
      run_churn(scenario, options, nullptr, kLongChurnRounds);
  ASSERT_GT(on.stats.rebalance_migrations, 0u);
  const std::size_t on_moves = journaled_moves(on.journal).size();
  EXPECT_TRUE(off.journal == on.journal)
      << journaled_moves(off.journal).size()
      << " moves with a disabled recorder, " << on_moves << " enabled";
  EXPECT_TRUE(off.grants == on.grants);
  EXPECT_TRUE(none.journal == on.journal)
      << journaled_moves(none.journal).size() << " moves without a recorder, "
      << on_moves << " with one";
  EXPECT_TRUE(none.grants == on.grants);
}

}  // namespace
}  // namespace vcopt::service
