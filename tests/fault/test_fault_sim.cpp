// run_fault_sim: deterministic replay (identical grants, repairs and a
// byte-identical timeline CSV), terminal statuses for every hit lease, and
// sane accounting when leases are abandoned mid-hold.
#include "fault/fault_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "placement/online_heuristic.h"
#include "sim/timeline_writer.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace vcopt::fault {
namespace {

std::vector<cluster::TimedRequest> make_trace(std::uint64_t seed,
                                              std::size_t n) {
  workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kSmall);
  util::Rng rng(seed);
  const auto requests = workload::random_requests(sc.catalog, rng, n, 0, 2);
  return workload::poisson_trace(requests, rng, 3.0, 30.0);
}

FaultSimResult run_once(const std::string& profile_spec, std::uint64_t seed,
                        std::size_t requests = 30) {
  workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kSmall);
  cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
  return run_fault_sim(cloud, std::make_unique<placement::OnlineHeuristic>(),
                       make_trace(seed, requests),
                       FaultProfile::parse(profile_spec));
}

std::string timeline_csv(const FaultSimResult& res) {
  std::ostringstream os;
  sim::TimelineWriter(res.timeline).write_csv(os);
  return os.str();
}

TEST(FaultSim, ReplayIsDeterministicDownToTheTimelineBytes) {
  const FaultSimResult a = run_once("heavy,seed=7", 5);
  const FaultSimResult b = run_once("heavy,seed=7", 5);

  ASSERT_EQ(a.grants.size(), b.grants.size());
  for (std::size_t i = 0; i < a.grants.size(); ++i) {
    EXPECT_EQ(a.grants[i].request_id, b.grants[i].request_id);
    EXPECT_DOUBLE_EQ(a.grants[i].granted, b.grants[i].granted);
    EXPECT_DOUBLE_EQ(a.grants[i].released, b.grants[i].released);
    EXPECT_DOUBLE_EQ(a.grants[i].distance, b.grants[i].distance);
    EXPECT_EQ(a.grants[i].central, b.grants[i].central);
  }
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i], b.schedule[i]);
  }
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (std::size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].lease, b.repairs[i].lease);
    EXPECT_EQ(a.repairs[i].status, b.repairs[i].status);
    EXPECT_EQ(a.repairs[i].vms_replaced, b.repairs[i].vms_replaced);
    EXPECT_DOUBLE_EQ(a.repairs[i].completed_at, b.repairs[i].completed_at);
  }
  EXPECT_DOUBLE_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(timeline_csv(a), timeline_csv(b));
}

TEST(FaultSim, DifferentFaultSeedsChangeTheStory) {
  const FaultSimResult a = run_once("heavy,seed=1", 5);
  const FaultSimResult b = run_once("heavy,seed=2", 5);
  bool differs = a.schedule.size() != b.schedule.size();
  for (std::size_t i = 0; !differs && i < a.schedule.size(); ++i) {
    differs = !(a.schedule[i] == b.schedule[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSim, EveryHitLeaseEndsInATerminalStatus) {
  const FaultSimResult res = run_once("heavy,seed=9", 3, 50);
  EXPECT_GT(res.node_crashes, 0);
  EXPECT_EQ(static_cast<std::size_t>(res.leases_hit), res.repairs.size());
  for (const RepairRecord& r : res.repairs) {
    EXPECT_TRUE(placement::is_terminal(r.status));
    EXPECT_NE(r.status, placement::PlacementStatus::kQueued);
    EXPECT_LE(r.vms_replaced, r.vms_lost);
    if (r.status == placement::PlacementStatus::kRepaired) {
      EXPECT_EQ(r.vms_replaced, r.vms_lost);
    }
  }
  EXPECT_EQ(res.repaired + res.partial + res.degraded + res.abandoned,
            static_cast<int>(res.repairs.size()));
  EXPECT_EQ(res.vms_lost,
            [&] {
              int sum = 0;
              for (const RepairRecord& r : res.repairs) sum += r.vms_lost;
              return sum;
            }());
}

TEST(FaultSim, RecordsSimInstrumentsWithAndWithoutFaults) {
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& runs = reg.counter("sim/runs");
  obs::HistogramMetric& wait = reg.histogram(
      "sim/wait_seconds",
      obs::MetricsRegistry::exponential_buckets(0.5, 2.0, 14));
  obs::HistogramMetric& hold = reg.histogram(
      "sim/hold_seconds",
      obs::MetricsRegistry::exponential_buckets(0.5, 2.0, 14));
  obs::Gauge& utilization = reg.gauge("sim/mean_utilization");
  for (const char* spec : {"none", "light"}) {
    const std::uint64_t runs_before = runs.value();
    const std::size_t wait_before = wait.count();
    const std::size_t hold_before = hold.count();
    const FaultSimResult res = run_once(spec, 3);
    EXPECT_EQ(res.node_crashes, std::string(spec) == "light" ? 1 : 0);
    EXPECT_EQ(runs.value(), runs_before + 1) << spec;
    EXPECT_EQ(wait.count(), wait_before + res.grants.size()) << spec;
    EXPECT_EQ(hold.count(), hold_before + res.grants.size()) << spec;
    EXPECT_DOUBLE_EQ(utilization.value(), res.mean_utilization) << spec;
  }
  reg.set_enabled(was_enabled);
}

TEST(FaultSim, AbandonedLeasesGetAReleaseTimestamp) {
  // Heavy churn on a small cloud forces degraded/abandoned outcomes across
  // seeds; whatever happens, every grant must end with released >= granted
  // and the timeline must stay time-ordered.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FaultSimResult res = run_once("heavy,seed=" + std::to_string(seed),
                                        seed, 40);
    for (const sim::GrantRecord& g : res.grants) {
      EXPECT_GE(g.released, g.granted) << "seed " << seed;
    }
    for (std::size_t i = 1; i < res.timeline.size(); ++i) {
      EXPECT_LE(res.timeline[i - 1].time, res.timeline[i].time)
          << "seed " << seed;
    }
    EXPECT_GE(res.mean_utilization, 0.0);
    EXPECT_LE(res.mean_utilization, 1.0);
  }
}

TEST(FaultSim, RepairPenaltyOnlyCountsCompletedRepairs) {
  const FaultSimResult res = run_once("light,seed=3", 6);
  double expected = 0;
  for (const RepairRecord& r : res.repairs) {
    if (r.status != placement::PlacementStatus::kAbandoned) {
      expected += r.distance_after - r.distance_before;
    }
  }
  EXPECT_DOUBLE_EQ(res.repair_distance_penalty, expected);
}

}  // namespace
}  // namespace vcopt::fault
