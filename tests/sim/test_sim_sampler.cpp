// Recorder wiring through the simulation layer: run_fault_sim drives a
// ClusterSampler on the simulated clock when a recorder is supplied, with or
// without faults, and feeds the repair-success SLO.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cloud.h"
#include "fault/fault_sim.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "placement/online_heuristic.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace vcopt::sim {
namespace {

workload::SimScenario small_scenario() {
  return workload::paper_sim_scenario(5, workload::RequestScale::kSmall);
}

std::vector<cluster::TimedRequest> small_trace(
    const workload::SimScenario& scenario) {
  util::Rng rng(17);
  const auto requests =
      workload::random_requests(scenario.catalog, rng, 30, 0, 2);
  return workload::poisson_trace(requests, rng, 2.0, 20.0);
}

TEST(SimSampler, ClusterSimRecordsTimeSeriesOnTheSimClock) {
  const auto scenario = small_scenario();
  const auto trace = small_trace(scenario);
  cluster::Cloud cloud(scenario.topology, scenario.catalog, scenario.capacity);
  obs::Recorder rec;
  rec.set_enabled(true);
  fault::FaultSimOptions opt;
  opt.recorder = &rec;
  opt.sample_period = 1.0;
  const fault::FaultSimResult res = fault::run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace, {}, opt);
  ASSERT_GT(res.grants.size(), 0u);

  obs::TimeSeries& util_series = rec.series("cluster/utilization");
  ASSERT_GT(util_series.size(), 1u);
  const auto summary = util_series.summarize();
  // Samples span the simulated horizon, not wall time.
  EXPECT_GT(summary.last_t, 1.0);
  EXPECT_LE(summary.last_t, res.makespan);
  EXPECT_GT(summary.max, 0.0);
  // Per-node series exist for every node.
  for (std::size_t n = 0; n < scenario.topology.node_count(); ++n) {
    EXPECT_GT(
        rec.series("cluster/node/load", {{"node", std::to_string(n)}}).size(),
        0u)
        << "node " << n;
  }
}

TEST(SimSampler, NoRecorderMeansNoSeries) {
  const auto scenario = small_scenario();
  const auto trace = small_trace(scenario);
  cluster::Cloud cloud(scenario.topology, scenario.catalog, scenario.capacity);
  const fault::FaultSimResult res = fault::run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  EXPECT_GT(res.grants.size(), 0u);  // the sim itself is unaffected
}

TEST(SimSampler, FaultSimRecordsSeriesAndFeedsRepairSlo) {
  const auto scenario = small_scenario();
  const auto trace = small_trace(scenario);
  cluster::Cloud cloud(scenario.topology, scenario.catalog, scenario.capacity);
  obs::Recorder rec;
  rec.set_enabled(true);
  obs::SloTracker slo;
  fault::FaultProfile profile;
  profile.seed = 9;
  profile.node_crashes = 6;  // plenty of repairs over the derived horizon
  fault::FaultSimOptions opt;
  opt.recorder = &rec;
  opt.slo = &slo;
  const fault::FaultSimResult res = fault::run_fault_sim(
      cloud, std::make_unique<placement::OnlineHeuristic>(), trace, profile,
      opt);

  EXPECT_GT(rec.series("cluster/utilization").size(), 0u);
  ASSERT_TRUE(slo.declared("fault/repair_success"));
  // Every terminal repair produced one SLO event.
  const auto statuses = slo.evaluate(res.makespan);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].total, static_cast<std::uint64_t>(res.repairs.size()));
  EXPECT_EQ(statuses[0].bad,
            static_cast<std::uint64_t>(res.repairs.size()) -
                static_cast<std::uint64_t>(res.repaired));
}

TEST(SimSampler, FaultSimRespectsPreDeclaredSlo) {
  const auto scenario = small_scenario();
  const auto trace = small_trace(scenario);
  cluster::Cloud cloud(scenario.topology, scenario.catalog, scenario.capacity);
  obs::SloTracker slo;
  obs::SloSpec spec;
  spec.name = "fault/repair_success";
  spec.objective = 0.5;  // caller's looser objective must win
  slo.declare(spec);
  fault::FaultProfile profile;
  profile.seed = 9;
  profile.node_crashes = 2;
  fault::FaultSimOptions opt;
  opt.slo = &slo;
  fault::run_fault_sim(cloud, std::make_unique<placement::OnlineHeuristic>(),
                       trace, profile, opt);
  const auto statuses = slo.evaluate(0);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_DOUBLE_EQ(statuses[0].spec.objective, 0.5);
}

}  // namespace
}  // namespace vcopt::sim
