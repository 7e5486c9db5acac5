// The per-service SloTracker: declared objectives, stage-latency histograms,
// the healthy-baseline-stays-quiet / overload-trips-shed-alert gates, and the
// recorder/sampler wiring through ServiceOptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "gate_stream.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "service/service.h"
#include "util/json.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& scenario) {
  return Cloud(scenario.topology, scenario.catalog, scenario.capacity);
}

// The objectives are constants; this pins every value of each to what
// docs/observability.md states.
TEST(ServiceSlo, ObjectivesAreDeclaredAtConstruction) {
  const auto scenario = workload::paper_sim_scenario(2);
  Cloud cloud = scenario_cloud(scenario);
  PlacementService svc(cloud, ServiceOptions{});
  EXPECT_EQ(svc.slo().names(),
            (std::vector<std::string>{"service/dc_per_vm", "service/latency",
                                      "service/shed_rate"}));
  const struct {
    const char* name;
    double threshold;
    double objective;
  } want[] = {{"service/dc_per_vm", 4.0, 0.25},
              {"service/latency", 1.0, 0.01},
              {"service/shed_rate", 0.0, 0.05}};
  const auto statuses = svc.slo().evaluate(svc.now());
  ASSERT_EQ(statuses.size(), std::size(want));
  for (const auto& w : want) {
    SCOPED_TRACE(w.name);
    const auto it = std::find_if(
        statuses.begin(), statuses.end(),
        [&](const obs::SloStatus& s) { return s.spec.name == w.name; });
    ASSERT_NE(it, statuses.end());
    EXPECT_EQ(it->spec.threshold, w.threshold);
    EXPECT_EQ(it->spec.objective, w.objective);
    EXPECT_EQ(it->spec.short_window, 60.0);
    EXPECT_EQ(it->spec.long_window, 600.0);
    EXPECT_EQ(it->spec.burn_alert, 2.0);
    EXPECT_EQ(it->spec.min_events, 10u);
  }
  svc.stop();
}

/// The first `n` requests of `stream` (cyclically), renumbered 1..n.
std::vector<Request> renumbered(const std::vector<Request>& stream,
                                std::size_t n) {
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(stream[i % stream.size()].counts(), i + 1);
  }
  return out;
}

// A modest stream into an amply provisioned service: every submission
// admits, each window is decided and its leases released before the next
// one fills, so nothing sheds.  Inputs: 24 of seed 4's requests in windows
// of 4, and seed 42's 144-request gate stream in windows of 8.
TEST(ServiceSlo, HealthyBaselineDoesNotAlert) {
  const auto seed4 = workload::paper_sim_scenario(4);
  const auto seed42 = gate_scenario();
  const struct {
    const workload::SimScenario& scenario;
    std::vector<Request> stream;
    std::size_t window;
  } inputs[] = {{seed4, renumbered(seed4.requests, 24), 4},
                {seed42, renumbered(gate_stream(seed42, 144), 144), 8}};
  for (const auto& in : inputs) {
    SCOPED_TRACE(testing::Message() << in.stream.size() << " requests, W = "
                                    << in.window);
    Cloud cloud = scenario_cloud(in.scenario);
    ServiceOptions options;
    options.max_batch = in.window;
    options.queue_capacity = 256;
    PlacementService svc(cloud, options);
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
      svc.submit(in.stream[i]);
      if ((i + 1) % in.window == 0) {
        svc.flush();
        for (const Outcome& o : svc.take_outcomes()) {
          if (has_lease(o.kind)) svc.release(o.lease);
        }
      }
    }
    svc.flush();
    EXPECT_FALSE(svc.slo().any_alerting(svc.now()));
    const auto statuses = svc.slo().evaluate(svc.now());
    const auto shed = std::find_if(
        statuses.begin(), statuses.end(), [](const obs::SloStatus& s) {
          return s.spec.name == "service/shed_rate";
        });
    ASSERT_NE(shed, statuses.end());
    EXPECT_EQ(shed->bad, 0u);
    EXPECT_GE(shed->total, in.stream.size());
    svc.stop();
  }
}

// Queue capacity 4 and a burst far beyond it in one instant: every
// submission past the fourth is refused at admission, and the shed-rate
// objective burns through its budget in both windows.  Inputs: 100 of seed
// 4's requests, and 200 from seed 42's gate stream.
TEST(ServiceSlo, OverloadTripsShedRateAlert) {
  const auto seed4 = workload::paper_sim_scenario(4);
  const auto seed42 = gate_scenario();
  const struct {
    const workload::SimScenario& scenario;
    std::vector<Request> burst;
  } inputs[] = {{seed4, renumbered(seed4.requests, 100)},
                {seed42, renumbered(gate_stream(seed42, 144), 200)}};
  for (const auto& in : inputs) {
    SCOPED_TRACE(testing::Message() << in.burst.size() << " submissions");
    Cloud cloud = scenario_cloud(in.scenario);
    ServiceOptions options;
    options.max_batch = in.burst.size() + 1;  // never closes on size
    options.max_wait = 1e9;
    options.queue_capacity = 4;
    PlacementService svc(cloud, options);
    std::size_t refused = 0;
    for (const Request& r : in.burst) {
      if (svc.submit(r).admission != AdmissionStatus::kAccepted) ++refused;
    }
    EXPECT_EQ(refused, in.burst.size() - options.queue_capacity);
    EXPECT_TRUE(svc.slo().any_alerting(svc.now()));
    const auto statuses = svc.slo().evaluate(svc.now());
    const auto shed = std::find_if(
        statuses.begin(), statuses.end(), [](const obs::SloStatus& s) {
          return s.spec.name == "service/shed_rate";
        });
    ASSERT_NE(shed, statuses.end());
    EXPECT_TRUE(shed->alerting);
    EXPECT_GE(shed->short_burn, shed->spec.burn_alert);
    EXPECT_GE(shed->long_burn, shed->spec.burn_alert);
    svc.stop();
  }
}

TEST(ServiceSlo, SnapshotJsonListsAllThreeObjectives) {
  const auto scenario = workload::paper_sim_scenario(2);
  Cloud cloud = scenario_cloud(scenario);
  ServiceOptions options;
  PlacementService svc(cloud, options);
  svc.submit(scenario.requests[0]);
  svc.flush();
  const util::Json j =
      util::Json::parse(svc.slo().snapshot_json(svc.now()).dump(0));
  EXPECT_EQ(j.at("schema").as_string(), "vcopt-slo/1");
  EXPECT_EQ(j.at("slos").size(), 3u);
  svc.stop();
}

TEST(ServiceSlo, RecorderOptionWiresTheClusterSampler) {
  const auto scenario = workload::paper_sim_scenario(2);
  Cloud cloud = scenario_cloud(scenario);
  obs::Recorder rec;
  rec.set_enabled(true);
  ServiceOptions options;
  options.max_batch = 2;
  options.recorder = &rec;
  options.sample_period = 0.0;  // sample at every decide window
  PlacementService svc(cloud, options);
  for (std::size_t i = 0; i < 4; ++i) svc.submit(scenario.requests[i]);
  svc.flush();
  svc.stop();
  // Per-node and aggregate series were recorded on the service clock.
  EXPECT_GT(rec.series("cluster/utilization").size(), 0u);
  EXPECT_GT(rec.series("cluster/leases").size(), 0u);
  EXPECT_GT(rec.series("cluster/node/load", {{"node", "0"}}).size(), 0u);
}

TEST(ServiceSlo, StageHistogramsAreRecordedInGlobalRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const auto scenario = workload::paper_sim_scenario(2);
  Cloud cloud = scenario_cloud(scenario);
  ServiceOptions options;
  options.max_batch = 2;
  PlacementService svc(cloud, options);
  for (std::size_t i = 0; i < 4; ++i) svc.submit(scenario.requests[i]);
  svc.flush();
  svc.stop();
  const util::Json j = util::Json::parse(reg.snapshot_json().dump(0));
  for (const char* stage :
       {"service/stage/admit", "service/stage/queue", "service/stage/batch",
        "service/stage/solve", "service/stage/commit"}) {
    ASSERT_TRUE(j.at("histograms").contains(stage)) << stage;
    EXPECT_GT(j.at("histograms").at(stage).at("count").as_number(), 0)
        << stage;
  }
  reg.set_enabled(was_enabled);
}

}  // namespace
}  // namespace vcopt::service
