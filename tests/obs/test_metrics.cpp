// MetricsRegistry semantics: find-or-create identity, enable gating,
// concurrent counter increments, histogram bucketing and the JSON snapshot
// round-trip through util::Json::parse.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "util/json.h"

namespace vcopt::obs {
namespace {

TEST(MetricsRegistry, CounterFindOrCreateReturnsStableReference) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  Counter& a = reg.counter("solver/bb_nodes_explored");
  Counter& b = reg.counter("solver/bb_nodes_explored");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add();
  EXPECT_EQ(a.value(), 4u);
}

TEST(MetricsRegistry, DisabledInstrumentsAreNoOps) {
  MetricsRegistry reg;  // disabled by default
  Counter& c = reg.counter("x/count");
  Gauge& g = reg.gauge("x/depth");
  HistogramMetric& h = reg.histogram("x/latency", {1.0, 2.0});
  c.add(10);
  g.set(7);
  g.add(1);
  h.observe(1.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.max(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  // Flipping the switch re-arms the same instrument references.
  reg.set_enabled(true);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(MetricsRegistry, GaugeTracksLastValueAndPeak) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  Gauge& g = reg.gauge("provisioner/queue_depth");
  g.set(3);
  g.set(9);
  g.set(4);
  EXPECT_EQ(g.value(), 4.0);
  EXPECT_EQ(g.max(), 9.0);
  g.add(-2);
  EXPECT_EQ(g.value(), 2.0);
  EXPECT_EQ(g.max(), 9.0);
}

TEST(MetricsRegistry, HistogramBucketsAndSummaryStats) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  HistogramMetric& h =
      reg.histogram("sim/wait_seconds", MetricsRegistry::linear_buckets(0, 3, 3));
  ASSERT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 3.0}));
  for (double x : {0.5, 1.0, 2.5, 10.0}) h.observe(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);

  const util::Json snap = reg.snapshot_json();
  const util::Json& hist = snap.at("histograms").at("sim/wait_seconds");
  EXPECT_EQ(hist.at("count").as_int(), 4);
  // Buckets are inclusive upper bounds plus one overflow bucket.
  const util::JsonArray& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].at("count").as_int(), 2);  // 0.5, 1.0 <= 1
  EXPECT_EQ(buckets[1].at("count").as_int(), 0);
  EXPECT_EQ(buckets[2].at("count").as_int(), 1);  // 2.5 <= 3
  EXPECT_EQ(buckets[3].at("count").as_int(), 1);  // 10.0 overflow
  EXPECT_EQ(buckets[3].at("le").as_string(), "inf");
  EXPECT_DOUBLE_EQ(hist.at("mean").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(hist.at("min").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(hist.at("max").as_number(), 10.0);
}

TEST(MetricsRegistry, ExponentialBucketsGrowGeometrically) {
  const std::vector<double> b = MetricsRegistry::exponential_buckets(1, 2, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

TEST(MetricsRegistry, HistogramKeepsOriginalBoundsOnReRegister) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  HistogramMetric& a = reg.histogram("x/h", {1.0, 2.0});
  HistogramMetric& b = reg.histogram("x/h", {100.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, ConcurrentCounterIncrementsAreLossless) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  Counter& c = reg.counter("x/concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndObservation) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  constexpr int kThreads = 6;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < 2000; ++i) {
        reg.counter("shared/count").add();
        reg.gauge("shared/gauge").set(i);
        reg.histogram("shared/hist", {10.0, 100.0}).observe(i % 7);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.counter("shared/count").value(), 6u * 2000u);
  EXPECT_EQ(reg.histogram("shared/hist", {}).count(), 6u * 2000u);
}

TEST(MetricsRegistry, SnapshotJsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter("solver/lp_solves").add(12);
  reg.gauge("provisioner/queue_depth").set(5);
  reg.histogram("placement/transfer_gain", {1.0, 4.0}).observe(2.5);

  const std::string text = reg.snapshot_json().dump(2);
  const util::Json parsed = util::Json::parse(text);
  EXPECT_EQ(parsed.at("counters").at("solver/lp_solves").as_int(), 12);
  EXPECT_EQ(parsed.at("gauges").at("provisioner/queue_depth").at("value")
                .as_number(),
            5.0);
  EXPECT_EQ(parsed.at("histograms").at("placement/transfer_gain").at("count")
                .as_int(),
            1);
  EXPECT_EQ(parsed, reg.snapshot_json());
}

TEST(MetricsRegistry, ResetZeroesButKeepsInstruments) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  Counter& c = reg.counter("x/c");
  Gauge& g = reg.gauge("x/g");
  HistogramMetric& h = reg.histogram("x/h", {1.0});
  c.add(5);
  g.set(3);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.max(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // Same references stay registered and usable.
  c.add();
  EXPECT_EQ(reg.counter("x/c").value(), 1u);
}

TEST(MetricsRegistry, RenderTableListsEveryInstrument) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter("solver/bb_solves").add(2);
  reg.gauge("sim/mean_utilization").set(0.75);
  reg.histogram("sim/hold_seconds", {1.0}).observe(0.25);
  // A microsecond-scale stage (histograms record seconds) must stay
  // readable rather than rounding to 0.000.
  reg.histogram("service/stage/admit", {1e-3}).observe(20e-6);
  const std::string table = reg.render_table();
  EXPECT_NE(table.find("solver/bb_solves"), std::string::npos);
  EXPECT_NE(table.find("sim/mean_utilization"), std::string::npos);
  EXPECT_NE(table.find("sim/hold_seconds"), std::string::npos);
  const std::size_t stage = table.find("service/stage/admit");
  ASSERT_NE(stage, std::string::npos);
  const std::string row = table.substr(stage, table.find('\n', stage) - stage);
  EXPECT_EQ(row.find("0.000"), std::string::npos) << row;
  EXPECT_NE(row.find("mean=2e-05"), std::string::npos) << row;
}

TEST(MetricsRegistry, WriteJsonFileProducesParsableDocument) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter("x/c").add(7);
  const std::string path = "test_metrics_snapshot.json";
  ASSERT_TRUE(reg.write_json_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const util::Json parsed = util::Json::parse(buf.str());
  EXPECT_EQ(parsed.at("counters").at("x/c").as_int(), 7);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vcopt::obs
