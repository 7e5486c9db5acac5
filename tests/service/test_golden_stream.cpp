// Cross-commit pin of the served decision stream.  The other byte pins
// compare two paths of the same build (serial vs routed, live vs replay), so
// a change that moves every path's decisions together would pass them all.
// These tests compare one seeded virtual-clock run per serving mode with
// committed goldens instead: the canonical grant stream byte for byte, and
// the journal by byte length and FNV-1a-64 hash.
//
// A deliberate change of what the service decides must regenerate the
// goldens: on a mismatch each test writes its actual output into its working
// directory (under ctest, the test binary's; golden_<mode>.grants.actual and
// golden_<mode>.journal.actual), and copying those over
// tests/service/golden/ without the .actual suffix refreshes the pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "cluster/topology.h"
#include "cluster/vm_type.h"
#include "obs/timeseries.h"
#include "service/journal.h"
#include "service/service.h"
#include "util/rng.h"
#include "workload/generator.h"

#ifndef VCOPT_SERVICE_GOLDEN_DIR
#error "VCOPT_SERVICE_GOLDEN_DIR must name tests/service/golden"
#endif

namespace vcopt::service {
namespace {

constexpr std::uint64_t kSeed = 20240607;
constexpr std::size_t kRequests = 180;
constexpr std::size_t kLiveLeases = 14;

struct ServedRun {
  std::string grants;
  std::string journal;
  ServiceStats stats;
};

// Two clouds of three racks of six nodes, so flat plans fill across both
// off-rack tiers, and a two-cell partition puts one cloud in each cell.
// Requests arrive at random instants; every third one carries a deadline
// that can expire before its window closes, and the oldest lease is
// released whenever more than kLiveLeases are held.
ServedRun serve(ServiceOptions options, obs::Recorder* recorder,
                cluster::DistanceConfig distances = {}) {
  util::Rng rng(kSeed);
  const cluster::Topology topology =
      cluster::Topology::multi_cloud(2, 3, 6, distances);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  cluster::Cloud cloud(topology, catalog,
                       workload::random_inventory(topology, catalog, rng, 0, 3));
  std::ostringstream journal;
  options.journal = &journal;
  options.max_batch = 4;
  options.max_wait = 0.01;
  options.queue_capacity = 1024;
  options.recorder = recorder;
  ServedRun run;
  std::vector<Outcome> outcomes;
  {
    PlacementService svc(cloud, options);
    std::deque<cluster::LeaseId> live;
    double t = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      t += rng.exponential(0.004);
      svc.advance_to(t);
      SubmitOptions submit;
      if (i % 3 == 0) submit.deadline = t + rng.uniform(0.0, 0.012);
      svc.submit(workload::random_request(catalog, rng, 0, 5, i + 1), submit);
      for (Outcome& o : svc.take_outcomes()) {
        if (has_lease(o.kind)) live.push_back(o.lease);
        outcomes.push_back(std::move(o));
      }
      while (live.size() > kLiveLeases) {
        svc.release(live.front());
        live.pop_front();
      }
    }
    svc.stop();
    for (Outcome& o : svc.take_outcomes()) outcomes.push_back(std::move(o));
    run.stats = svc.stats();
  }
  run.grants = grant_stream(std::move(outcomes));
  run.journal = journal.str();
  return run;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string journal_digest(const std::string& journal) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(journal)));
  return std::to_string(journal.size()) + " " + hex + "\n";
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(VCOPT_SERVICE_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_actual(const std::string& name, const std::string& bytes) {
  std::ofstream(name + ".actual", std::ios::binary) << bytes;
}

// Line number (1-based) of the first line where two texts differ.
std::size_t first_diff_line(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return line;
    if (a[i] == '\n') ++line;
  }
  return line;
}

void expect_golden(const std::string& mode, const ServedRun& run) {
  const std::string grants_name = "golden_" + mode + ".grants";
  const std::string journal_name = "golden_" + mode + ".journal";
  const std::string grants = read_golden(grants_name);
  const std::string digest = read_golden(journal_name);
  if (run.grants != grants) write_actual(grants_name, run.grants);
  EXPECT_TRUE(run.grants == grants)
      << mode << ": grant stream differs from the golden at line "
      << first_diff_line(run.grants, grants);
  const std::string actual_digest = journal_digest(run.journal);
  if (actual_digest != digest) write_actual(journal_name, actual_digest);
  EXPECT_EQ(actual_digest, digest) << mode << ": journal bytes and FNV-1a-64";
}

TEST(GoldenStream, Flat) {
  const ServedRun run = serve(ServiceOptions{}, nullptr);
  EXPECT_GT(run.stats.deadline_missed, 0u);
  expect_golden("flat", run);
}

TEST(GoldenStream, TwoCells) {
  ServiceOptions options;
  options.cells = 2;
  const ServedRun run = serve(options, nullptr);
  expect_golden("cells2", run);
}

TEST(GoldenStream, RebalanceWithRecorder) {
  ServiceOptions options;
  options.sample_period = 0.005;
  options.rebalance = true;
  options.rebalance_policy.tick_period = 0.05;
  options.rebalance_policy.max_moves_per_round = 4;
  options.rebalance_policy.drift_ratio = 0.0;
  options.rebalance_policy.lease_cooldown = 0.05;
  options.rebalance_policy.cost.cost_per_gb = 1e-4;
  options.rebalance_policy.cost.shuffle_cost_factor = 1e-4;
  obs::Recorder recorder;
  recorder.set_enabled(true);
  const ServedRun run = serve(options, &recorder);
  EXPECT_GT(run.stats.rebalance_migrations, 0u);
  expect_golden("rebalance", run);
}

// Tiers whose products and sums are not exact in double, so distances tie
// only up to rounding.
TEST(GoldenStream, FlatFractionalTiers) {
  cluster::DistanceConfig distances;
  distances.same_rack = 0.7;
  distances.cross_rack = 1.3;
  distances.cross_cloud = 2.9;
  const ServedRun run = serve(ServiceOptions{}, nullptr, distances);
  expect_golden("flat_fractional", run);
}

}  // namespace
}  // namespace vcopt::service
