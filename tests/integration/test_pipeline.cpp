// Integration tests across module boundaries: scenario -> provisioning ->
// virtual cluster -> MapReduce execution, and the closed-loop cluster
// simulation.  These pin down the paper's end-to-end claims rather than any
// single module's contract.
#include <gtest/gtest.h>

#include "fault/fault_sim.h"
#include "mapreduce/apps.h"
#include "mapreduce/engine.h"
#include "placement/provisioner.h"
#include "util/stats.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace vcopt {
namespace {

TEST(Pipeline, ProvisionThenRunJobEndToEnd) {
  const workload::SimScenario sc =
      workload::paper_sim_scenario(5, workload::RequestScale::kMedium);
  cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
  placement::Provisioner prov(cloud,
                              placement::make_policy("online-heuristic"));
  const cluster::Request request({0, 8, 0}, 1);
  const auto grant = prov.request(request);
  ASSERT_TRUE(grant.has_value());

  const auto vc = mapreduce::VirtualCluster::from_allocation(
      grant->placement.allocation);
  ASSERT_EQ(vc.size(), 8u);
  mapreduce::MapReduceEngine engine(cloud.topology(), sim::NetworkConfig{}, vc,
                                    mapreduce::wordcount(), 7);
  const mapreduce::JobMetrics m = engine.run();
  EXPECT_GT(m.runtime, 0);
  EXPECT_DOUBLE_EQ(m.cluster_distance, grant->placement.distance);
  prov.release(grant->lease);
  EXPECT_EQ(cloud.lease_count(), 0u);
}

// The paper's core cross-module claim: across random clouds, tighter
// clusters (lower DC) run WordCount no slower ON AVERAGE than looser ones
// provisioned for the same request by a worse policy.
TEST(Pipeline, AffinityCorrelatesWithRuntime) {
  util::Samples tight_rt, loose_rt;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const workload::SimScenario sc =
        workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
    const cluster::Request request({0, 8, 0}, 1);
    auto good = placement::make_policy("sd-exact");
    auto bad = placement::make_policy("spread");
    const auto g = good->place(request, sc.capacity, sc.topology);
    const auto b = bad->place(request, sc.capacity, sc.topology);
    if (!g || !b) continue;
    ASSERT_LE(g->distance, b->distance);
    for (int trial = 0; trial < 3; ++trial) {
      mapreduce::MapReduceEngine eg(
          sc.topology, sim::NetworkConfig{},
          mapreduce::VirtualCluster::from_allocation(g->allocation),
          mapreduce::wordcount(), seed * 10 + static_cast<std::uint64_t>(trial));
      mapreduce::MapReduceEngine eb(
          sc.topology, sim::NetworkConfig{},
          mapreduce::VirtualCluster::from_allocation(b->allocation),
          mapreduce::wordcount(), seed * 10 + static_cast<std::uint64_t>(trial));
      tight_rt.add(eg.run().runtime);
      loose_rt.add(eb.run().runtime);
    }
  }
  ASSERT_GT(tight_rt.count(), 0u);
  EXPECT_LT(tight_rt.mean(), loose_rt.mean());
}

// Policy comparison under churn: the affinity-aware policy achieves lower
// mean cluster distance than the spread baseline on the same trace, while
// serving the same set of requests.
TEST(Pipeline, ChurnComparisonAcrossPolicies) {
  const workload::SimScenario sc =
      workload::paper_sim_scenario(11, workload::RequestScale::kMedium);
  util::Rng rng(11);
  const auto reqs = workload::random_requests(sc.catalog, rng, 60, 0, 4);
  const auto trace = workload::poisson_trace(reqs, rng, 4.0, 30.0);

  cluster::Cloud cloud_a(sc.topology, sc.catalog, sc.capacity);
  const fault::FaultSimResult affinity = fault::run_fault_sim(
      cloud_a, placement::make_policy("online-heuristic"), trace);
  cluster::Cloud cloud_b(sc.topology, sc.catalog, sc.capacity);
  const fault::FaultSimResult spread =
      fault::run_fault_sim(cloud_b, placement::make_policy("spread"), trace);

  ASSERT_GT(affinity.grants.size(), 0u);
  const double mean_a =
      affinity.total_distance / double(affinity.grants.size());
  const double mean_b = spread.total_distance / double(spread.grants.size());
  EXPECT_LT(mean_a, mean_b);
}

// Draining a node steers future grants away from it, end to end.
TEST(Pipeline, DrainSteersNewGrants) {
  const workload::SimScenario sc =
      workload::paper_sim_scenario(3, workload::RequestScale::kMedium);
  cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
  placement::Provisioner prov(cloud, placement::make_policy("sd-exact"));

  const cluster::Request request({1, 1, 1}, 1);
  const auto first = prov.request(request);
  ASSERT_TRUE(first.has_value());
  const std::size_t used = first->placement.allocation.used_nodes().front();
  prov.release(first->lease);

  cloud.drain_node(used);
  const auto second = prov.request(cluster::Request({1, 1, 1}, 2));
  ASSERT_TRUE(second.has_value());
  for (std::size_t node : second->placement.allocation.used_nodes()) {
    EXPECT_NE(node, used);
  }
}

}  // namespace
}  // namespace vcopt
