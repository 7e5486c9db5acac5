// ClusterSampler: per-node load/free series, fragmentation, the
// maybe_sample period gate and the disabled-recorder fast path.
#include "cluster/sampler.h"

#include <gtest/gtest.h>

#include "cluster/cloud.h"
#include "obs/timeseries.h"

namespace vcopt::cluster {
namespace {

Cloud make_cloud() {
  // 2 racks x 2 nodes, 3 EC2 types, 2 of each type per node.
  return Cloud(Topology::uniform(2, 2), VmCatalog::ec2_default(),
               util::IntMatrix(4, 3, 2));
}

LeaseId grant_spanning_lease(Cloud& cloud) {
  // One VM on each of nodes 0 and 2 (different racks): DC > 0.
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(2, 0) = 1;
  return cloud.grant(r, a);
}

TEST(ClusterSampler, RecordsPerNodeLoadAndFree) {
  Cloud cloud = make_cloud();
  obs::Recorder rec;
  rec.set_enabled(true);
  ClusterSampler sampler(cloud, rec);
  grant_spanning_lease(cloud);
  sampler.sample(1.0);

  EXPECT_EQ(rec.series("cluster/node/load", {{"node", "0"}}).summarize().last,
            1);
  EXPECT_EQ(rec.series("cluster/node/load", {{"node", "1"}}).summarize().last,
            0);
  EXPECT_EQ(rec.series("cluster/node/load", {{"node", "2"}}).summarize().last,
            1);
  // 6 slots per node; node 0 hosts one VM.
  EXPECT_EQ(rec.series("cluster/node/free", {{"node", "0"}}).summarize().last,
            5);
  EXPECT_EQ(rec.series("cluster/leases").summarize().last, 1);
  // 2 of 24 VM slots allocated.
  EXPECT_NEAR(rec.series("cluster/utilization").summarize().last, 2.0 / 24.0,
              1e-12);
}

TEST(ClusterSampler, FragmentationSeriesArePresent) {
  Cloud cloud = make_cloud();
  obs::Recorder rec;
  rec.set_enabled(true);
  ClusterSampler sampler(cloud, rec);
  sampler.sample(0.0);
  EXPECT_EQ(rec.series("cluster/frag/free_vms").summarize().last, 24);
  EXPECT_EQ(rec.series("cluster/frag/largest_node_request").summarize().count,
            1u);
  EXPECT_EQ(rec.series("cluster/frag/node_concentration").summarize().count,
            1u);
}

TEST(ClusterSampler, MaybeSampleHonoursThePeriod) {
  Cloud cloud = make_cloud();
  obs::Recorder rec;
  rec.set_enabled(true);
  ClusterSamplerOptions opt;
  opt.period = 1.0;
  ClusterSampler sampler(cloud, rec, opt);
  EXPECT_TRUE(sampler.maybe_sample(0.0));   // first call always samples
  EXPECT_FALSE(sampler.maybe_sample(0.5));  // within the period
  EXPECT_FALSE(sampler.maybe_sample(0.99));
  EXPECT_TRUE(sampler.maybe_sample(1.0));  // period elapsed
  EXPECT_TRUE(sampler.maybe_sample(5.0));
  EXPECT_EQ(sampler.samples_taken(), 3u);
  EXPECT_EQ(rec.series("cluster/utilization").summarize().count, 3u);
}

TEST(ClusterSampler, DisabledRecorderMakesSamplingANoOp) {
  Cloud cloud = make_cloud();
  obs::Recorder rec;  // disabled
  ClusterSampler sampler(cloud, rec);
  sampler.sample(0.0);
  EXPECT_EQ(rec.series("cluster/utilization").summarize().count, 0u);
  EXPECT_EQ(sampler.samples_taken(), 0u);
}

}  // namespace
}  // namespace vcopt::cluster
