// ClusterSampler: per-node load/free series, fragmentation, the
// maybe_sample period gate and the disabled-recorder fast path, plus the
// incremental sampler against a full-scan reference (seeded mutation storms
// on uniform, multi-cloud and uneven-rack clouds, with and without a cell
// directory holding the listener slot) and the change-only per-node points
// at 10k nodes.
#include "cluster/sampler.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cell/directory.h"
#include "cell/partition.h"
#include "cluster/cloud.h"
#include "cluster/fragmentation.h"
#include "obs/timeseries.h"
#include "placement/online_heuristic.h"
#include "util/rng.h"
#include "workload/generator.h"

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

// --- the incremental sampler against a full-scan reference ----------------

/// The sampler's sample body before it became incremental, kept as the
/// reference: every node's load and free from a whole-cloud pass,
/// Inventory::utilization() and fragmentation().  Writes the same series.
class FullScanSampler {
 public:
  FullScanSampler(const Cloud& cloud, obs::Recorder& rec)
      : cloud_(cloud), rec_(rec) {}

  void sample(double t) {
    const Inventory& inv = cloud_.inventory();
    const util::IntMatrix& alloc = inv.allocated();
    const util::IntMatrix remaining = inv.remaining();
    for (std::size_t i = 0; i < cloud_.node_count(); ++i) {
      int load = 0;
      int free = 0;
      for (std::size_t j = 0; j < cloud_.type_count(); ++j) {
        load += alloc.at(i, j);
        free += remaining.at(i, j);
      }
      const obs::Labels labels{{"node", std::to_string(i)}};
      rec_.series("cluster/node/load", labels, 512).record(t, load);
      rec_.series("cluster/node/free", labels, 512).record(t, free);
    }
    rec_.series("cluster/utilization", {}, 512).record(t, inv.utilization());
    rec_.series("cluster/leases", {}, 512)
        .record(t, static_cast<double>(cloud_.lease_count()));
    const FragmentationStats frag = fragmentation(inv, cloud_.topology());
    rec_.series("cluster/frag/node_concentration", {}, 512)
        .record(t, frag.node_concentration);
    rec_.series("cluster/frag/rack_concentration", {}, 512)
        .record(t, frag.rack_concentration);
    rec_.series("cluster/frag/largest_node_request", {}, 512)
        .record(t, frag.largest_single_node_request);
    rec_.series("cluster/frag/largest_rack_request", {}, 512)
        .record(t, frag.largest_single_rack_request);
    rec_.series("cluster/frag/free_vms", {}, 512).record(t, frag.free_vms);
  }

 private:
  const Cloud& cloud_;
  obs::Recorder& rec_;
};

const char* const kClusterSeries[] = {
    "cluster/utilization",
    "cluster/leases",
    "cluster/frag/node_concentration",
    "cluster/frag/rack_concentration",
    "cluster/frag/largest_node_request",
    "cluster/frag/largest_rack_request",
    "cluster/frag/free_vms",
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Points ever recorded into a series (retained plus overwritten).
std::size_t recorded(const obs::TimeSeries& s) {
  return s.size() + static_cast<std::size_t>(s.dropped());
}

Cloud storm_cloud(const Topology& topo, std::uint64_t seed) {
  const VmCatalog catalog = VmCatalog::ec2_default();
  util::Rng rng(seed);
  util::IntMatrix cap = workload::random_inventory(topo, catalog, rng, 0, 4);
  return Cloud(topo, catalog, cap);
}

/// What a mutation storm holds between steps.
struct Storm {
  std::vector<LeaseId> live;
  std::vector<std::size_t> drained;
  std::vector<std::size_t> failed;
  std::vector<std::uint64_t> tickets;  ///< migrations begun and not ended
};

/// One random capacity mutation of every kind the cloud offers.
void mutate(Cloud& cloud, util::Rng& rng, Storm& storm, int step) {
  std::vector<LeaseId>& live = storm.live;
  std::vector<std::size_t>& drained = storm.drained;
  std::vector<std::size_t>& failed = storm.failed;
  placement::OnlineHeuristic heuristic;
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  switch (rng.uniform_int(0, 11)) {
    case 0:
    case 1:
    case 2: {  // grant
      const Request r = workload::random_request(
          cloud.catalog(), rng, 0, 3, static_cast<std::uint64_t>(step));
      auto placed = heuristic.place(r, cloud.remaining(), cloud.topology());
      if (placed) live.push_back(cloud.grant(r, placed->allocation));
      break;
    }
    case 3:
    case 4: {  // release
      if (live.empty()) break;
      const std::size_t k = pick(live.size());
      cloud.release(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      break;
    }
    case 5: {  // shrink one VM off a lease, or grow one onto a free slot
      if (live.empty()) break;
      const LeaseId id = live[pick(live.size())];
      const Allocation& held = cloud.lease_allocation(id);
      if (rng.uniform(0.0, 1.0) < 0.5 && !held.entries().empty()) {
        const Allocation::Entry e = held.entries()[pick(held.entries().size())];
        Allocation lost(cloud.node_count(), cloud.type_count());
        lost.add(e.node, e.type, 1);
        cloud.shrink_lease(id, lost);
      } else {
        const std::size_t node = pick(cloud.node_count());
        const std::size_t type = pick(cloud.type_count());
        if (cloud.remaining_at(node, type) <= 0) break;
        Allocation extra(cloud.node_count(), cloud.type_count());
        extra.add(node, type, 1);
        cloud.grow_lease(id, extra);
      }
      break;
    }
    case 6: {  // fail, and shrink the revoked slices as a repair would
      const std::size_t node = pick(cloud.node_count());
      if (cloud.is_failed(node)) break;
      for (LeaseId id : cloud.fail_node(node)) {
        if (rng.uniform(0.0, 1.0) < 0.5) {
          cloud.shrink_lease(id, cloud.lease_part_on_node(id, node));
        }
      }
      failed.push_back(node);
      break;
    }
    case 7: {  // recover
      if (failed.empty()) break;
      cloud.recover_node(failed.back());
      failed.pop_back();
      break;
    }
    case 8: {  // drain
      const std::size_t node = pick(cloud.node_count());
      if (cloud.is_drained(node)) break;
      cloud.drain_node(node);
      drained.push_back(node);
      break;
    }
    case 9: {  // undrain
      if (drained.empty()) break;
      cloud.undrain_node(drained.back());
      drained.pop_back();
      break;
    }
    default: {  // two-phase migration: end one begun earlier, or begin one
      std::vector<std::uint64_t>& tickets = storm.tickets;
      if (!tickets.empty() && rng.uniform(0.0, 1.0) < 0.5) {
        const std::size_t k = pick(tickets.size());
        const std::uint64_t ticket = tickets[k];
        tickets.erase(tickets.begin() + static_cast<std::ptrdiff_t>(k));
        if (rng.uniform(0.0, 1.0) < 0.6) {
          cloud.commit_migration(ticket);  // rolls back if the world moved
        } else {
          cloud.rollback_migration(ticket);
        }
        break;
      }
      if (live.empty()) break;
      const LeaseId id = live[pick(live.size())];
      const Allocation& held = cloud.lease_allocation(id);
      if (held.entries().empty()) break;
      const Allocation::Entry e = held.entries()[pick(held.entries().size())];
      const std::size_t to = pick(cloud.node_count());
      if (to == e.node) break;
      const std::uint64_t ticket =
          cloud.begin_migration(id, e.node, to, e.type);
      if (ticket != 0) tickets.push_back(ticket);
      break;
    }
  }
}

/// Runs a seeded mutation storm, sampling at random instants with the
/// incremental sampler and the full-scan reference side by side.
void run_differential(const Topology& topo, std::uint64_t seed,
                      bool directory_holds_listener) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (directory_holds_listener ? ", cell directory" : ""));
  Cloud cloud = storm_cloud(topo, seed);
  std::unique_ptr<cell::CellDirectory> dir;
  if (directory_holds_listener) {
    cell::CellPartitionOptions po;
    po.target_cells = 3;
    dir = std::make_unique<cell::CellDirectory>(cloud, po);
  }
  obs::Recorder rec;
  rec.set_enabled(true);
  obs::Recorder ref_rec;
  ref_rec.set_enabled(true);
  ClusterSampler sampler(cloud, rec);
  FullScanSampler reference(cloud, ref_rec);

  const std::size_t n = cloud.node_count();
  std::vector<obs::TimeSeries*> load(n), free(n);
  for (std::size_t i = 0; i < n; ++i) {
    const obs::Labels labels{{"node", std::to_string(i)}};
    load[i] = &rec.series("cluster/node/load", labels);
    free[i] = &rec.series("cluster/node/free", labels);
  }
  std::vector<int> prev_load, prev_free;  // brute force at the last sample

  util::Rng rng(seed * 7919 + 1);
  Storm storm;
  double t = 0;
  for (int step = 0; step < 400; ++step) {
    mutate(cloud, rng, storm, step);
    if (rng.uniform(0.0, 1.0) >= 0.35) continue;
    // Sometimes sample twice at one instant of the storm: the second sample
    // sees no change.
    const int repeats = rng.uniform(0.0, 1.0) < 0.2 ? 2 : 1;
    for (int rep = 0; rep < repeats; ++rep) {
      t += rng.uniform(0.01, 1.0);
      std::vector<std::size_t> before(2 * n);
      for (std::size_t i = 0; i < n; ++i) {
        before[2 * i] = recorded(*load[i]);
        before[2 * i + 1] = recorded(*free[i]);
      }
      sampler.sample(t);
      reference.sample(t);

      const util::IntMatrix& alloc = cloud.inventory().allocated();
      const util::IntMatrix remaining = cloud.inventory().remaining();
      std::vector<int> now_load(n, 0), now_free(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < cloud.type_count(); ++j) {
          now_load[i] += alloc.at(i, j);
          now_free[i] += remaining.at(i, j);
        }
        const bool first = prev_load.empty();
        const std::size_t load_points =
            first || now_load[i] != prev_load[i] ? 1 : 0;
        const std::size_t free_points =
            first || now_free[i] != prev_free[i] ? 1 : 0;
        ASSERT_EQ(recorded(*load[i]) - before[2 * i], load_points)
            << "node " << i << " at step " << step;
        ASSERT_EQ(recorded(*free[i]) - before[2 * i + 1], free_points)
            << "node " << i << " at step " << step;
        ASSERT_EQ(load[i]->points().back().v, now_load[i]) << "node " << i;
        ASSERT_EQ(free[i]->points().back().v, now_free[i]) << "node " << i;
      }
      prev_load = std::move(now_load);
      prev_free = std::move(now_free);
    }
  }
  ASSERT_FALSE(prev_load.empty()) << "the storm took no sample";
  if (dir) {
    EXPECT_TRUE(dir->validate().ok);
  }

  // Every cluster-wide point, bit for bit.
  for (const char* name : kClusterSeries) {
    const auto got = rec.series(name).points();
    const auto want = ref_rec.series(name).points();
    ASSERT_EQ(got.size(), want.size()) << name;
    ASSERT_EQ(got.size(), sampler.samples_taken()) << name;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(bits(got[k].t), bits(want[k].t)) << name << " point " << k;
      ASSERT_EQ(bits(got[k].v), bits(want[k].v))
          << name << " point " << k << ": " << got[k].v << " vs " << want[k].v;
    }
  }
}

TEST(ClusterSamplerDifferential, UniformRacks) {
  for (const bool with_dir : {false, true}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      run_differential(Topology::uniform(6, 5), seed, with_dir);
    }
  }
}

TEST(ClusterSamplerDifferential, MultiCloud) {
  for (const bool with_dir : {false, true}) {
    for (std::uint64_t seed : {4, 5}) {
      run_differential(Topology::multi_cloud(2, 3, 4), seed, with_dir);
    }
  }
}

TEST(ClusterSamplerDifferential, UnevenRacks) {
  // Racks of 1, 2, 4 and 7 nodes whose members interleave by node id.
  const Topology topo({3, 2, 3, 1, 3, 0, 3, 2, 3, 2, 3, 1, 2, 3},
                      {0, 0, 1, 1});
  for (const bool with_dir : {false, true}) {
    for (std::uint64_t seed : {6, 7, 8}) {
      run_differential(topo, seed, with_dir);
    }
  }
}

TEST(ClusterSampler, OneGrantAtTenThousandNodesWritesSixNodePoints) {
  const std::size_t n = 10000;
  Cloud cloud(Topology::uniform(250, 40), VmCatalog::ec2_default(),
              util::IntMatrix(n, 3, 2));
  obs::Recorder rec;
  rec.set_enabled(true);
  ClusterSampler sampler(cloud, rec);
  sampler.sample(0.0);

  Allocation a(n, 3);
  a.at(17, 0) = 1;
  a.at(4242, 1) = 2;
  a.at(9999, 2) = 1;
  cloud.grant(Request({1, 2, 1}), a);
  sampler.sample(1.0);

  std::size_t with_two = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const obs::Labels labels{{"node", std::to_string(i)}};
    const bool touched = i == 17 || i == 4242 || i == 9999;
    for (const char* name : {"cluster/node/load", "cluster/node/free"}) {
      const std::size_t points = rec.series(name, labels).size();
      ASSERT_EQ(points, touched ? 2u : 1u) << name << " node " << i;
      if (points == 2) ++with_two;
    }
  }
  EXPECT_EQ(with_two, 6u);
  EXPECT_EQ(
      rec.series("cluster/node/load", {{"node", "4242"}}).points().back().v, 2);
  EXPECT_EQ(rec.series("cluster/frag/free_vms").points().back().v,
            static_cast<double>(n * 6 - 4));
}

}  // namespace
}  // namespace vcopt::cluster
