// CellDirectory maintenance protocol: sketches mirror the cloud's effective
// free capacity exactly — at construction, and after storms of grants,
// releases, node failures/recoveries, drains, lease resizes and two-phase
// migrations — and validate() catches sketches that fell out of step, which
// rebuild() repairs.
#include "cell/directory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "cell/partition.h"
#include "cluster/cloud.h"
#include "cluster/topology.h"
#include "cluster/vm_type.h"
#include "placement/online_heuristic.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vcopt::cell {
namespace {

using cluster::Cloud;
using cluster::LeaseId;
using cluster::Request;
using cluster::Topology;
using cluster::VmCatalog;

Cloud make_cloud(std::uint64_t seed, std::size_t racks = 6,
                 std::size_t nodes_per_rack = 5) {
  const Topology topo = Topology::uniform(racks, nodes_per_rack);
  const VmCatalog catalog = VmCatalog::ec2_default();
  util::Rng rng(seed);
  util::IntMatrix cap = workload::random_inventory(topo, catalog, rng, 1, 4);
  return Cloud(topo, catalog, cap);
}

void expect_sketches_exact(const CellDirectory& dir, const Cloud& cloud,
                           const char* where) {
  const check::ValidationResult result = dir.validate();
  EXPECT_TRUE(result.ok) << where << ": " << result.message;
  // Spot-check the aggregates against a direct recomputation too, so the
  // test does not lean solely on the validator it is meant to exercise.
  for (std::size_t c = 0; c < dir.cell_count(); ++c) {
    const Cell& cl = dir.partition().cell(c);
    const CellSketch& sk = dir.sketch(c);
    for (std::size_t j = 0; j < cloud.type_count(); ++j) {
      long long total = 0;
      for (std::size_t n : cl.nodes) total += cloud.remaining_at(n, j);
      EXPECT_EQ(sk.free_total[j], total) << where << " cell " << c;
    }
  }
}

TEST(CellDirectory, InitialSketchesMatchGroundTruth) {
  Cloud cloud = make_cloud(3);
  CellPartitionOptions po;
  po.target_cells = 3;
  CellDirectory dir(cloud, po);
  expect_sketches_exact(dir, cloud, "initial");
}

TEST(CellDirectory, AdmitsIsExactFeasibility) {
  Cloud cloud = make_cloud(11);
  CellPartitionOptions po;
  po.target_cells = 4;
  CellDirectory dir(cloud, po);
  const util::IntMatrix remaining = cloud.remaining();
  util::Rng rng(5);
  placement::OnlineHeuristic flat;
  for (int i = 0; i < 40; ++i) {
    const Request r =
        workload::random_request(cloud.catalog(), rng, 0, 6, i + 1);
    for (std::size_t c = 0; c < dir.cell_count(); ++c) {
      const Cell& cl = dir.partition().cell(c);
      util::IntMatrix local(cl.nodes.size(), remaining.cols());
      for (std::size_t n = 0; n < cl.nodes.size(); ++n) {
        for (std::size_t j = 0; j < remaining.cols(); ++j) {
          local(n, j) = remaining(cl.nodes[n], j);
        }
      }
      const bool placed =
          flat.place(r, local, dir.partition().cell_topology(c)).has_value();
      // Algorithm 1's fill visits every cell node, so the sketch bound is
      // exact in both directions: admits <=> the cell can place the request.
      EXPECT_EQ(dir.sketch(c).admits(r), placed)
          << "cell " << c << " request " << r.describe();
    }
  }
}

TEST(CellDirectory, StormOfMutationsKeepsSketchesFresh) {
  Cloud cloud = make_cloud(29);
  CellPartitionOptions po;
  po.target_cells = 3;
  CellDirectory dir(cloud, po);
  placement::OnlineHeuristic heuristic;
  util::Rng rng(71);
  std::vector<LeaseId> live;
  std::vector<std::size_t> drained;
  std::vector<std::size_t> failed;

  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    switch (op) {
      case 0:
      case 1:
      case 2: {  // grant
        const Request r = workload::random_request(cloud.catalog(), rng, 0, 3,
                                                   static_cast<std::uint64_t>(step));
        auto placed = heuristic.place(r, cloud.remaining(), cloud.topology());
        if (placed) live.push_back(cloud.grant(r, placed->allocation));
        break;
      }
      case 3:
      case 4: {  // release
        if (live.empty()) break;
        const std::size_t k =
            static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
        cloud.release(live[k]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 5: {  // fail + repair-style shrink of the revoked slices
        const std::size_t node = static_cast<std::size_t>(
            rng.uniform_int(0, cloud.node_count() - 1));
        if (cloud.is_failed(node)) break;
        for (LeaseId id : cloud.fail_node(node)) {
          cloud.shrink_lease(id, cloud.lease_part_on_node(id, node));
        }
        failed.push_back(node);
        break;
      }
      case 6: {  // recover
        if (failed.empty()) break;
        cloud.recover_node(failed.back());
        failed.pop_back();
        break;
      }
      case 7: {  // drain
        const std::size_t node = static_cast<std::size_t>(
            rng.uniform_int(0, cloud.node_count() - 1));
        if (cloud.is_drained(node) || cloud.is_failed(node)) break;
        cloud.drain_node(node);
        drained.push_back(node);
        break;
      }
      case 8: {  // undrain
        if (drained.empty()) break;
        cloud.undrain_node(drained.back());
        drained.pop_back();
        break;
      }
      case 9: {  // two-phase migration, randomly committed or rolled back
        if (live.empty()) break;
        const LeaseId id =
            live[static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1))];
        if (!cloud.has_lease(id)) break;
        const auto& alloc = cloud.lease_allocation(id);
        std::optional<std::pair<std::size_t, std::size_t>> src;
        for (std::size_t n = 0; n < alloc.node_count() && !src; ++n) {
          for (std::size_t j = 0; j < alloc.type_count(); ++j) {
            if (alloc.at(n, j) > 0 && !cloud.is_failed(n)) {
              src = {n, j};
              break;
            }
          }
        }
        if (!src) break;
        const std::size_t to = static_cast<std::size_t>(
            rng.uniform_int(0, cloud.node_count() - 1));
        if (to == src->first || cloud.remaining_at(to, src->second) <= 0) break;
        const std::uint64_t ticket =
            cloud.begin_migration(id, src->first, to, src->second);
        if (ticket == 0) break;
        if (rng.uniform(0.0, 1.0) < 0.5) {
          cloud.commit_migration(ticket);
        } else {
          cloud.rollback_migration(ticket);
        }
        break;
      }
    }
    if (step % 25 == 24) expect_sketches_exact(dir, cloud, "mid-storm");
  }
  expect_sketches_exact(dir, cloud, "post-storm");
}

TEST(CellDirectory, ValidateDetectsTampering) {
  Cloud cloud = make_cloud(13);
  CellPartitionOptions po;
  po.target_cells = 2;
  CellDirectory dir(cloud, po);
  ASSERT_TRUE(dir.validate().ok);
  // Mutate the cloud behind the directory's back by detaching the listener:
  // the sketches are now stale, and the validator must say so.
  cloud.set_capacity_listener(nullptr);
  placement::OnlineHeuristic heuristic;
  const Request r({1, 0, 0}, 1);
  auto placed = heuristic.place(r, cloud.remaining(), cloud.topology());
  ASSERT_TRUE(placed.has_value());
  cloud.grant(r, placed->allocation);
  EXPECT_FALSE(dir.validate().ok);
  // rebuild() resynchronises from ground truth.
  dir.rebuild();
  EXPECT_TRUE(dir.validate().ok);
}

}  // namespace
}  // namespace vcopt::cell
