#include "cluster/cloud.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cell/directory.h"
#include "cell/partition.h"
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

// The lease's DC record is Definition 1 of its current allocation, bit for
// bit, and its minimum never rises.  Returns the record.
LeaseDc expect_current_dc(const Cloud& cloud, LeaseId id, double prev_min) {
  const CentralNode c =
      cloud.lease_allocation(id).best_central(cloud.topology());
  const LeaseDc dc = cloud.lease_dc(id);
  EXPECT_EQ(dc.central, c.node);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dc.last),
            std::bit_cast<std::uint64_t>(c.distance));
  EXPECT_LE(dc.min, prev_min);
  return dc;
}

TEST(Cloud, ConstructionValidation) {
  EXPECT_THROW(Cloud(Topology::uniform(2, 2), VmCatalog::ec2_default(),
                     util::IntMatrix(3, 3, 1)),
               std::invalid_argument);
  EXPECT_THROW(Cloud(Topology::uniform(2, 2), VmCatalog::ec2_default(),
                     util::IntMatrix(4, 2, 1)),
               std::invalid_argument);
}

TEST(Cloud, GrantAndRelease) {
  Cloud cloud = make_cloud();
  Request r({1, 1, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 1;
  const LeaseId id = cloud.grant(r, a);
  EXPECT_TRUE(cloud.has_lease(id));
  EXPECT_EQ(cloud.lease_count(), 1u);
  EXPECT_EQ(cloud.remaining()(0, 0), 1);
  EXPECT_EQ(cloud.lease_allocation(id).total_vms(), 2);
  cloud.release(id);
  EXPECT_FALSE(cloud.has_lease(id));
  EXPECT_EQ(cloud.remaining()(0, 0), 2);
}

TEST(Cloud, GrantRequiresSatisfyingAllocation) {
  Cloud cloud = make_cloud();
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;  // only 1 of the 2 requested
  EXPECT_THROW(cloud.grant(r, a), std::invalid_argument);
}

TEST(Cloud, GrantRequiresCapacity) {
  Cloud cloud = make_cloud();
  Request r({3, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 3;  // node 0 only has 2 smalls
  EXPECT_THROW(cloud.grant(r, a), std::invalid_argument);
}

TEST(Cloud, ReleaseUnknownLeaseThrows) {
  Cloud cloud = make_cloud();
  EXPECT_THROW(cloud.release(99), std::invalid_argument);
  EXPECT_THROW(cloud.lease_allocation(99), std::invalid_argument);
  EXPECT_THROW(cloud.lease_dc(99), std::invalid_argument);
}

TEST(Cloud, LeaseDcFollowsEveryAllocationChange) {
  Cloud cloud = make_cloud();
  // Two VMs on node 0 and one on node 1, same rack: DC 1.
  Request r({3, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 2;
  a.at(1, 0) = 1;
  const LeaseId id = cloud.grant(r, a);
  LeaseDc dc = expect_current_dc(cloud, id, 1.0);
  EXPECT_EQ(dc.last, 1.0);
  EXPECT_EQ(dc.min, 1.0);

  // Migrating the node-1 VM across racks loosens the lease: DC 2, min 1.
  ASSERT_TRUE(cloud.commit_migration(cloud.begin_migration(id, 1, 2, 0)));
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.last, 2.0);
  EXPECT_EQ(dc.min, 1.0);

  // Growing by one VM on node 3 (rack 1): DC 4 from central node 0.
  Allocation extra(4, 3);
  extra.at(3, 0) = 1;
  cloud.grow_lease(id, extra);
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.central, 0u);
  EXPECT_EQ(dc.last, 4.0);
  EXPECT_EQ(dc.min, 1.0);

  // Shrinking the rack-1 VMs away leaves both VMs on node 0: DC 0.
  Allocation lost(4, 3);
  lost.at(2, 0) = 1;
  lost.at(3, 0) = 1;
  cloud.shrink_lease(id, lost);
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.last, 0.0);
  EXPECT_EQ(dc.min, 0.0);

  // Growing back across racks raises `last` but not `min`.
  cloud.grow_lease(id, extra);
  dc = expect_current_dc(cloud, id, dc.min);
  EXPECT_EQ(dc.last, 2.0);
  EXPECT_EQ(dc.min, 0.0);

  cloud.release(id);
  EXPECT_THROW(cloud.lease_dc(id), std::invalid_argument);
}

TEST(Cloud, LeaseShrunkToZeroKeepsItsMinimum) {
  Cloud cloud = make_cloud();
  // One VM on each rack: DC 2.
  Request r({2, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(2, 0) = 1;
  const LeaseId id = cloud.grant(r, a);
  cloud.shrink_lease(id, a);
  const LeaseDc dc = expect_current_dc(cloud, id, 2.0);
  EXPECT_EQ(dc.last, 0.0);
  EXPECT_EQ(dc.min, 2.0);  // an empty allocation has no DC to compare with
}

TEST(Cloud, LeaseIdsAreUnique) {
  Cloud cloud = make_cloud();
  Request r({1, 0, 0});
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  const LeaseId id1 = cloud.grant(r, a);
  Allocation b(4, 3);
  b.at(1, 0) = 1;
  const LeaseId id2 = cloud.grant(r, b);
  EXPECT_NE(id1, id2);
  cloud.release(id1);
  // Releasing id1 must not disturb id2's resources.
  EXPECT_EQ(cloud.remaining()(1, 0), 1);
}

TEST(Cloud, AdmitDelegatesToInventory) {
  Cloud cloud = make_cloud();
  EXPECT_EQ(cloud.admit(Request({8, 0, 0})), Admission::kAccept);
  EXPECT_EQ(cloud.admit(Request({9, 0, 0})), Admission::kReject);
}

TEST(Cloud, ChangeStampsMarkTouchedNodesAndRacks) {
  Cloud cloud = make_cloud();  // racks {0, 1} and {2, 3}
  EXPECT_EQ(cloud.change_stamp(), 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(cloud.node_stamp(i), 0u);

  // Stamps are written with no listener set.
  Allocation a(4, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 1;
  a.at(2, 0) = 1;
  const LeaseId id = cloud.grant(Request({2, 1, 0}), a);
  const std::uint64_t s1 = cloud.change_stamp();
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(cloud.node_stamp(0), s1);
  EXPECT_EQ(cloud.node_stamp(1), 0u);
  EXPECT_EQ(cloud.node_stamp(2), s1);
  EXPECT_EQ(cloud.rack_stamp(0), s1);
  EXPECT_EQ(cloud.rack_stamp(1), s1);

  cloud.drain_node(3);
  const std::uint64_t s2 = cloud.change_stamp();
  EXPECT_GT(s2, s1);
  EXPECT_EQ(cloud.node_stamp(3), s2);
  EXPECT_EQ(cloud.rack_stamp(1), s2);
  EXPECT_EQ(cloud.rack_stamp(0), s1);
  EXPECT_EQ(cloud.node_stamp(2), s1);

  // A migration stamps its destination at begin and both ends at commit.
  const std::uint64_t ticket = cloud.begin_migration(id, 0, 1, 0);
  ASSERT_NE(ticket, 0u);
  const std::uint64_t s3 = cloud.change_stamp();
  EXPECT_EQ(cloud.node_stamp(1), s3);
  EXPECT_EQ(cloud.node_stamp(0), s1);
  ASSERT_TRUE(cloud.commit_migration(ticket));
  const std::uint64_t s4 = cloud.change_stamp();
  EXPECT_EQ(cloud.node_stamp(0), s4);
  EXPECT_EQ(cloud.node_stamp(1), s4);
  EXPECT_EQ(cloud.rack_stamp(1), s2);

  cloud.release(id);
  EXPECT_GT(cloud.change_stamp(), s4);
  EXPECT_EQ(cloud.node_stamp(3), s2);
  EXPECT_THROW(cloud.node_stamp(4), std::out_of_range);
  EXPECT_THROW(cloud.rack_stamp(2), std::out_of_range);
}

// --- the maintained free view against the books ---------------------------

/// A migration the storm began and has not ended: its reserved slot.
struct Reservation {
  std::size_t to = 0;
  std::size_t type = 0;
};

/// remaining() recomputed from what the test can see: the inventory's
/// M − C (zero on failed or drained nodes) less the reservations the test
/// holds, clamped at zero.
util::IntMatrix recomputed_free(
    const Cloud& cloud, const std::map<std::uint64_t, Reservation>& held) {
  util::IntMatrix reserved(cloud.node_count(), cloud.type_count());
  for (const auto& [ticket, r] : held) reserved(r.to, r.type) += 1;
  util::IntMatrix want = cloud.inventory().remaining();
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      want(i, j) = std::max(0, want(i, j) - reserved(i, j));
    }
  }
  return want;
}

/// remaining() equals the recomputation cell for cell, and its row and
/// column sums equal freshly computed ones.
void expect_free_view(const Cloud& cloud,
                      const std::map<std::uint64_t, Reservation>& held,
                      const std::string& where) {
  const util::IntMatrix got = cloud.remaining();
  ASSERT_EQ(got, recomputed_free(cloud, held)) << where;
  std::vector<int> col(got.cols(), 0);
  for (std::size_t i = 0; i < got.rows(); ++i) {
    int row = 0;
    for (std::size_t j = 0; j < got.cols(); ++j) {
      row += got.data()[i * got.cols() + j];
      col[j] += got.data()[i * got.cols() + j];
    }
    ASSERT_EQ(got.row_sum(i), row) << where << ": row " << i;
  }
  for (std::size_t j = 0; j < got.cols(); ++j) {
    ASSERT_EQ(got.col_sum(j), col[j]) << where << ": column " << j;
  }
}

/// Begins moving one VM of `lease` to `to`; records the reservation.
std::uint64_t begin_move(Cloud& cloud, LeaseId lease, std::size_t to,
                         std::map<std::uint64_t, Reservation>& held) {
  for (const Allocation::Entry& e : cloud.lease_allocation(lease).entries()) {
    if (e.node == to) continue;
    const std::uint64_t ticket = cloud.begin_migration(lease, e.node, to, e.type);
    if (ticket != 0) {
      held[ticket] = Reservation{to, e.type};
      return ticket;
    }
  }
  return 0;
}

/// The free-vector class index against one rebuilt from remaining(), and
/// against what the test computes itself: every node sits, once, in the
/// class whose free row is its row; members ascend; the non-empty list
/// names exactly the classes with members; the rack and cloud sums are
/// the view's.
void expect_free_index(const Cloud& cloud,
                       const std::map<std::uint64_t, Reservation>&,
                       const std::string& where) {
  const util::IntMatrix free = cloud.remaining();
  const FreeIndex& index = cloud.free_index();
  const Topology& topo = cloud.topology();
  const std::size_t m = cloud.type_count();
  ASSERT_TRUE(index.same_state(
      FreeIndex(topo, cloud.inventory().max_capacity(), free)))
      << where;
  std::vector<int> racks(topo.rack_count() * m, 0);
  std::vector<int> clouds(topo.cloud_count() * m, 0);
  for (std::size_t i = 0; i < cloud.node_count(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      racks[topo.rack_of(i) * m + j] += free(i, j);
      clouds[topo.cloud_of(i) * m + j] += free(i, j);
    }
  }
  ASSERT_EQ(index.rack_sums(), racks) << where;
  ASSERT_EQ(index.cloud_sums(), clouds) << where;
  ASSERT_TRUE(index.has_classes()) << where;
  std::vector<std::uint32_t> listed = index.nonempty();
  std::sort(listed.begin(), listed.end());
  ASSERT_EQ(std::adjacent_find(listed.begin(), listed.end()), listed.end())
      << where;
  std::size_t members = 0;
  for (const std::uint32_t c : listed) {
    std::size_t in = 0;
    for (std::size_t x = index.next_member(c, 0); x < cloud.node_count();
         x = index.next_member(c, x + 1)) {
      ASSERT_EQ(index.class_of(x), c) << where;
      ++in;
    }
    ASSERT_GT(in, 0u) << where << ": class " << c;
    ASSERT_EQ(in, index.member_count(c)) << where << ": class " << c;
    members += in;
  }
  ASSERT_EQ(members, cloud.node_count()) << where;
  for (std::size_t i = 0; i < cloud.node_count(); ++i) {
    const int* row = index.class_free(index.class_of(i));
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(row[j], free(i, j)) << where << ": node " << i;
    }
  }
}

using StormCheck = std::function<void(
    const Cloud&, const std::map<std::uint64_t, Reservation>&,
    const std::string&)>;

/// Seeded storms of every capacity mutation the cloud offers, with the
/// clamp's cases scripted in: a failed node holding a reservation, a commit
/// whose destination failed or drained (it rolls back), and a reservation
/// that outlives a fail/recover and then commits.  `expect_state` runs
/// after every step.
void run_capacity_storm(const Topology& topo, std::uint64_t seed,
                        bool directory_holds_listener,
                        const StormCheck& expect_state) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (directory_holds_listener ? ", cell directory" : ""));
  const VmCatalog catalog = VmCatalog::ec2_default();
  util::Rng rng(seed);
  Cloud cloud(topo, catalog,
              workload::random_inventory(topo, catalog, rng, 1, 4));
  std::unique_ptr<cell::CellDirectory> dir;
  if (directory_holds_listener) {
    cell::CellPartitionOptions po;
    po.target_cells = 3;
    dir = std::make_unique<cell::CellDirectory>(cloud, po);
  }
  std::map<std::uint64_t, Reservation> held;
  std::vector<LeaseId> live;
  std::vector<std::size_t> failed;
  placement::OnlineHeuristic heuristic;
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto grant_one = [&](int step) {
    const Request r = workload::random_request(
        catalog, rng, 0, 3, static_cast<std::uint64_t>(step));
    if (r.empty()) return;
    if (auto p = heuristic.place(r, cloud.capacity_view(), cloud.topology())) {
      live.push_back(cloud.grant(r, p->allocation));
    }
  };
  const auto end_move = [&](std::uint64_t ticket, bool commit) {
    held.erase(ticket);
    if (commit) {
      cloud.commit_migration(ticket);  // rolls back if the world moved
    } else {
      cloud.rollback_migration(ticket);
    }
  };

  // Begins a migration of `lease` to the first node from a random start
  // that takes it; sets `to`.
  const auto begin_somewhere = [&](LeaseId lease, std::size_t& to) {
    const std::size_t start = pick(cloud.node_count());
    for (std::size_t k = 0; k < cloud.node_count(); ++k) {
      to = (start + k) % cloud.node_count();
      if (const std::uint64_t t = begin_move(cloud, lease, to, held)) return t;
    }
    return std::uint64_t{0};
  };

  expect_state(cloud, held, "fresh");
  for (int step = 0; step < 12; ++step) grant_one(step);
  ASSERT_GE(live.size(), 2u);
  expect_state(cloud, held, "granted");

  // A failed destination keeps its reservation: the view clamps at zero,
  // and a commit rolls back.
  std::size_t to = 0;
  std::uint64_t t = begin_somewhere(live.front(), to);
  ASSERT_NE(t, 0u);
  cloud.fail_node(to);
  expect_state(cloud, held, "reserved node failed");
  end_move(t, true);
  expect_state(cloud, held, "commit after destination failed");
  cloud.recover_node(to);
  expect_state(cloud, held, "recovered");
  // A drained destination rolls the commit back too.
  t = begin_somewhere(live.back(), to);
  ASSERT_NE(t, 0u);
  cloud.drain_node(to);
  expect_state(cloud, held, "reserved node drained");
  end_move(t, true);
  expect_state(cloud, held, "commit after destination drained");
  cloud.undrain_node(to);
  expect_state(cloud, held, "undrained");
  // A reservation that outlives its node's fail and recover commits.
  t = begin_somewhere(live.front(), to);
  ASSERT_NE(t, 0u);
  cloud.fail_node(to);
  cloud.recover_node(to);
  expect_state(cloud, held, "reservation survived a failure");
  ASSERT_TRUE(cloud.commit_migration(t));
  held.erase(t);
  expect_state(cloud, held, "commit after recovery");

  for (int step = 0; step < 300; ++step) {
    const std::string where = "step " + std::to_string(step);
    switch (rng.uniform_int(0, 10)) {
      case 0:
      case 1:
        grant_one(step);
        break;
      case 2: {  // release
        if (live.empty()) break;
        const std::size_t k = pick(live.size());
        cloud.release(live[k]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 3: {  // shrink one VM off a lease
        if (live.empty()) break;
        const LeaseId id = live[pick(live.size())];
        const auto& entries = cloud.lease_allocation(id).entries();
        if (entries.empty()) break;
        const Allocation::Entry e = entries[pick(entries.size())];
        Allocation lost(cloud.node_count(), cloud.type_count());
        lost.add(e.node, e.type, 1);
        cloud.shrink_lease(id, lost);
        break;
      }
      case 4: {  // grow a lease by one VM on a free slot
        if (live.empty()) break;
        const std::size_t node = pick(cloud.node_count());
        const std::size_t type = pick(cloud.type_count());
        if (cloud.remaining_at(node, type) <= 0) break;
        Allocation extra(cloud.node_count(), cloud.type_count());
        extra.add(node, type, 1);
        cloud.grow_lease(live[pick(live.size())], extra);
        break;
      }
      case 5: {  // fail, shrinking some revoked slices as a repair would
        const std::size_t node = pick(cloud.node_count());
        if (cloud.is_failed(node)) break;
        for (const LeaseId id : cloud.fail_node(node)) {
          if (rng.bernoulli(0.5)) {
            cloud.shrink_lease(id, cloud.lease_part_on_node(id, node));
          }
        }
        failed.push_back(node);
        break;
      }
      case 6:  // recover
        if (failed.empty()) break;
        cloud.recover_node(failed.back());
        failed.pop_back();
        break;
      case 7: {  // drain or undrain
        const std::size_t node = pick(cloud.node_count());
        if (cloud.is_drained(node)) {
          cloud.undrain_node(node);
        } else {
          cloud.drain_node(node);
        }
        break;
      }
      case 8: {  // begin a migration
        if (live.empty()) break;
        begin_move(cloud, live[pick(live.size())], pick(cloud.node_count()),
                   held);
        break;
      }
      default: {  // commit or roll back one begun earlier
        if (held.empty()) break;
        auto it = held.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick(held.size())));
        end_move(it->first, rng.bernoulli(0.6));
        break;
      }
    }
    expect_state(cloud, held, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (dir) {
    EXPECT_TRUE(dir->validate().ok);
  }
}

TEST(CloudFreeView, StormOnUniformRacks) {
  for (const bool with_dir : {false, true}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      run_capacity_storm(Topology::uniform(5, 4), seed, with_dir,
                         expect_free_view);
    }
  }
}

// Racks of 1, 2, 4 and 7 nodes whose members interleave by node id.
Topology uneven_racks() {
  return Topology({3, 2, 3, 1, 3, 0, 3, 2, 3, 2, 3, 1, 2, 3}, {0, 0, 1, 1});
}

TEST(CloudFreeView, StormOnMultiCloudAndUnevenRacks) {
  for (const bool with_dir : {false, true}) {
    run_capacity_storm(Topology::multi_cloud(2, 3, 3), 4, with_dir,
                       expect_free_view);
    run_capacity_storm(uneven_racks(), 5, with_dir, expect_free_view);
  }
}

// The same storms against the free-vector class index: each helper that
// writes the free view must move its touched nodes between classes and
// its cells into the rack and cloud sums.
TEST(CloudFreeIndex, StormOnUniformRacks) {
  for (const bool with_dir : {false, true}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      run_capacity_storm(Topology::uniform(5, 4), seed, with_dir,
                         expect_free_index);
    }
  }
}

TEST(CloudFreeIndex, StormOnMultiCloudAndUnevenRacks) {
  for (const bool with_dir : {false, true}) {
    run_capacity_storm(Topology::multi_cloud(2, 3, 3), 4, with_dir,
                       expect_free_index);
    run_capacity_storm(uneven_racks(), 5, with_dir, expect_free_index);
  }
}

// Class ids are mixed-radix over max_i M_ij + 1 per type, and a shape with
// more ids than the bound keeps its sums but no classes.
TEST(CloudFreeIndex, ClassIdsAndTheBound) {
  const Topology topo = Topology::uniform(2, 2);
  const util::IntMatrix caps{{4, 0, 2}, {1, 3, 2}, {0, 0, 0}, {2, 1, 1}};
  const Cloud cloud(topo, VmCatalog::ec2_default(), caps);
  const FreeIndex& index = cloud.free_index();
  ASSERT_TRUE(index.has_classes());
  // Radices 5, 4, 3: node 1's row (1, 3, 2) is 1 + 3·5 + 2·20.
  EXPECT_EQ(index.class_of(1), 1u + 3u * 5u + 2u * 20u);
  EXPECT_EQ(index.class_of(2), 0u);
  EXPECT_EQ(index.next_member(0, 0), 2u);
  EXPECT_EQ(index.next_member(0, 3), 4u);  // none above: node_count()
  EXPECT_EQ(index.member_count(0), 1u);
  EXPECT_EQ(index.nonempty().size(), 4u);
  EXPECT_EQ(std::vector<int>(index.rack_free(1), index.rack_free(1) + 3),
            (std::vector<int>{2, 1, 1}));

  // 16 · 16 · 17 = 4352 ids: above FreeIndex::kMaxClasses.
  const util::IntMatrix wide{{15, 0, 0}, {0, 15, 0}, {0, 0, 16}, {1, 1, 1}};
  const Cloud big(topo, VmCatalog::ec2_default(), wide);
  EXPECT_FALSE(big.free_index().has_classes());
  EXPECT_EQ(big.free_index().cloud_sums(), (std::vector<int>{16, 16, 17}));
}

// Members are a bitset with a summary bit per 64-node word: a walk must
// cross words and summary words, both ways as nodes move.  5,000 nodes make
// 79 words and 2 summary words.
TEST(CloudFreeIndex, MembersAcrossWordsAndSummaryWords) {
  const Topology topo = Topology::uniform(125, 40);
  util::IntMatrix caps(topo.node_count(), 3);
  const std::vector<std::size_t> ones = {0, 63, 64, 127, 4095, 4096, 4999};
  for (const std::size_t i : ones) caps(i, 0) = 1;
  Cloud cloud(topo, VmCatalog::ec2_default(), caps);
  const FreeIndex& index = cloud.free_index();
  // Class 1 is the row (1, 0, 0).
  const auto members = [&] {
    std::vector<std::size_t> out;
    for (std::size_t x = index.next_member(1, 0); x < cloud.node_count();
         x = index.next_member(1, x + 1)) {
      out.push_back(x);
    }
    return out;
  };
  EXPECT_EQ(members(), ones);
  EXPECT_EQ(index.next_member(1, 65), 127u);
  EXPECT_EQ(index.next_member(1, 128), 4095u);
  EXPECT_EQ(index.next_member(1, 5000), 5000u);
  EXPECT_EQ(index.member_count(0), cloud.node_count() - ones.size());
  // Emptying a word (127) and a summary word's only words (4095, 4096 sit
  // in words 63 and 64, under summary words 0 and 1) keeps the walk exact.
  const Request one({1, 0, 0});
  std::vector<LeaseId> leases;
  for (const std::size_t i : {std::size_t{127}, std::size_t{4095},
                              std::size_t{4096}}) {
    Allocation a(cloud.node_count(), 3);
    a.add(i, 0, 1);
    leases.push_back(cloud.grant(one, a));
  }
  EXPECT_EQ(members(), (std::vector<std::size_t>{0, 63, 64, 4999}));
  EXPECT_EQ(index.next_member(1, 65), 4999u);
  cloud.release(leases[1]);
  EXPECT_EQ(members(), (std::vector<std::size_t>{0, 63, 64, 4095, 4999}));
  EXPECT_TRUE(index.same_state(FreeIndex(topo, cloud.inventory().max_capacity(),
                                         cloud.remaining())));
}

TEST(Cloud, Describe) {
  Cloud cloud = make_cloud();
  const std::string d = cloud.describe();
  EXPECT_NE(d.find("2 racks"), std::string::npos);
  EXPECT_NE(d.find("0 active leases"), std::string::npos);
}

}  // namespace
}  // namespace vcopt::cluster
