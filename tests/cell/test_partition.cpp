// Partition invariants: cells are rack-aligned and cover every node exactly
// once, the single-cell partition is the identity map, index maps
// round-trip, intra-cell distances equal the global ones, and the per-cell
// capacity column sums / scatter-back are exact.
#include "cell/partition.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/topology.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace vcopt::cell {
namespace {

using cluster::Topology;

TEST(CellPartition, CoversEveryNodeExactlyOnceRackAligned) {
  const Topology topo = Topology::uniform(6, 5);
  CellPartitionOptions po;
  po.target_cells = 3;
  const CellPartition part(topo, po);
  ASSERT_GE(part.cell_count(), 1u);
  std::vector<int> seen(topo.node_count(), 0);
  for (const Cell& c : part.cells()) {
    for (std::size_t n : c.nodes) {
      ++seen[n];
      EXPECT_EQ(part.cell_of_node(n), c.id);
      EXPECT_EQ(c.nodes[part.local_index(n)], n);
    }
    // Racks are never split: every node of a listed rack lives in this cell.
    for (std::size_t r : c.racks) {
      for (std::size_t n : topo.nodes_in_rack(r)) {
        EXPECT_EQ(part.cell_of_node(n), c.id);
      }
      EXPECT_EQ(c.racks[part.local_rack(r)], r);
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(CellPartition, SingleCellIsTheIdentity) {
  const Topology topo = Topology::uniform(3, 10);
  CellPartitionOptions po;
  po.target_cells = 1;
  const CellPartition part(topo, po);
  ASSERT_EQ(part.cell_count(), 1u);
  const Cell& c = part.cell(0);
  ASSERT_EQ(c.nodes.size(), topo.node_count());
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    EXPECT_EQ(c.nodes[n], n);
    EXPECT_EQ(part.local_index(n), n);
  }
  for (std::size_t r = 0; r < topo.rack_count(); ++r) {
    EXPECT_EQ(c.racks[r], r);
  }
  EXPECT_EQ(part.cell_topology(0).node_count(), topo.node_count());
}

TEST(CellPartition, CellSizeKnobBoundsCellsFromBelow) {
  const Topology topo = Topology::uniform(8, 4);  // 32 nodes
  CellPartitionOptions po;
  po.cell_size = 10;
  const CellPartition part(topo, po);
  // A cell closes once it reaches the target, so every cell except possibly
  // the last holds at least cell_size nodes.
  for (std::size_t c = 0; c + 1 < part.cell_count(); ++c) {
    EXPECT_GE(part.cell(c).nodes.size(), 10u);
  }
}

TEST(CellPartition, IntraCellDistancesEqualGlobalOnes) {
  const Topology topo = Topology::uniform(6, 4);
  CellPartitionOptions po;
  po.target_cells = 3;
  const CellPartition part(topo, po);
  for (const Cell& c : part.cells()) {
    const Topology& local = part.cell_topology(c.id);
    ASSERT_EQ(local.node_count(), c.nodes.size());
    for (std::size_t a = 0; a < c.nodes.size(); ++a) {
      for (std::size_t b = 0; b < c.nodes.size(); ++b) {
        EXPECT_DOUBLE_EQ(local.distance(a, b),
                         topo.distance(c.nodes[a], c.nodes[b]))
            << "cell " << c.id << " local pair (" << a << "," << b << ")";
      }
    }
  }
}

TEST(CellPartition, CapacityColSumsMatchBruteForce) {
  const Topology topo = Topology::uniform(5, 3);
  CellPartitionOptions po;
  po.target_cells = 2;
  const CellPartition part(topo, po);
  util::Rng rng(17);
  util::IntMatrix cap(topo.node_count(), 3);
  for (std::size_t i = 0; i < cap.rows(); ++i) {
    for (std::size_t j = 0; j < cap.cols(); ++j) {
      cap(i, j) = static_cast<int>(rng.uniform_int(0, 5));
    }
  }
  for (const Cell& c : part.cells()) {
    const std::vector<int> sums = part.cell_capacity_col_sums(c.id, cap);
    ASSERT_EQ(sums.size(), cap.cols());
    for (std::size_t j = 0; j < cap.cols(); ++j) {
      int expect = 0;
      for (std::size_t n : c.nodes) expect += cap(n, j);
      EXPECT_EQ(sums[j], expect) << "cell " << c.id << " type " << j;
    }
  }
}

TEST(CellPartition, ToGlobalScattersLocalRowsBack) {
  const Topology topo = Topology::uniform(4, 3);
  CellPartitionOptions po;
  po.target_cells = 2;
  const CellPartition part(topo, po);
  const Cell& c = part.cell(part.cell_count() - 1);
  cluster::Allocation local(c.nodes.size(), 2);
  for (std::size_t i = 0; i < local.node_count(); ++i) {
    local.at(i, 0) = static_cast<int>(i + 1);
    local.at(i, 1) = 7;
  }
  const cluster::Allocation global =
      part.to_global(c.id, local, topo.node_count());
  ASSERT_EQ(global.node_count(), topo.node_count());
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    if (part.cell_of_node(n) == c.id) {
      EXPECT_EQ(global.at(n, 0), static_cast<int>(part.local_index(n) + 1));
      EXPECT_EQ(global.at(n, 1), 7);
    } else {
      EXPECT_EQ(global.at(n, 0), 0);
      EXPECT_EQ(global.at(n, 1), 0);
    }
  }
}

TEST(CellPartition, ToGlobalKeepsEntriesSorted) {
  // Racks of a hand-built topology interleave their node ids, so a cell's
  // nodes are not one contiguous id range; relabelling must still leave the
  // entries sorted by (node, type), as Allocation requires.
  const Topology topo({0, 1, 0, 1, 2, 2, 0, 1}, {0, 0, 0},
                      cluster::DistanceConfig{});
  CellPartitionOptions po;
  po.cell_size = 2;
  const CellPartition part(topo, po);
  ASSERT_GT(part.cell_count(), 1u);
  for (const Cell& c : part.cells()) {
    cluster::Allocation local(c.nodes.size(), 3);
    for (std::size_t i = 0; i < local.node_count(); ++i) {
      local.at(i, (i * 2) % 3) = static_cast<int>(i + 1);
      local.at(i, 1) += 2;
    }
    const cluster::Allocation global =
        part.to_global(c.id, local, topo.node_count());
    ASSERT_EQ(global.entries().size(), local.entries().size());
    for (std::size_t e = 0; e < global.entries().size(); ++e) {
      const cluster::Allocation::Entry& g = global.entries()[e];
      const cluster::Allocation::Entry& l = local.entries()[e];
      EXPECT_EQ(g.node, c.nodes[l.node]);
      EXPECT_EQ(g.type, l.type);
      EXPECT_EQ(g.count, l.count);
      if (e > 0) {
        const cluster::Allocation::Entry& p = global.entries()[e - 1];
        EXPECT_TRUE(p.node < g.node || (p.node == g.node && p.type < g.type))
            << "cell " << c.id << " entry " << e;
      }
    }
    EXPECT_EQ(global.total_vms(), local.total_vms());
  }
}

TEST(CellPartition, PartitionIsDeterministic) {
  const Topology topo = Topology::uniform(7, 6);
  CellPartitionOptions po;
  po.target_cells = 4;
  const CellPartition a(topo, po);
  const CellPartition b(topo, po);
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t c = 0; c < a.cell_count(); ++c) {
    EXPECT_EQ(a.cell(c).nodes, b.cell(c).nodes);
    EXPECT_EQ(a.cell(c).racks, b.cell(c).racks);
  }
  EXPECT_EQ(a.describe(), b.describe());
}

}  // namespace
}  // namespace vcopt::cell
