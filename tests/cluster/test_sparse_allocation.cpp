// The sparse Allocation against a dense reference.  Seeded sequences of
// add() calls and write-proxy writes (`a.at(i, j) = v`, `+=`, `-=`) run on
// shapes from 1x1 to 2000x3; after every step each query must agree with the
// same query computed from an n x m matrix, bit for bit where it returns a
// double, and Definition 1 must agree with a brute force over all n nodes.
// Also pins the entry invariants, the strong guarantee of add(), and the
// per-lease storage bound on a 100k-node shape.
#include "cluster/allocation.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "util/rng.h"

namespace vcopt::cluster {
namespace {

// The dense model each query is checked against: plain loops over every
// node and type, in ascending order.
struct Dense {
  util::IntMatrix c;

  int on_node(std::size_t i) const {
    int s = 0;
    for (std::size_t j = 0; j < c.cols(); ++j) s += c(i, j);
    return s;
  }
  int of_type(std::size_t j) const {
    int s = 0;
    for (std::size_t i = 0; i < c.rows(); ++i) s += c(i, j);
    return s;
  }
  int total() const {
    int s = 0;
    for (std::size_t j = 0; j < c.cols(); ++j) s += of_type(j);
    return s;
  }
  std::vector<std::size_t> used() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < c.rows(); ++i) {
      if (on_node(i) > 0) out.push_back(i);
    }
    return out;
  }
  double distance_from(std::size_t k, const Topology& topology) const {
    double sum = 0;
    for (std::size_t i = 0; i < c.rows(); ++i) {
      const int vms = on_node(i);
      if (vms > 0) sum += static_cast<double>(vms) * topology.distance(i, k);
    }
    return sum;
  }
  // Definition 1 with every node of the shape a candidate central, lowest
  // index on ties; each candidate's sum skips the nodes without VMs, as
  // distance_from does.
  CentralNode best_central(const Topology& topology) const {
    const std::vector<std::size_t> nodes = used();
    CentralNode best{0, std::numeric_limits<double>::infinity()};
    for (std::size_t k = 0; k < c.rows(); ++k) {
      double sum = 0;
      for (std::size_t i : nodes) {
        sum += static_cast<double>(on_node(i)) * topology.distance(i, k);
      }
      if (sum < best.distance) best = {k, sum};
    }
    return best;
  }
  std::string describe() const {
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (std::size_t i = 0; i < c.rows(); ++i) {
      if (on_node(i) == 0) continue;
      os << (first ? "" : ", ") << "N" << i << ":(";
      first = false;
      for (std::size_t j = 0; j < c.cols(); ++j) {
        os << (j ? "," : "") << c(i, j);
      }
      os << ")";
    }
    os << "}";
    return os.str();
  }
};

void expect_matches(const Allocation& a, const Dense& d,
                    const Topology& topology, util::Rng& rng,
                    const std::string& what) {
  const std::size_t n = d.c.rows();
  const std::size_t m = d.c.cols();
  ASSERT_EQ(a.node_count(), n) << what;
  ASSERT_EQ(a.type_count(), m) << what;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(a.at(i, j), d.c(i, j)) << what << " cell " << i << "," << j;
    }
    ASSERT_EQ(a.vms_on_node(i), d.on_node(i)) << what << " node " << i;
  }
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(a.vms_of_type(j), d.of_type(j)) << what << " type " << j;
  }
  EXPECT_EQ(a.total_vms(), d.total()) << what;
  EXPECT_EQ(a.empty_allocation(), d.total() == 0) << what;
  EXPECT_EQ(a.used_nodes(), d.used()) << what;

  // Entries: sorted by (node, type), no zero count, one per nonzero cell.
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) nonzero += d.c(i, j) != 0;
  }
  const std::vector<Allocation::Entry>& es = a.entries();
  EXPECT_EQ(es.size(), nonzero) << what;
  for (std::size_t e = 0; e < es.size(); ++e) {
    EXPECT_GT(es[e].count, 0) << what << " entry " << e;
    if (e > 0) {
      EXPECT_TRUE(es[e - 1].node < es[e].node ||
                  (es[e - 1].node == es[e].node && es[e - 1].type < es[e].type))
          << what << " entries out of order at " << e;
    }
  }

  // Definition 1 and the forced-central distance, bitwise.
  const CentralNode sparse = a.best_central(topology);
  const CentralNode brute = d.best_central(topology);
  EXPECT_EQ(sparse.node, brute.node) << what << " " << a.describe();
  EXPECT_EQ(sparse.distance, brute.distance) << what << " " << a.describe();
  const auto k = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  EXPECT_EQ(a.distance_from(k, topology), d.distance_from(k, topology))
      << what << " central " << k;
  for (std::size_t u : d.used()) {
    EXPECT_EQ(a.distance_from(u, topology), d.distance_from(u, topology))
        << what << " central " << u;
  }

  // satisfies: the exact per-type totals, and nothing else.
  std::vector<int> totals(m);
  for (std::size_t j = 0; j < m; ++j) totals[j] = d.of_type(j);
  EXPECT_TRUE(a.satisfies(Request(totals))) << what;
  std::vector<int> more = totals;
  more[m - 1] += 1;
  EXPECT_FALSE(a.satisfies(Request(more))) << what;

  // fits: L = C + slack fits; taking one slot of a used cell does not.
  util::IntMatrix room = d.c;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      room(i, j) += static_cast<int>(rng.uniform_int(0, 1));
    }
  }
  EXPECT_TRUE(a.fits(room)) << what;
  EXPECT_TRUE(a.fits(d.c)) << what;
  if (!es.empty()) {
    util::IntMatrix tight = d.c;
    tight(es.back().node, es.back().type) -= 1;
    EXPECT_FALSE(a.fits(tight)) << what;
  }

  // ==, describe() and the dense round trip.
  EXPECT_EQ(a.describe(), d.describe()) << what;
  EXPECT_EQ(a.to_matrix(), d.c) << what;
  const Allocation round_trip(a.to_matrix());
  EXPECT_TRUE(round_trip == a) << what;
  Allocation other = a;
  EXPECT_TRUE(other == a) << what;
  other.add(0, 0, 1);
  EXPECT_FALSE(other == a) << what;
}

struct Shape {
  std::string name;
  Topology topology;
  std::size_t types;
  std::size_t hot_nodes;  ///< steps touch this many nodes, so cells repeat
};

std::vector<Shape> shapes() {
  const DistanceConfig fractional{0.1, 0.7, 1.3, 2.9};
  return {
      {"1x1", Topology::uniform(1, 1), 1, 1},
      {"1x3", Topology::uniform(1, 1), 3, 1},
      {"4x1", Topology::uniform(2, 2), 1, 4},
      {"7x2 irregular", Topology({0, 1, 0, 2, 1, 2, 0}, {0, 1, 1}, fractional),
       2, 7},
      {"30x3", Topology::uniform(3, 10), 3, 12},
      {"30x3 fractional", Topology::uniform(3, 10, fractional), 3, 30},
      {"24x3 multi-cloud", Topology::multi_cloud(2, 3, 4, fractional), 3, 10},
      {"2000x3", Topology::uniform(50, 40), 3, 24},
  };
}

TEST(SparseAllocation, MatchesDenseReferenceOnSeededSequences) {
  for (const Shape& s : shapes()) {
    for (std::uint64_t seed : {1, 2, 3}) {
      util::Rng rng(seed * 7919 + s.types);
      const std::size_t n = s.topology.node_count();
      // A fixed set of hot nodes spread over the shape.
      std::vector<std::size_t> hot;
      for (std::size_t h = 0; h < s.hot_nodes; ++h) {
        hot.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
      }
      Allocation a(n, s.types);
      Dense d{util::IntMatrix(n, s.types)};
      for (int step = 0; step < 60; ++step) {
        const std::size_t i = hot[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(hot.size()) - 1))];
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(s.types) - 1));
        const int now = d.c(i, j);
        switch (rng.uniform_int(0, 4)) {
          case 0: {  // add up
            const int v = static_cast<int>(rng.uniform_int(0, 3));
            a.add(i, j, v);
            d.c(i, j) += v;
            break;
          }
          case 1: {  // add down, never below zero
            const int v = static_cast<int>(rng.uniform_int(0, now));
            a.add(i, j, -v);
            d.c(i, j) -= v;
            break;
          }
          case 2: {  // proxy assignment, zero included
            const int v = static_cast<int>(rng.uniform_int(0, 4));
            a.at(i, j) = v;
            d.c(i, j) = v;
            break;
          }
          case 3: {  // proxy +=
            const int v = static_cast<int>(rng.uniform_int(0, 2));
            a.at(i, j) += v;
            d.c(i, j) += v;
            break;
          }
          default: {  // proxy -=, draining the cell half the time
            const int v = rng.bernoulli(0.5)
                              ? now
                              : static_cast<int>(rng.uniform_int(0, now));
            a.at(i, j) -= v;
            d.c(i, j) -= v;
            break;
          }
        }
        expect_matches(a, d, s.topology, rng,
                       s.name + " seed " + std::to_string(seed) + " step " +
                           std::to_string(step));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// A window debit keeps the view's sum cache warm: the readers after it (the
// admission precheck's column sums, the partial rung's row sums) then cost
// O(1), not a rebuild of every sum.
TEST(SparseAllocation, DebitFromKeepsTheViewsSumsWarm) {
  util::IntMatrix view(6, 3, 4);
  view.warm_sums();
  Allocation a(6, 3);
  a.add(1, 0, 2);
  a.add(1, 2, 4);
  a.add(4, 1, 3);
  ASSERT_TRUE(a.debit_from(view));
  EXPECT_TRUE(view.sums_warm());
  util::IntMatrix fresh(6, 3);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      fresh(i, j) = std::as_const(view)(i, j);
    }
  }
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(view.row_sum(i), fresh.row_sum(i));
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(view.col_sum(j), fresh.col_sum(j));
  // An oversubscribing debit reports it and still leaves the sums warm.
  Allocation over(6, 3);
  over.add(1, 2, 1);
  EXPECT_FALSE(over.debit_from(view));
  EXPECT_TRUE(view.sums_warm());
  EXPECT_EQ(view.row_sum(1), 5);
}

TEST(SparseAllocation, AddBelowZeroThrowsAndLeavesTheAllocationUnchanged) {
  Allocation a(5, 3);
  a.add(1, 2, 2);
  a.add(3, 0, 1);
  const Allocation before = a;
  EXPECT_THROW(a.add(1, 2, -3), std::invalid_argument);
  EXPECT_THROW(a.add(4, 1, -1), std::invalid_argument);  // no entry there
  EXPECT_THROW(a.at(3, 0) = -1, std::invalid_argument);
  EXPECT_THROW(a.at(3, 0) -= 2, std::invalid_argument);
  EXPECT_TRUE(a == before);
  EXPECT_EQ(a.entries().size(), 2u);
  EXPECT_THROW(a.add(5, 0, 1), std::out_of_range);
  EXPECT_THROW(a.add(0, 3, 1), std::out_of_range);
  EXPECT_THROW(static_cast<void>(std::as_const(a).at(5, 0)),
               std::out_of_range);
  EXPECT_TRUE(a == before);
  // Reaching zero drops the entry.
  a.add(3, 0, -1);
  a.at(1, 2) = 0;
  EXPECT_TRUE(a.entries().empty());
  EXPECT_TRUE(a.empty_allocation());
}

TEST(SparseAllocation, WriteProxyAssignsFromAnotherCell) {
  Allocation a(3, 2);
  a.at(0, 1) = 4;
  a.at(2, 0) = a.at(0, 1);  // proxy to proxy: copies the count
  EXPECT_EQ(std::as_const(a).at(2, 0), 4);
  EXPECT_EQ(std::as_const(a).at(0, 1), 4);
  const int read = a.at(2, 0);
  EXPECT_EQ(read, 4);
  EXPECT_EQ(a.total_vms(), 8);
}

TEST(SparseAllocation, FromEntriesRejectsUnsortedZeroOrOutOfRange) {
  using E = Allocation::Entry;
  EXPECT_NO_THROW(Allocation::from_entries(4, 2, {{0, 1, 2}, {2, 0, 1}}));
  EXPECT_THROW(Allocation::from_entries(4, 2, {{2, 0, 1}, {0, 1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(Allocation::from_entries(4, 2, {{1, 1, 2}, {1, 1, 3}}),
               std::invalid_argument);
  EXPECT_THROW(Allocation::from_entries(4, 2, {E{0, 1, 0}}),
               std::invalid_argument);
  EXPECT_THROW(Allocation::from_entries(4, 2, {E{0, 1, -1}}),
               std::invalid_argument);
  EXPECT_THROW(Allocation::from_entries(4, 2, {E{4, 0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Allocation::from_entries(4, 2, {E{0, 2, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Allocation(util::IntMatrix{{1, -1}}), std::invalid_argument);
}

TEST(SparseAllocation, FortyVmLeaseOnHundredThousandNodesStaysUnderOneKilobyte) {
  // A lease's storage grows with its entries, not with the cloud: 40 VMs
  // spread one per cell over a 100k-node x 3-type shape, added one at a
  // time as a grant path would, stay within 1 kB including the vector's
  // spare capacity.  (The dense matrix was 100k x 3 ints: 1.2 MB.)
  Allocation a(100000, 3);
  util::Rng rng(40);
  while (a.total_vms() < 40) {
    const auto node = static_cast<std::size_t>(rng.uniform_int(0, 99999));
    const auto type = static_cast<std::size_t>(rng.uniform_int(0, 2));
    if (std::as_const(a).at(node, type) == 0) a.add(node, type, 1);
  }
  EXPECT_EQ(a.entries().size(), 40u);
  const std::size_t bytes =
      sizeof(Allocation) + a.entries().capacity() * sizeof(Allocation::Entry);
  EXPECT_LT(bytes, 1024u) << "sizeof " << sizeof(Allocation) << ", capacity "
                          << a.entries().capacity();
  // Piling the same 40 VMs onto fewer cells only shrinks it.
  Allocation packed(100000, 3);
  for (std::size_t v = 0; v < 40; ++v) packed.add(v % 4, 1, 1);
  EXPECT_EQ(packed.entries().size(), 4u);
  EXPECT_EQ(packed.total_vms(), 40);
}

}  // namespace
}  // namespace vcopt::cluster
