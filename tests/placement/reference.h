// Independent references for Algorithm 1 and the topology helpers the
// placement and topology tests share.  reference_fill is the greedy fill
// written against the dense distance matrix with comparison sorts, so it
// shares no code with OnlineHeuristic's scan, getList order or fill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/request.h"
#include "cluster/topology.h"
#include "placement/policy.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace vcopt::reference {

/// Algorithm 1's fill for one central node as the dense-D reference writes
/// it: the central node, its rack-mates by descending overlap key, then
/// every off-rack node sorted by (D(i, x), overlap key descending, index).
/// The overlap key of node i is sum_j min(L[x][j], L[i][j]).  `d` is
/// topo.distance_matrix().
inline std::optional<cluster::Allocation> reference_fill(
    const cluster::Request& r, const util::IntMatrix& remaining,
    const cluster::Topology& topo, const util::DoubleMatrix& d,
    std::size_t x) {
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  std::vector<int> key(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      key[i] += std::min(remaining(x, j), remaining(i, j));
    }
  }
  std::vector<std::size_t> rack;
  std::vector<std::size_t> off_rack;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == x) continue;
    (topo.same_rack(i, x) ? rack : off_rack).push_back(i);
  }
  const auto by_key = [&](std::size_t a, std::size_t b) {
    if (key[a] != key[b]) return key[a] > key[b];
    return a < b;
  };
  std::sort(rack.begin(), rack.end(), by_key);
  std::sort(off_rack.begin(), off_rack.end(),
            [&](std::size_t a, std::size_t b) {
              if (d(a, x) != d(b, x)) return d(a, x) < d(b, x);
              return by_key(a, b);
            });
  std::vector<std::size_t> order = {x};
  order.insert(order.end(), rack.begin(), rack.end());
  order.insert(order.end(), off_rack.begin(), off_rack.end());

  cluster::Allocation alloc(n, m);
  std::vector<int> need = r.counts();
  for (std::size_t i : order) {
    for (std::size_t j = 0; j < m; ++j) {
      const int take = std::min(need[j], remaining(i, j));
      if (take > 0) {
        alloc.add(i, j, take);
        need[j] -= take;
      }
    }
  }
  for (int v : need) {
    if (v > 0) return std::nullopt;
  }
  return alloc;
}

/// Reference semantics of Mode::kBestOfAllStarts: the first node that can
/// host the whole request (lines 9-14 of Algorithm 1), at the Definition-1
/// distance of that one-node allocation, else the argmin of (distance,
/// central index) over every candidate central with free capacity, each
/// filled by reference_fill.
inline std::optional<placement::Placement> reference_best(
    const cluster::Request& r, const util::IntMatrix& remaining,
    const cluster::Topology& topo) {
  for (std::size_t x = 0; x < remaining.rows(); ++x) {
    bool whole = true;
    for (std::size_t j = 0; j < remaining.cols(); ++j) {
      whole = whole && remaining(x, j) >= r.count(j);
    }
    if (!whole) continue;
    cluster::Allocation alloc(remaining.rows(), remaining.cols());
    for (std::size_t j = 0; j < remaining.cols(); ++j) {
      alloc.at(x, j) = r.count(j);
    }
    const double d = alloc.distance_from(x, topo);
    return placement::Placement{std::move(alloc), x, d};
  }
  const util::DoubleMatrix dist = topo.distance_matrix();
  std::optional<placement::Placement> best;
  for (std::size_t x = 0; x < remaining.rows(); ++x) {
    if (remaining.row_sum(x) == 0) continue;
    auto alloc = reference_fill(r, remaining, topo, dist, x);
    if (!alloc) continue;
    const double d = alloc->distance_from(x, topo);
    if (!best || d < best->distance) {
      best = placement::Placement{std::move(*alloc), x, d};
    }
  }
  return best;
}

/// Racks of uneven size whose nodes interleave by index, and clouds whose
/// racks interleave too (rack r sits in cloud r % 3).
inline cluster::Topology irregular(util::Rng& rng, std::size_t nodes,
                                   std::size_t racks,
                                   cluster::DistanceConfig t) {
  std::vector<std::size_t> node_rack(nodes);
  for (std::size_t& r : node_rack) {
    r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(racks) - 1));
  }
  std::vector<std::size_t> rack_cloud(racks);
  for (std::size_t r = 0; r < racks; ++r) rack_cloud[r] = r % 3;
  return cluster::Topology(std::move(node_rack), std::move(rack_cloud), t);
}

/// A DistanceConfig from its four tiers.
inline cluster::DistanceConfig tiers(double node, double rack, double cloud,
                                     double far) {
  cluster::DistanceConfig t;
  t.same_node = node;
  t.same_rack = rack;
  t.cross_rack = cloud;
  t.cross_cloud = far;
  return t;
}

}  // namespace vcopt::reference
