// Hierarchical physical topology (paper §II): nodes grouped into racks,
// racks grouped into clouds/sites.  Latency-derived distances: 0 between VMs
// on the same node, d1 within a rack, d2 across racks, d3 across clouds
// (0 < d1 < d2 < d3).  The paper's pairwise matrix D is therefore a function
// of the lowest tier two nodes share: distance() computes an entry on
// demand, and the dense matrix is only built for the exact solvers.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/matrix.h"

namespace vcopt::cluster {

/// Distance constants of the paper's latency model.
struct DistanceConfig {
  double same_node = 0.0;
  double same_rack = 1.0;   ///< d1
  double cross_rack = 2.0;  ///< d2
  double cross_cloud = 4.0; ///< d3

  /// Throws unless 0 <= same_node < same_rack < cross_rack < cross_cloud.
  void validate() const;
};

/// Immutable description of the physical plant.
class Topology {
 public:
  /// node_rack[i] = rack id of node i; rack_cloud[r] = cloud id of rack r.
  Topology(std::vector<std::size_t> node_rack, std::vector<std::size_t> rack_cloud,
           DistanceConfig distances = {});

  /// Single cloud, `racks` racks with `nodes_per_rack` nodes each
  /// (the simulation setup of §V.A uses uniform(3, 10)).
  static Topology uniform(std::size_t racks, std::size_t nodes_per_rack,
                          DistanceConfig distances = {});

  /// `clouds` sites, each with `racks_per_cloud` racks of `nodes_per_rack`.
  static Topology multi_cloud(std::size_t clouds, std::size_t racks_per_cloud,
                              std::size_t nodes_per_rack,
                              DistanceConfig distances = {});

  std::size_t node_count() const { return node_rack_.size(); }
  std::size_t rack_count() const { return rack_cloud_.size(); }
  std::size_t cloud_count() const { return cloud_count_; }

  std::size_t rack_of(std::size_t node) const {
    if (node >= node_rack_.size()) throw std::out_of_range("Topology::rack_of");
    return node_rack_[node];
  }
  std::size_t cloud_of(std::size_t node) const {
    return rack_cloud_[rack_of(node)];
  }
  std::size_t cloud_of_rack(std::size_t rack) const {
    if (rack >= rack_cloud_.size()) {
      throw std::out_of_range("Topology::cloud_of_rack");
    }
    return rack_cloud_[rack];
  }
  /// Every node's rack id, indexed by node: rack_of() without the bounds
  /// check, for loops that walk all nodes.
  const std::vector<std::size_t>& node_racks() const { return node_rack_; }
  /// The nodes of `rack`, ascending.
  const std::vector<std::size_t>& nodes_in_rack(std::size_t rack) const;

  bool same_rack(std::size_t a, std::size_t b) const;
  bool same_cloud(std::size_t a, std::size_t b) const;

  /// D(a, b) per the latency model: the distance of the lowest tier the
  /// two nodes share.  O(1), and inline because the placement fills call
  /// it once per visited node.
  double distance(std::size_t a, std::size_t b) const {
    const std::size_t ra = rack_of(a);
    const std::size_t rb = rack_of(b);
    if (a == b) return cfg_.same_node;
    if (ra == rb) return cfg_.same_rack;
    if (rack_cloud_[ra] == rack_cloud_[rb]) return cfg_.cross_rack;
    return cfg_.cross_cloud;
  }

  /// Every node, nearest to `from` first and ties by index: `from`, its
  /// rack-mates, the rest of its cloud, then the other clouds, each run
  /// ascending.  Because validate() makes the tiers strictly increasing,
  /// that is a stable sort of all nodes by distance(from, ·); it is built
  /// as one walk per tier, O(n) without a comparison sort.
  std::vector<std::size_t> nodes_by_distance(std::size_t from) const;

  /// The dense n x n matrix D, built afresh on each call.  An n^2 object
  /// (80 GB at 100k nodes) for the exact solvers, which take an arbitrary
  /// metric; everything else calls distance().
  util::DoubleMatrix distance_matrix() const;

  const DistanceConfig& distances() const { return cfg_; }

  /// Human-readable summary, e.g. "3 racks x 10 nodes (1 cloud)".
  std::string describe() const;

 private:
  std::vector<std::size_t> node_rack_;
  std::vector<std::size_t> rack_cloud_;
  std::vector<std::vector<std::size_t>> rack_nodes_;
  std::size_t cloud_count_ = 0;
  DistanceConfig cfg_;
};

}  // namespace vcopt::cluster
