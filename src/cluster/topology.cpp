#include "cluster/topology.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace vcopt::cluster {

void DistanceConfig::validate() const {
  if (same_node < 0 || !(same_node < same_rack) || !(same_rack < cross_rack) ||
      !(cross_rack < cross_cloud)) {
    throw std::invalid_argument(
        "DistanceConfig: need 0 <= same_node < same_rack < cross_rack < "
        "cross_cloud");
  }
}

Topology::Topology(std::vector<std::size_t> node_rack,
                   std::vector<std::size_t> rack_cloud, DistanceConfig distances)
    : node_rack_(std::move(node_rack)),
      rack_cloud_(std::move(rack_cloud)),
      cfg_(distances) {
  cfg_.validate();
  if (node_rack_.empty()) throw std::invalid_argument("Topology: no nodes");
  if (rack_cloud_.empty()) throw std::invalid_argument("Topology: no racks");
  rack_nodes_.resize(rack_cloud_.size());
  for (std::size_t i = 0; i < node_rack_.size(); ++i) {
    if (node_rack_[i] >= rack_cloud_.size()) {
      throw std::invalid_argument("Topology: node references unknown rack");
    }
    rack_nodes_[node_rack_[i]].push_back(i);
  }
  cloud_count_ = 1 + *std::max_element(rack_cloud_.begin(), rack_cloud_.end());
}

Topology Topology::uniform(std::size_t racks, std::size_t nodes_per_rack,
                           DistanceConfig distances) {
  return multi_cloud(1, racks, nodes_per_rack, distances);
}

Topology Topology::multi_cloud(std::size_t clouds, std::size_t racks_per_cloud,
                               std::size_t nodes_per_rack,
                               DistanceConfig distances) {
  if (clouds == 0 || racks_per_cloud == 0 || nodes_per_rack == 0) {
    throw std::invalid_argument("Topology: all dimensions must be >= 1");
  }
  std::vector<std::size_t> node_rack;
  std::vector<std::size_t> rack_cloud;
  node_rack.reserve(clouds * racks_per_cloud * nodes_per_rack);
  rack_cloud.reserve(clouds * racks_per_cloud);
  for (std::size_t c = 0; c < clouds; ++c) {
    for (std::size_t r = 0; r < racks_per_cloud; ++r) {
      const std::size_t rack_id = rack_cloud.size();
      rack_cloud.push_back(c);
      for (std::size_t nn = 0; nn < nodes_per_rack; ++nn) {
        node_rack.push_back(rack_id);
      }
    }
  }
  return Topology(std::move(node_rack), std::move(rack_cloud), distances);
}

const std::vector<std::size_t>& Topology::nodes_in_rack(std::size_t rack) const {
  if (rack >= rack_nodes_.size()) throw std::out_of_range("Topology::nodes_in_rack");
  return rack_nodes_[rack];
}

bool Topology::same_rack(std::size_t a, std::size_t b) const {
  return rack_of(a) == rack_of(b);
}

bool Topology::same_cloud(std::size_t a, std::size_t b) const {
  return cloud_of(a) == cloud_of(b);
}

std::vector<std::size_t> Topology::nodes_by_distance(std::size_t from) const {
  if (from >= node_count()) {
    throw std::out_of_range("Topology::nodes_by_distance");
  }
  const std::size_t rack = node_rack_[from];
  const std::size_t cloud = rack_cloud_[rack];
  std::vector<std::size_t> order;
  order.reserve(node_count());
  order.push_back(from);
  for (const std::size_t i : rack_nodes_[rack]) {
    if (i != from) order.push_back(i);
  }
  for (std::size_t i = 0; i < node_count(); ++i) {
    const std::size_t r = node_rack_[i];
    if (r != rack && rack_cloud_[r] == cloud) order.push_back(i);
  }
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (rack_cloud_[node_rack_[i]] != cloud) order.push_back(i);
  }
  return order;
}

util::DoubleMatrix Topology::distance_matrix() const {
  const std::size_t n = node_count();
  util::DoubleMatrix d(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) d(a, b) = distance(a, b);
  }
  return d;
}

std::string Topology::describe() const {
  std::ostringstream os;
  os << rack_count() << " racks, " << node_count() << " nodes, "
     << cloud_count() << (cloud_count() == 1 ? " cloud" : " clouds");
  return os.str();
}

}  // namespace vcopt::cluster
