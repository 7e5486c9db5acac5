#include "cluster/allocation.h"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "cluster/topology.h"

namespace vcopt::cluster {

Allocation::Allocation(std::size_t nodes, std::size_t types)
    : counts_(nodes, types, 0) {
  if (nodes == 0 || types == 0) {
    throw std::invalid_argument("Allocation: empty dimensions");
  }
}

Allocation::Allocation(util::IntMatrix counts) : counts_(std::move(counts)) {
  if (counts_.rows() == 0 || counts_.cols() == 0) {
    throw std::invalid_argument("Allocation: empty dimensions");
  }
}

std::vector<std::size_t> Allocation::used_nodes() const {
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < counts_.rows(); ++i) {
    if (vms_on_node(i) > 0) nodes.push_back(i);
  }
  return nodes;
}

double Allocation::distance_from(std::size_t k,
                                 const Topology& topology) const {
  if (topology.node_count() != counts_.rows()) {
    throw std::invalid_argument(
        "Allocation::distance_from: topology shape mismatch");
  }
  if (k >= counts_.rows()) throw std::out_of_range("Allocation::distance_from");
  double sum = 0;
  for (std::size_t i = 0; i < counts_.rows(); ++i) {
    const int vms = vms_on_node(i);
    if (vms > 0) sum += static_cast<double>(vms) * topology.distance(i, k);
  }
  return sum;
}

double Allocation::distance_from(std::size_t k,
                                 const util::DoubleMatrix& dist) const {
  if (dist.rows() != counts_.rows() || dist.cols() != counts_.rows()) {
    throw std::invalid_argument("Allocation::distance_from: D shape mismatch");
  }
  if (k >= counts_.rows()) throw std::out_of_range("Allocation::distance_from");
  double sum = 0;
  for (std::size_t i = 0; i < counts_.rows(); ++i) {
    const int vms = vms_on_node(i);
    if (vms > 0) sum += static_cast<double>(vms) * dist(i, k);
  }
  return sum;
}

CentralNode Allocation::best_central(const Topology& topology) const {
  if (topology.node_count() != counts_.rows()) {
    throw std::invalid_argument(
        "Allocation::best_central: topology shape mismatch");
  }
  // The used nodes, each with its tiers and its candidate sum.
  struct Used {
    std::size_t node;
    std::size_t rack;
    std::size_t cloud;
    double vms;
    double sum;
  };
  std::vector<Used> used;
  for (std::size_t i = 0; i < counts_.rows(); ++i) {
    const int vms = vms_on_node(i);
    if (vms > 0) {
      used.push_back({i, topology.rack_of(i), topology.cloud_of(i),
                      static_cast<double>(vms), 0.0});
    }
  }
  if (used.empty()) return {0, 0.0};
  // D(i, k) indexed by how many of the nested tiers cloud, rack and node
  // the two share — a lookup, not a branch on every pair.
  const DistanceConfig& cfg = topology.distances();
  const double by_shared[4] = {cfg.cross_cloud, cfg.cross_rack, cfg.same_rack,
                               cfg.same_node};
  // Each candidate k sums vms(i) * D(i, k) over the used i in ascending
  // order: distance_from's sum minus its skipped zero terms, so bitwise the
  // dense scan's.  With i outermost the candidates' sums are independent.
  for (const Used& i : used) {
    for (Used& k : used) {
      const int shared = (i.cloud == k.cloud) + (i.rack == k.rack) +
                         (i.node == k.node);
      k.sum += i.vms * by_shared[shared];
    }
  }
  CentralNode best{0, std::numeric_limits<double>::infinity()};
  for (const Used& k : used) {
    if (k.sum < best.distance) best = {k.node, k.sum};
  }
  return best;
}

CentralNode Allocation::best_central(const util::DoubleMatrix& dist) const {
  CentralNode best{0, std::numeric_limits<double>::infinity()};
  for (std::size_t k = 0; k < counts_.rows(); ++k) {
    const double d = distance_from(k, dist);
    if (d < best.distance) best = {k, d};
  }
  return best;
}

double Allocation::weighted_distance_from(
    std::size_t k, const util::DoubleMatrix& dist,
    const std::vector<double>& weights) const {
  if (weights.size() != counts_.cols()) {
    throw std::invalid_argument("weighted_distance_from: weights size mismatch");
  }
  for (double w : weights) {
    if (w <= 0) throw std::invalid_argument("weighted_distance_from: weight <= 0");
  }
  if (dist.rows() != counts_.rows() || dist.cols() != counts_.rows()) {
    throw std::invalid_argument("weighted_distance_from: D shape mismatch");
  }
  if (k >= counts_.rows()) {
    throw std::out_of_range("Allocation::weighted_distance_from");
  }
  double sum = 0;
  for (std::size_t i = 0; i < counts_.rows(); ++i) {
    double weight = 0;
    for (std::size_t j = 0; j < counts_.cols(); ++j) {
      weight += weights[j] * counts_(i, j);
    }
    if (weight > 0) sum += weight * dist(i, k);
  }
  return sum;
}

bool Allocation::satisfies(const Request& request) const {
  if (request.type_count() != counts_.cols()) return false;
  for (std::size_t j = 0; j < counts_.cols(); ++j) {
    if (counts_.col_sum(j) != request.count(j)) return false;
  }
  return true;
}

bool Allocation::fits(const util::IntMatrix& remaining) const {
  if (remaining.rows() != counts_.rows() || remaining.cols() != counts_.cols()) {
    return false;
  }
  return remaining.dominates(counts_);
}

std::string Allocation::describe() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (std::size_t i = 0; i < counts_.rows(); ++i) {
    if (vms_on_node(i) == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "N" << i << ":(";
    for (std::size_t j = 0; j < counts_.cols(); ++j) {
      os << (j ? "," : "") << counts_(i, j);
    }
    os << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace vcopt::cluster
