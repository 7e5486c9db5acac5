#include "cluster/allocation.h"

#include <cmath>
#include <cstdint>
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

CentralNode Allocation::best_weighted_central(
    const util::DoubleMatrix& dist, const std::vector<double>& weights) const {
  CentralNode best{0, std::numeric_limits<double>::infinity()};
  for (std::size_t k = 0; k < counts_.rows(); ++k) {
    const double d = weighted_distance_from(k, dist, weights);
    if (d < best.distance) best = {k, d};
  }
  return best;
}

std::vector<std::size_t> Allocation::optimal_centrals(
    const util::DoubleMatrix& dist) const {
  const double best = best_central(dist).distance;
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < counts_.rows(); ++k) {
    if (distance_from(k, dist) == best) out.push_back(k);
  }
  return out;
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

namespace {

// Exact-integer gate for the tiered scan: each tier distance must be a
// small non-negative integer so every partial sum in both evaluation orders
// (the legacy ascending-i loop and the tier decomposition) is an exact
// integer well inside double precision (< 2^53), making the two bitwise
// equal regardless of association.
bool exactly_integral(double v) {
  return v >= 0.0 && v <= static_cast<double>(1 << 20) &&
         v == std::floor(v);
}

}  // namespace

CentralNode best_central_tiered(const Allocation& alloc,
                                const Topology& topology) {
  const std::size_t n = alloc.node_count();
  if (topology.node_count() != n) {
    throw std::invalid_argument("best_central_tiered: topology shape mismatch");
  }
  const DistanceConfig& cfg = topology.distances();
  if (!exactly_integral(cfg.same_node) || !exactly_integral(cfg.same_rack) ||
      !exactly_integral(cfg.cross_rack) || !exactly_integral(cfg.cross_cloud)) {
    return alloc.best_central(topology.distance_matrix());
  }

  std::vector<std::int32_t> w(n);
  std::vector<std::int32_t> rack_total(topology.rack_count(), 0);
  std::vector<std::int32_t> cloud_total(topology.cloud_count(), 0);
  std::int32_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t vms = alloc.vms_on_node(i);
    w[i] = vms;
    total += vms;
    rack_total[topology.rack_of(i)] += vms;
    cloud_total[topology.cloud_of(i)] += vms;
  }

  // Strict < keeps the lowest-index winner on ties, like best_central.
  CentralNode best{0, std::numeric_limits<double>::infinity()};
  for (std::size_t k = 0; k < n; ++k) {
    const std::int32_t rs = rack_total[topology.rack_of(k)];
    const std::int32_t cs = cloud_total[topology.cloud_of(k)];
    const double acc0 = cfg.same_node * static_cast<double>(w[k]);
    const double acc1 = acc0 + cfg.same_rack * static_cast<double>(rs - w[k]);
    const double acc2 = acc1 + cfg.cross_rack * static_cast<double>(cs - rs);
    const double d = acc2 + cfg.cross_cloud * static_cast<double>(total - cs);
    if (d < best.distance) best = {k, d};
  }
  return best;
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
