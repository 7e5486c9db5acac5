#include "cluster/allocation.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cluster/topology.h"

namespace vcopt::cluster {

namespace {

using Entry = Allocation::Entry;

// Calls f(node, vms) for each used node in ascending order, vms being the
// node's VM count summed over its entries in type order.
template <typename F>
void for_each_used_node(const std::vector<Entry>& entries, F&& f) {
  for (std::size_t e = 0; e < entries.size();) {
    const std::uint32_t node = entries[e].node;
    int vms = 0;
    for (; e < entries.size() && entries[e].node == node; ++e) {
      vms += entries[e].count;
    }
    f(static_cast<std::size_t>(node), vms);
  }
}

}  // namespace

Allocation::Allocation(std::size_t nodes, std::size_t types)
    : nodes_(nodes), types_(types) {
  if (nodes == 0 || types == 0) {
    throw std::invalid_argument("Allocation: empty dimensions");
  }
  if (nodes > std::numeric_limits<std::uint32_t>::max() ||
      types > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Allocation: shape exceeds 32-bit indices");
  }
}

Allocation::Allocation(const util::IntMatrix& counts)
    : Allocation(counts.rows(), counts.cols()) {
  for (std::size_t i = 0; i < nodes_; ++i) {
    for (std::size_t j = 0; j < types_; ++j) {
      const int v = counts(i, j);
      if (v < 0) throw std::invalid_argument("Allocation: negative count");
      if (v > 0) {
        entries_.push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j), v});
      }
    }
  }
}

Allocation Allocation::from_entries(std::size_t nodes, std::size_t types,
                                    std::vector<Entry> entries) {
  Allocation a(nodes, types);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const Entry& x = entries[e];
    if (x.node >= nodes || x.type >= types || x.count <= 0 ||
        (e > 0 && !cell_less(entries[e - 1], x))) {
      throw std::invalid_argument(
          "Allocation::from_entries: entries must be in range, positive and "
          "sorted by (node, type)");
    }
  }
  a.entries_ = std::move(entries);
  return a;
}

void Allocation::check_index(std::size_t node, std::size_t type) const {
  if (node >= nodes_ || type >= types_) {
    throw std::out_of_range("Allocation index out of range");
  }
}

int Allocation::at(std::size_t node, std::size_t type) const {
  check_index(node, type);
  const Entry key{static_cast<std::uint32_t>(node),
                  static_cast<std::uint32_t>(type), 0};
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), key, cell_less);
  return it != entries_.end() && it->node == key.node && it->type == key.type
             ? it->count
             : 0;
}

void Allocation::add(std::size_t node, std::size_t type, int delta) {
  check_index(node, type);
  const Entry key{static_cast<std::uint32_t>(node),
                  static_cast<std::uint32_t>(type), 0};
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), key, cell_less);
  const bool found =
      it != entries_.end() && it->node == key.node && it->type == key.type;
  const int now = (found ? it->count : 0) + delta;
  if (now < 0) {
    throw std::invalid_argument("Allocation::add: count would go below zero");
  }
  if (!found) {
    if (now > 0) entries_.insert(it, Entry{key.node, key.type, now});
  } else if (now == 0) {
    entries_.erase(it);
  } else {
    it->count = now;
  }
}

util::IntMatrix Allocation::to_matrix() const {
  util::IntMatrix m(nodes_, types_, 0);
  for (const Entry& e : entries_) m(e.node, e.type) = e.count;
  return m;
}

bool Allocation::debit_from(util::IntMatrix& remaining) const {
  if (remaining.rows() != nodes_ || remaining.cols() != types_) {
    throw std::invalid_argument("Allocation::debit_from: shape mismatch");
  }
  bool nonnegative = true;
  for (const Entry& e : entries_) {
    remaining.add_at(e.node, e.type, -e.count);
    // A const read: the non-const accessor would drop the sums add_at kept.
    nonnegative = nonnegative && std::as_const(remaining)(e.node, e.type) >= 0;
  }
  return nonnegative;
}

int Allocation::vms_on_node(std::size_t node) const {
  check_index(node, 0);
  const Entry key{static_cast<std::uint32_t>(node), 0, 0};
  int vms = 0;
  for (auto it = std::lower_bound(entries_.begin(), entries_.end(), key,
                                  cell_less);
       it != entries_.end() && it->node == key.node; ++it) {
    vms += it->count;
  }
  return vms;
}

int Allocation::vms_of_type(std::size_t type) const {
  check_index(0, type);
  int vms = 0;
  for (const Entry& e : entries_) {
    if (e.type == type) vms += e.count;
  }
  return vms;
}

int Allocation::total_vms() const {
  int vms = 0;
  for (const Entry& e : entries_) vms += e.count;
  return vms;
}

std::vector<std::size_t> Allocation::used_nodes() const {
  std::vector<std::size_t> nodes;
  for_each_used_node(entries_,
                     [&](std::size_t i, int) { nodes.push_back(i); });
  return nodes;
}

double Allocation::distance_from(std::size_t k,
                                 const Topology& topology) const {
  if (topology.node_count() != nodes_) {
    throw std::invalid_argument(
        "Allocation::distance_from: topology shape mismatch");
  }
  if (k >= nodes_) throw std::out_of_range("Allocation::distance_from");
  double sum = 0;
  for_each_used_node(entries_, [&](std::size_t i, int vms) {
    sum += static_cast<double>(vms) * topology.distance(i, k);
  });
  return sum;
}

double Allocation::distance_from(std::size_t k,
                                 const util::DoubleMatrix& dist) const {
  if (dist.rows() != nodes_ || dist.cols() != nodes_) {
    throw std::invalid_argument("Allocation::distance_from: D shape mismatch");
  }
  if (k >= nodes_) throw std::out_of_range("Allocation::distance_from");
  double sum = 0;
  for_each_used_node(entries_, [&](std::size_t i, int vms) {
    sum += static_cast<double>(vms) * dist(i, k);
  });
  return sum;
}

CentralNode Allocation::best_central(const Topology& topology) const {
  if (topology.node_count() != nodes_) {
    throw std::invalid_argument(
        "Allocation::best_central: topology shape mismatch");
  }
  // The used nodes, each with its tiers and its candidate sum, in scratch
  // reused across calls: a grant evaluates Definition 1 without touching
  // the heap.
  struct Used {
    std::size_t node;
    std::size_t rack;
    std::size_t cloud;
    double vms;
    double sum;
  };
  thread_local std::vector<Used> used;
  used.clear();
  for_each_used_node(entries_, [&](std::size_t i, int vms) {
    used.push_back({i, topology.rack_of(i), topology.cloud_of(i),
                    static_cast<double>(vms), 0.0});
  });
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
  for (std::size_t k = 0; k < nodes_; ++k) {
    const double d = distance_from(k, dist);
    if (d < best.distance) best = {k, d};
  }
  return best;
}

double Allocation::weighted_distance_from(
    std::size_t k, const util::DoubleMatrix& dist,
    const std::vector<double>& weights) const {
  if (weights.size() != types_) {
    throw std::invalid_argument("weighted_distance_from: weights size mismatch");
  }
  for (double w : weights) {
    if (w <= 0) throw std::invalid_argument("weighted_distance_from: weight <= 0");
  }
  if (dist.rows() != nodes_ || dist.cols() != nodes_) {
    throw std::invalid_argument("weighted_distance_from: D shape mismatch");
  }
  if (k >= nodes_) {
    throw std::out_of_range("Allocation::weighted_distance_from");
  }
  // A node's weight sums its entries in type order; the dense scan's zero
  // cells add +0.0, which changes no bit.
  double sum = 0;
  for (std::size_t e = 0; e < entries_.size();) {
    const std::uint32_t node = entries_[e].node;
    double weight = 0;
    for (; e < entries_.size() && entries_[e].node == node; ++e) {
      weight += weights[entries_[e].type] * entries_[e].count;
    }
    sum += weight * dist(node, k);
  }
  return sum;
}

bool Allocation::satisfies(const Request& request) const {
  if (request.type_count() != types_) return false;
  thread_local std::vector<int> per_type;
  per_type.assign(types_, 0);
  for (const Entry& e : entries_) per_type[e.type] += e.count;
  for (std::size_t j = 0; j < types_; ++j) {
    if (per_type[j] != request.count(j)) return false;
  }
  return true;
}

bool Allocation::fits(const util::IntMatrix& remaining) const {
  if (remaining.rows() != nodes_ || remaining.cols() != types_) return false;
  for (const Entry& e : entries_) {
    if (e.count > remaining(e.node, e.type)) return false;
  }
  return true;
}

std::string Allocation::describe() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t e = 0; e < entries_.size();) {
    const std::uint32_t node = entries_[e].node;
    os << (e == 0 ? "" : ", ") << "N" << node << ":(";
    for (std::size_t j = 0; j < types_; ++j) {
      int v = 0;
      if (e < entries_.size() && entries_[e].node == node &&
          entries_[e].type == j) {
        v = entries_[e++].count;
      }
      os << (j ? "," : "") << v;
    }
    os << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace vcopt::cluster
