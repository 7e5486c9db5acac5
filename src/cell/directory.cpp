#include "cell/directory.h"

#include <sstream>

#include "obs/metrics.h"

namespace vcopt::cell {

namespace {

struct DirectoryMetrics {
  obs::Counter& sketch_updates;
  obs::Counter& sketch_rebuilds;

  static DirectoryMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static DirectoryMetrics m{
        reg.counter("cell/sketch_updates"),
        reg.counter("cell/sketch_rebuilds"),
    };
    return m;
  }
};

}  // namespace

CellDirectory::CellDirectory(cluster::Cloud& cloud,
                             CellPartitionOptions options)
    : cloud_(cloud), partition_(cloud.topology(), options) {
  node_free_ = util::IntMatrix(cloud_.node_count(), cloud_.type_count());
  rebuild();
  cloud_.set_capacity_listener(this);
}

CellDirectory::~CellDirectory() { cloud_.set_capacity_listener(nullptr); }

void CellDirectory::rebuild() {
  const std::size_t m = cloud_.type_count();
  for (std::size_t i = 0; i < cloud_.node_count(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      node_free_(i, j) = cloud_.remaining_at(i, j);
    }
  }
  sketches_.clear();
  sketches_.reserve(partition_.cell_count());
  for (std::size_t c = 0; c < partition_.cell_count(); ++c) {
    sketches_.push_back(compute_sketch(c));
  }
  DirectoryMetrics::get().sketch_rebuilds.add();
}

CellSketch CellDirectory::compute_sketch(std::size_t cell) const {
  const Cell& cl = partition_.cell(cell);
  const std::size_t m = cloud_.type_count();
  CellSketch s;
  s.free_total.assign(m, 0);
  s.rack_free = util::IntMatrix(cl.racks.size(), m);
  for (std::size_t node : cl.nodes) {
    const std::size_t lr = partition_.local_rack(cloud_.topology().rack_of(node));
    for (std::size_t j = 0; j < m; ++j) {
      const int free = node_free_(node, j);
      s.free_total[j] += free;
      s.rack_free(lr, j) += free;
    }
  }
  return s;
}

void CellDirectory::on_capacity_changed(const cluster::Cloud& cloud,
                                        const std::vector<std::size_t>& nodes) {
  auto& metrics = DirectoryMetrics::get();
  const std::size_t m = cloud.type_count();
  for (std::size_t node : nodes) {
    const std::size_t c = partition_.cell_of_node(node);
    CellSketch& s = sketches_[c];
    const std::size_t lr =
        partition_.local_rack(cloud.topology().rack_of(node));
    bool changed = false;
    for (std::size_t j = 0; j < m; ++j) {
      const int now = cloud.remaining_at(node, j);
      const int delta = now - node_free_(node, j);
      if (delta == 0) continue;
      node_free_(node, j) = now;
      s.free_total[j] += delta;
      s.rack_free(lr, j) += delta;
      changed = true;
    }
    if (changed) metrics.sketch_updates.add();
  }
}

check::ValidationResult CellDirectory::validate() const {
  const std::size_t m = cloud_.type_count();
  // Ground truth: re-read every node straight from the cloud, bypassing the
  // node_free_ mirror (which is itself under test).
  for (std::size_t c = 0; c < partition_.cell_count(); ++c) {
    const Cell& cl = partition_.cell(c);
    const CellSketch& s = sketches_[c];
    std::vector<long long> free_total(m, 0);
    util::IntMatrix rack_free(cl.racks.size(), m);
    for (std::size_t node : cl.nodes) {
      const std::size_t lr =
          partition_.local_rack(cloud_.topology().rack_of(node));
      for (std::size_t j = 0; j < m; ++j) {
        const int free = cloud_.remaining_at(node, j);
        free_total[j] += free;
        rack_free(lr, j) += free;
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (free_total[j] != s.free_total[j]) {
        std::ostringstream os;
        os << "cell " << c << " sketch free_total[" << j << "] = "
           << s.free_total[j] << ", ground truth " << free_total[j];
        return check::invalid(os.str());
      }
    }
    if (!(rack_free == s.rack_free)) {
      std::ostringstream os;
      os << "cell " << c << " sketch rack_free diverged from ground truth";
      return check::invalid(os.str());
    }
  }
  return check::valid();
}

}  // namespace vcopt::cell
