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
  rebuild();
  cloud_.set_capacity_listener(this);
}

CellDirectory::~CellDirectory() { cloud_.set_capacity_listener(nullptr); }

void CellDirectory::rebuild() {
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
  for (std::size_t lr = 0; lr < cl.racks.size(); ++lr) {
    const int* rack = cloud_.free_index().rack_free(cl.racks[lr]);
    for (std::size_t j = 0; j < m; ++j) {
      s.free_total[j] += rack[j];
      s.rack_free(lr, j) = rack[j];
    }
  }
  return s;
}

void CellDirectory::on_capacity_changed(const cluster::Cloud& cloud,
                                        const std::vector<std::size_t>& nodes) {
  auto& metrics = DirectoryMetrics::get();
  const std::size_t m = cloud.type_count();
  for (std::size_t node : nodes) {
    const std::size_t rack = cloud.topology().rack_of(node);
    CellSketch& s = sketches_[partition_.cell_of_node(node)];
    const std::size_t lr = partition_.local_rack(rack);
    const int* now = cloud.free_index().rack_free(rack);
    bool changed = false;
    for (std::size_t j = 0; j < m; ++j) {
      const int delta = now[j] - s.rack_free(lr, j);
      if (delta == 0) continue;
      s.rack_free(lr, j) = now[j];
      s.free_total[j] += delta;
      changed = true;
    }
    // Counts sketch rows that changed: a second node of the same rack in
    // one mutation finds its row current already.
    if (changed) metrics.sketch_updates.add();
  }
}

check::ValidationResult CellDirectory::validate() const {
  const std::size_t m = cloud_.type_count();
  // Ground truth: re-read every node straight from the cloud, bypassing the
  // cloud's rack sums (which are themselves under test).
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
