#include "cell/partition.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

namespace vcopt::cell {

namespace {

// One cell's sub-topology: local rack ids follow the cell's ascending
// global-rack order, cloud ids are compressed in that same order, so every
// intra-cell pair keeps its global distance tier.
cluster::Topology make_cell_topology(const cluster::Topology& topology,
                                     const Cell& cell,
                                     const std::vector<std::size_t>& rack_local) {
  std::vector<std::size_t> node_rack;
  node_rack.reserve(cell.nodes.size());
  for (std::size_t node : cell.nodes) {
    node_rack.push_back(rack_local[topology.rack_of(node)]);
  }
  std::vector<std::size_t> rack_cloud;
  rack_cloud.reserve(cell.racks.size());
  std::map<std::size_t, std::size_t> cloud_local;
  for (std::size_t rack : cell.racks) {
    auto [it, inserted] = cloud_local.emplace(topology.cloud_of_rack(rack),
                                              cloud_local.size());
    rack_cloud.push_back(it->second);
  }
  return cluster::Topology(std::move(node_rack), std::move(rack_cloud),
                           topology.distances());
}

}  // namespace

CellPartition::CellPartition(const cluster::Topology& topology,
                             CellPartitionOptions options) {
  const std::size_t n = topology.node_count();
  const std::size_t racks = topology.rack_count();
  if (n == 0 || racks == 0) {
    throw std::invalid_argument("CellPartition: empty topology");
  }

  // Target nodes per cell.  0 = cloud-aligned default: close a cell whenever
  // the cloud changes, which yields one cell per cloud (one cell total on a
  // single-cloud topology).
  std::size_t target = options.cell_size;
  if (target == 0 && options.target_cells > 0) {
    target = (n + options.target_cells - 1) / options.target_cells;
  }

  rack_local_.assign(racks, 0);
  Cell current;
  auto close_cell = [&] {
    if (current.nodes.empty()) return;
    current.id = cells_.size();
    cells_.push_back(std::move(current));
    current = Cell{};
  };
  for (std::size_t r = 0; r < racks; ++r) {
    const std::vector<std::size_t>& members = topology.nodes_in_rack(r);
    const bool cloud_changed =
        !current.racks.empty() &&
        topology.cloud_of_rack(r) != topology.cloud_of_rack(current.racks.back());
    if (target == 0 && cloud_changed) close_cell();
    rack_local_[r] = current.racks.size();
    current.racks.push_back(r);
    current.nodes.insert(current.nodes.end(), members.begin(), members.end());
    if (target > 0 && current.nodes.size() >= target) close_cell();
  }
  close_cell();

  node_cell_.assign(n, 0);
  node_local_.assign(n, 0);
  topologies_.reserve(cells_.size());
  for (Cell& cell : cells_) {
    // Nodes arrived rack-by-rack; racks are visited in ascending id order and
    // cluster::Topology lists each rack's nodes ascending, but nothing
    // guarantees ascending across racks for a hand-built topology — sort so
    // local index order is global index order (the flat-equivalence anchor).
    std::sort(cell.nodes.begin(), cell.nodes.end());
    for (std::size_t i = 0; i < cell.nodes.size(); ++i) {
      node_cell_[cell.nodes[i]] = cell.id;
      node_local_[cell.nodes[i]] = i;
    }
    topologies_.push_back(make_cell_topology(topology, cell, rack_local_));
  }
}

std::vector<int> CellPartition::cell_capacity_col_sums(
    std::size_t c, const util::IntMatrix& capacity) const {
  const Cell& cl = cell(c);
  std::vector<int> sums(capacity.cols(), 0);
  for (std::size_t node : cl.nodes) {
    for (std::size_t j = 0; j < capacity.cols(); ++j) {
      sums[j] += capacity(node, j);
    }
  }
  return sums;
}

cluster::Allocation CellPartition::to_global(std::size_t c,
                                             const cluster::Allocation& local,
                                             std::size_t global_nodes) const {
  const Cell& cl = cell(c);
  if (local.node_count() != cl.nodes.size()) {
    throw std::invalid_argument("CellPartition::to_global: row mismatch");
  }
  std::vector<cluster::Allocation::Entry> global = local.entries();
  for (cluster::Allocation::Entry& e : global) {
    e.node = static_cast<std::uint32_t>(cl.nodes[e.node]);
  }
  return cluster::Allocation::from_entries(global_nodes, local.type_count(),
                                           std::move(global));
}

std::string CellPartition::describe() const {
  std::size_t min_n = 0, max_n = 0;
  for (const Cell& c : cells_) {
    if (c.id == 0 || c.nodes.size() < min_n) min_n = c.nodes.size();
    if (c.nodes.size() > max_n) max_n = c.nodes.size();
  }
  std::ostringstream os;
  os << cells_.size() << (cells_.size() == 1 ? " cell" : " cells") << " of "
     << min_n << ".." << max_n << " nodes";
  return os.str();
}

}  // namespace vcopt::cell
