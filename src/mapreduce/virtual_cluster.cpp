#include "mapreduce/virtual_cluster.h"

#include <algorithm>
#include <stdexcept>

namespace vcopt::mapreduce {

VirtualCluster VirtualCluster::from_allocation(const cluster::Allocation& alloc) {
  VirtualCluster vc;
  vc.alloc_ = alloc;
  for (std::size_t i = 0; i < alloc.node_count(); ++i) {
    for (std::size_t j = 0; j < alloc.type_count(); ++j) {
      for (int v = 0; v < alloc.at(i, j); ++v) {
        vc.vms_.push_back(VmInstance{vc.vms_.size(), i, j});
      }
    }
  }
  return vc;
}

std::size_t VirtualCluster::add_vm(std::size_t node, std::size_t type) {
  if (node >= alloc_.node_count() || type >= alloc_.type_count()) {
    throw std::out_of_range("VirtualCluster::add_vm");
  }
  alloc_.add(node, type, 1);
  vms_.push_back(VmInstance{vms_.size(), node, type});
  return vms_.size() - 1;
}

const VmInstance& VirtualCluster::vm(std::size_t i) const {
  if (i >= vms_.size()) throw std::out_of_range("VirtualCluster::vm");
  return vms_[i];
}

std::vector<std::size_t> VirtualCluster::nodes() const {
  std::vector<std::size_t> out;
  for (const VmInstance& v : vms_) out.push_back(v.node);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double VirtualCluster::distance(const cluster::Topology& topology) const {
  if (vms_.empty()) return 0;
  return alloc_.best_central(topology).distance;
}

}  // namespace vcopt::mapreduce
