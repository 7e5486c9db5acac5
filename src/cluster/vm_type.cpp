#include "cluster/vm_type.h"

#include <set>
#include <stdexcept>

namespace vcopt::cluster {

VmCatalog::VmCatalog(std::vector<VmType> types) : types_(std::move(types)) {
  if (types_.empty()) throw std::invalid_argument("VmCatalog: empty");
  std::set<std::string> seen;
  for (const auto& t : types_) {
    if (t.name.empty()) throw std::invalid_argument("VmCatalog: unnamed type");
    if (!seen.insert(t.name).second) {
      throw std::invalid_argument("VmCatalog: duplicate type name " + t.name);
    }
    if (t.platform_bits != 32 && t.platform_bits != 64) {
      throw std::invalid_argument("VmCatalog: platform must be 32 or 64 bit");
    }
  }
}

VmCatalog VmCatalog::ec2_default() {
  // Table I of the paper (EC2 first-generation instances).
  return VmCatalog({
      {"small", 1.7, 1, 160, 32},
      {"medium", 3.75, 2, 410, 64},
      {"large", 7.5, 4, 850, 64},
  });
}

const VmType& VmCatalog::type(std::size_t index) const {
  if (index >= types_.size()) throw std::out_of_range("VmCatalog::type");
  return types_[index];
}

std::optional<std::size_t> VmCatalog::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].name == name) return i;
  }
  return std::nullopt;
}

}  // namespace vcopt::cluster
