#include "cluster/inventory.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/check.h"
#include "check/validators.h"

namespace vcopt::cluster {

const char* to_string(Admission a) {
  switch (a) {
    case Admission::kAccept: return "accept";
    case Admission::kWait: return "wait";
    case Admission::kReject: return "reject";
  }
  return "?";
}

Inventory::Inventory(util::IntMatrix max_capacity)
    : max_(std::move(max_capacity)),
      alloc_(max_.rows(), max_.cols(), 0),
      capacity_total_(max_.total()),
      drained_(max_.rows(), false),
      failed_(max_.rows(), false) {
  if (max_.rows() == 0 || max_.cols() == 0) {
    throw std::invalid_argument("Inventory: empty capacity matrix");
  }
  if (!max_.all_nonnegative()) {
    throw std::invalid_argument("Inventory: negative capacity");
  }
}

util::IntMatrix Inventory::remaining() const {
  util::IntMatrix rem = max_ - alloc_;
  for (std::size_t i = 0; i < rem.rows(); ++i) {
    if (drained_[i] || failed_[i]) {
      for (std::size_t j = 0; j < rem.cols(); ++j) rem(i, j) = 0;
    }
  }
  return rem;
}

int Inventory::remaining_at(std::size_t node, std::size_t type) const {
  if (node < drained_.size() && (drained_[node] || failed_[node])) {
    max_.at(node, type);  // still bounds-check the access
    return 0;
  }
  return max_.at(node, type) - alloc_.at(node, type);
}

void Inventory::drain_node(std::size_t node) {
  if (node >= drained_.size()) throw std::out_of_range("Inventory::drain_node");
  drained_[node] = true;
}

void Inventory::undrain_node(std::size_t node) {
  if (node >= drained_.size()) throw std::out_of_range("Inventory::undrain_node");
  drained_[node] = false;
}

bool Inventory::is_drained(std::size_t node) const {
  if (node >= drained_.size()) throw std::out_of_range("Inventory::is_drained");
  return drained_[node];
}

std::size_t Inventory::drained_count() const {
  std::size_t n = 0;
  for (bool d : drained_) {
    if (d) ++n;
  }
  return n;
}

void Inventory::fail_node(std::size_t node) {
  if (node >= failed_.size()) throw std::out_of_range("Inventory::fail_node");
  failed_[node] = true;
}

void Inventory::recover_node(std::size_t node) {
  if (node >= failed_.size()) throw std::out_of_range("Inventory::recover_node");
  failed_[node] = false;
}

bool Inventory::is_failed(std::size_t node) const {
  if (node >= failed_.size()) throw std::out_of_range("Inventory::is_failed");
  return failed_[node];
}

std::size_t Inventory::failed_count() const {
  std::size_t n = 0;
  for (bool f : failed_) {
    if (f) ++n;
  }
  return n;
}

std::vector<int> Inventory::available() const {
  std::vector<int> a(type_count());
  for (std::size_t j = 0; j < type_count(); ++j) {
    a[j] = available_of(j);
  }
  return a;
}

int Inventory::available_of(std::size_t type) const {
  int sum = 0;
  for (std::size_t i = 0; i < node_count(); ++i) sum += remaining_at(i, type);
  return sum;
}

Admission Inventory::admit(const Request& request) const {
  if (request.type_count() != type_count()) {
    throw std::invalid_argument("Inventory::admit: type count mismatch");
  }
  bool wait = false;
  for (std::size_t j = 0; j < type_count(); ++j) {
    if (request.count(j) > max_.col_sum(j)) return Admission::kReject;
    if (request.count(j) > available_of(j)) wait = true;
  }
  return wait ? Admission::kWait : Admission::kAccept;
}

void Inventory::allocate(const Allocation& alloc) {
  if (alloc.node_count() != node_count() || alloc.type_count() != type_count()) {
    throw std::invalid_argument("Inventory::allocate: shape mismatch");
  }
  // Fit test and debit over the allocation's entries: O(k).  A cell the
  // allocation leaves empty always fits.
  for (const Allocation::Entry& e : alloc.entries()) {
    if (e.count > remaining_at(e.node, e.type)) {
      throw std::invalid_argument(
          "Inventory::allocate: does not fit remaining capacity");
    }
  }
  for (const Allocation::Entry& e : alloc.entries()) {
    alloc_.add_at(e.node, e.type, e.count);
    allocated_total_ += e.count;
  }
  // C + L == M with 0 <= C <= M must hold after every mutation (drains only
  // mask remaining(), so conservation is checked on the unmasked matrices).
  VCOPT_VALIDATE(
      check::validate_capacity_conservation(alloc_, max_ - alloc_, max_));
  VCOPT_DCHECK(allocated_total_ == alloc_.total())
      << " running allocated total " << allocated_total_ << " != "
      << alloc_.total();
}

void Inventory::release(const Allocation& alloc) {
  if (alloc.node_count() != node_count() || alloc.type_count() != type_count()) {
    throw std::invalid_argument("Inventory::release: shape mismatch");
  }
  for (const Allocation::Entry& e : alloc.entries()) {
    // A const read: the non-const accessor would drop alloc_'s row and
    // column sums, which add_at keeps warm.
    if (e.count > std::as_const(alloc_)(e.node, e.type)) {
      throw std::invalid_argument(
          "Inventory::release: releasing unallocated VMs");
    }
  }
  for (const Allocation::Entry& e : alloc.entries()) {
    alloc_.add_at(e.node, e.type, -e.count);
    allocated_total_ -= e.count;
  }
  VCOPT_VALIDATE(
      check::validate_capacity_conservation(alloc_, max_ - alloc_, max_));
  VCOPT_DCHECK(allocated_total_ == alloc_.total())
      << " running allocated total " << allocated_total_ << " != "
      << alloc_.total();
}

double Inventory::utilization() const {
  if (capacity_total_ == 0) return 0;
  return static_cast<double>(allocated_total_) /
         static_cast<double>(capacity_total_);
}

std::string Inventory::describe() const {
  std::ostringstream os;
  os << node_count() << " nodes x " << type_count() << " VM types, "
     << allocated_total_ << "/" << capacity_total_ << " VMs allocated";
  if (const std::size_t f = failed_count()) os << ", " << f << " failed";
  return os.str();
}

}  // namespace vcopt::cluster
