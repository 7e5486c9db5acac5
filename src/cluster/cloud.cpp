#include "cluster/cloud.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/check.h"
#include "check/validators.h"

namespace vcopt::cluster {

Cloud::Cloud(Topology topology, VmCatalog catalog, util::IntMatrix max_capacity)
    : topology_(std::move(topology)),
      catalog_(std::move(catalog)),
      inventory_(std::move(max_capacity)),
      reserved_(inventory_.node_count(), inventory_.type_count()),
      node_stamp_(topology_.node_count(), 0),
      rack_stamp_(topology_.rack_count(), 0) {
  if (inventory_.node_count() != topology_.node_count()) {
    throw std::invalid_argument("Cloud: capacity rows != node count");
  }
  if (inventory_.type_count() != catalog_.size()) {
    throw std::invalid_argument("Cloud: capacity cols != catalog size");
  }
  free_ = inventory_.remaining();
  free_.warm_sums();
  index_ = FreeIndex(topology_, inventory_.max_capacity(), free_);
  capacity_col_sums_.resize(type_count());
  for (std::size_t j = 0; j < type_count(); ++j) {
    capacity_col_sums_[j] = inventory_.max_capacity().col_sum(j);
  }
}

void Cloud::stamp(std::size_t node) {
  node_stamp_[node] = change_stamp_;
  rack_stamp_[topology_.rack_of(node)] = change_stamp_;
}

void Cloud::notify_one(std::size_t node) {
  ++change_stamp_;
  stamp(node);
  if (listener_ == nullptr) return;
  listener_->on_capacity_changed(*this, {node});
}

void Cloud::notify_pair(std::size_t a, std::size_t b) {
  ++change_stamp_;
  stamp(a);
  stamp(b);
  if (listener_ == nullptr) return;
  if (a == b) {
    listener_->on_capacity_changed(*this, {a});
  } else {
    listener_->on_capacity_changed(*this, {a, b});
  }
}

void Cloud::notify_alloc(const Allocation& alloc) {
  ++change_stamp_;
  for (const Allocation::Entry& e : alloc.entries()) stamp(e.node);
  if (listener_ == nullptr) return;
  changed_.clear();
  for (const Allocation::Entry& e : alloc.entries()) {
    if (changed_.empty() || changed_.back() != e.node) {
      changed_.push_back(e.node);
    }
  }
  listener_->on_capacity_changed(*this, changed_);
}

util::IntMatrix Cloud::remaining() const {
#if VCOPT_ENABLE_CHECKS
  // The whole view against the books, and its sums against fresh ones.
  std::vector<int> col_sums(type_count(), 0);
  for (std::size_t i = 0; i < node_count(); ++i) {
    int row_sum = 0;
    for (std::size_t j = 0; j < type_count(); ++j) {
      check_free_cell(i, j);
      row_sum += free_(i, j);
      col_sums[j] += free_(i, j);
    }
    VCOPT_INVARIANT(free_.row_sum(i) == row_sum)
        << " free view row " << i << " sums to " << row_sum
        << " but caches " << free_.row_sum(i);
  }
  for (std::size_t j = 0; j < type_count(); ++j) {
    VCOPT_INVARIANT(free_.col_sum(j) == col_sums[j])
        << " free view column " << j << " sums to " << col_sums[j]
        << " but caches " << free_.col_sum(j);
  }
  // The class index against one rebuilt from the view.
  VCOPT_INVARIANT(index_.same_state(
      FreeIndex(topology_, inventory_.max_capacity(), free_)))
      << " free-vector class index diverged from the free view";
#endif
  return free_;
}

void Cloud::add_free(std::size_t node, std::size_t type, int delta) {
  free_.add_at(node, type, delta);
  index_.add(node, type, delta);
}

void Cloud::reclass(std::size_t node) {
  index_.reclass(node, free_.data().data() + node * type_count());
}

// Entries arrive sorted by node, so a node's last entry is where its row is
// final and it is reclassed.
void Cloud::debit_free(const Allocation& alloc) {
  const std::vector<Allocation::Entry>& es = alloc.entries();
  for (std::size_t k = 0; k < es.size(); ++k) {
    add_free(es[k].node, es[k].type, -es[k].count);
    check_free_cell(es[k].node, es[k].type);
    if (k + 1 == es.size() || es[k + 1].node != es[k].node) {
      reclass(es[k].node);
    }
  }
}

void Cloud::credit_free(const Allocation& alloc) {
  const std::vector<Allocation::Entry>& es = alloc.entries();
  for (std::size_t k = 0; k < es.size(); ++k) {
    const Allocation::Entry& e = es[k];
    if (!inventory_.is_failed(e.node) && !inventory_.is_drained(e.node)) {
      add_free(e.node, e.type, e.count);
    }
    check_free_cell(e.node, e.type);
    if (k + 1 == es.size() || es[k + 1].node != e.node) reclass(e.node);
  }
}

void Cloud::refresh_free(std::size_t node) {
  for (std::size_t j = 0; j < type_count(); ++j) {
    // A const read: the non-const accessor would drop the view's sums.
    const int delta = remaining_at(node, j) - std::as_const(free_)(node, j);
    if (delta != 0) add_free(node, j, delta);
  }
  reclass(node);
}

void Cloud::check_free_cell(std::size_t node, std::size_t type) const {
  VCOPT_INVARIANT(free_(node, type) == remaining_at(node, type))
      << " free view cell (" << node << ", " << type << ") holds "
      << free_(node, type) << " but the books give "
      << remaining_at(node, type);
}

bool Cloud::fits_reservations(const Allocation& alloc) const {
  if (reserved_total_ == 0) return true;
  if (alloc.node_count() != node_count() || alloc.type_count() != type_count()) {
    return false;
  }
  for (const Allocation::Entry& e : alloc.entries()) {
    if (e.count > remaining_at(e.node, e.type)) return false;
  }
  return true;
}

LeaseId Cloud::grant(const Request& request, const Allocation& alloc) {
  if (!alloc.satisfies(request)) {
    throw std::invalid_argument("Cloud::grant: allocation does not satisfy request");
  }
  if (!fits_reservations(alloc)) {
    // The inventory alone would admit this, but part of that capacity is
    // reserved by an in-flight migration.
    throw std::invalid_argument(
        "Cloud::grant: allocation does not fit (capacity reserved by "
        "in-flight migrations)");
  }
  inventory_.allocate(alloc);  // throws if it does not fit
  debit_free(alloc);
  const LeaseId id = next_lease_++;
  const CentralNode c = alloc.best_central(topology_);
  // Ids only grow, so the new lease goes last: an O(1) hinted insert.
  leases_.emplace_hint(leases_.end(), id,
                       Lease{alloc, LeaseDc{c.node, c.distance, c.distance}});
  notify_alloc(alloc);
  return id;
}

void Cloud::refresh_dc(Lease& lease) const {
  const CentralNode c = lease.alloc.best_central(topology_);
  lease.dc.central = c.node;
  lease.dc.last = c.distance;
  if (!lease.alloc.empty_allocation()) {
    lease.dc.min = std::min(lease.dc.min, c.distance);
  }
}

int Cloud::remaining_at(std::size_t node, std::size_t type) const {
  if (node >= node_count() || type >= type_count()) {
    throw std::out_of_range("Cloud::remaining_at");
  }
  return std::max(0, inventory_.remaining_at(node, type) - reserved_(node, type));
}

void Cloud::release(LeaseId id) {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    throw std::invalid_argument("Cloud::release: unknown lease");
  }
  const Allocation alloc = std::move(it->second.alloc);
  leases_.erase(it);
  inventory_.release(alloc);
  credit_free(alloc);
  notify_alloc(alloc);
}

std::vector<LeaseId> Cloud::fail_node(std::size_t node) {
  inventory_.fail_node(node);  // bounds-checks `node`
  refresh_free(node);
  notify_one(node);
  std::vector<LeaseId> affected;
  for (const auto& [id, lease] : leases_) {
    if (lease.alloc.vms_on_node(node) > 0) affected.push_back(id);
  }
  return affected;
}

Allocation Cloud::lease_part_on_node(LeaseId id, std::size_t node) const {
  const Allocation& alloc = lease_allocation(id);
  if (node >= alloc.node_count()) {
    throw std::out_of_range("Cloud::lease_part_on_node");
  }
  std::vector<Allocation::Entry> part;
  for (const Allocation::Entry& e : alloc.entries()) {
    if (e.node == node) part.push_back(e);
  }
  return Allocation::from_entries(alloc.node_count(), alloc.type_count(),
                                  std::move(part));
}

void Cloud::shrink_lease(LeaseId id, const Allocation& lost) {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    throw std::invalid_argument("Cloud::shrink_lease: unknown lease");
  }
  if (lost.node_count() != node_count() || lost.type_count() != type_count()) {
    throw std::invalid_argument("Cloud::shrink_lease: shape mismatch");
  }
  Allocation& alloc = it->second.alloc;
  for (const Allocation::Entry& e : lost.entries()) {
    if (e.count > alloc.at(e.node, e.type)) {
      throw std::invalid_argument(
          "Cloud::shrink_lease: lease does not hold the VMs being removed");
    }
  }
  inventory_.release(lost);
  credit_free(lost);
  for (const Allocation::Entry& e : lost.entries()) {
    alloc.add(e.node, e.type, -e.count);
  }
  refresh_dc(it->second);
  notify_alloc(lost);
}

void Cloud::grow_lease(LeaseId id, const Allocation& extra) {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    throw std::invalid_argument("Cloud::grow_lease: unknown lease");
  }
  if (!fits_reservations(extra)) {
    throw std::invalid_argument(
        "Cloud::grow_lease: allocation does not fit (capacity reserved by "
        "in-flight migrations)");
  }
  inventory_.allocate(extra);  // validates shape and fit
  debit_free(extra);
  for (const Allocation::Entry& e : extra.entries()) {
    it->second.alloc.add(e.node, e.type, e.count);
  }
  refresh_dc(it->second);
  notify_alloc(extra);
}

std::uint64_t Cloud::begin_migration(LeaseId lease, std::size_t from,
                                     std::size_t to, std::size_t type) {
  auto it = leases_.find(lease);
  if (it == leases_.end()) {
    throw std::invalid_argument("Cloud::begin_migration: unknown lease");
  }
  if (from >= node_count() || to >= node_count() || type >= type_count()) {
    throw std::invalid_argument(
        "Cloud::begin_migration: node/type out of range");
  }
  if (from == to) {
    throw std::invalid_argument(
        "Cloud::begin_migration: source and destination coincide");
  }
  // Transient refusals (return 0, caller may retry): the source VM must
  // still exist on a live node, and the destination must offer a free,
  // unreserved slot.
  if (it->second.alloc.at(from, type) <= 0) return 0;
  if (inventory_.is_failed(from)) return 0;
  if (inventory_.is_failed(to) || inventory_.is_drained(to)) return 0;
  if (inventory_.remaining_at(to, type) - reserved_(to, type) <= 0) return 0;
  reserved_(to, type) += 1;
  ++reserved_total_;
  refresh_free(to);
  const std::uint64_t ticket = next_migration_++;
  migrations_.emplace(ticket, PendingMigration{lease, from, to, type});
  notify_one(to);
  return ticket;
}

bool Cloud::commit_migration(std::uint64_t ticket) {
  auto it = migrations_.find(ticket);
  if (it == migrations_.end()) {
    throw std::invalid_argument("Cloud::commit_migration: unknown ticket");
  }
  const PendingMigration m = it->second;
  auto lease_it = leases_.find(m.lease);
  // Re-validate against the current world; any mismatch rolls back.
  const bool source_alive = lease_it != leases_.end() &&
                            lease_it->second.alloc.at(m.from, m.type) > 0 &&
                            !inventory_.is_failed(m.from);
  const bool dest_alive =
      !inventory_.is_failed(m.to) && !inventory_.is_drained(m.to);
  if (!source_alive || !dest_alive) {
    rollback_migration(ticket);
    return false;
  }
  Allocation& alloc = lease_it->second.alloc;
#if VCOPT_ENABLE_CHECKS
  // The conservation validator compares dense before/after matrices.
  const util::IntMatrix before =
      alloc.to_matrix();  // NOLINT(vcopt-dense-allocation)
#endif
  // Free the reservation first so the inventory move lands in the slot it
  // held (the reservation guaranteed remaining_at(to, type) >= 1).
  reserved_(m.to, m.type) -= 1;
  --reserved_total_;
  migrations_.erase(it);
  Allocation slot(node_count(), type_count());
  slot.add(m.to, m.type, 1);
  inventory_.allocate(slot);
  Allocation freed(node_count(), type_count());
  freed.add(m.from, m.type, 1);
  inventory_.release(freed);
  alloc.add(m.from, m.type, -1);
  alloc.add(m.to, m.type, 1);
  refresh_free(m.to);
  refresh_free(m.from);
#if VCOPT_ENABLE_CHECKS
  VCOPT_VALIDATE(check::validate_migration_conservation(
      before, alloc.to_matrix(),  // NOLINT(vcopt-dense-allocation)
      m.from, m.to, m.type));
#endif
  refresh_dc(lease_it->second);
  notify_pair(m.from, m.to);
  return true;
}

void Cloud::rollback_migration(std::uint64_t ticket) {
  auto it = migrations_.find(ticket);
  if (it == migrations_.end()) {
    throw std::invalid_argument("Cloud::rollback_migration: unknown ticket");
  }
  const std::size_t to = it->second.to;
  const std::size_t type = it->second.type;
  reserved_(to, type) -= 1;
  --reserved_total_;
  migrations_.erase(it);
  refresh_free(to);
  notify_one(to);
}

std::vector<LeaseId> Cloud::lease_ids() const {
  std::vector<LeaseId> out;
  out.reserve(leases_.size());
  for (const auto& [id, lease] : leases_) out.push_back(id);
  return out;
}

const Allocation& Cloud::lease_allocation(LeaseId id) const {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    throw std::invalid_argument("Cloud::lease_allocation: unknown lease");
  }
  return it->second.alloc;
}

LeaseDc Cloud::lease_dc(LeaseId id) const {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    throw std::invalid_argument("Cloud::lease_dc: unknown lease");
  }
  return it->second.dc;
}

std::string Cloud::describe() const {
  std::ostringstream os;
  os << topology_.describe() << "; " << inventory_.describe() << "; "
     << leases_.size() << " active leases";
  return os.str();
}

}  // namespace vcopt::cluster
