// The Cloud facade: VM catalogue + physical topology + capacity inventory,
// plus lease bookkeeping so the queueing simulations can hold and later
// release whole virtual clusters by id.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/inventory.h"
#include "cluster/request.h"
#include "cluster/topology.h"
#include "cluster/vm_type.h"

namespace vcopt::cluster {

/// Identifier for a granted virtual cluster (lease).
using LeaseId = std::uint64_t;

/// Definition 1 of a lease's current allocation, kept on the lease record:
/// grant sets it; grow_lease, shrink_lease and commit_migration update it.
struct LeaseDc {
  std::size_t central = 0;  ///< best central node
  double last = 0;          ///< DC of the current allocation
  /// Lowest `last` since the grant; a shrink to zero VMs leaves it as is.
  double min = 0;
};

class Cloud;

/// Observer of capacity mutations.  The cell directory registers one so its
/// per-cell sketches stay incrementally fresh on every grant / release /
/// fault / drain / lease-resize / migration step without rescanning the
/// inventory.  Called synchronously after the books are updated; callbacks
/// must not mutate the cloud.
class CapacityListener {
 public:
  virtual ~CapacityListener() = default;
  /// `nodes` lists the rows whose effective free capacity may have changed
  /// (deduplicated, but in mutation order, not sorted).
  virtual void on_capacity_changed(const Cloud& cloud,
                                   const std::vector<std::size_t>& nodes) = 0;
};

class Cloud {
 public:
  /// Capacity matrix rows must match topology.node_count(); columns must
  /// match catalog.size().
  Cloud(Topology topology, VmCatalog catalog, util::IntMatrix max_capacity);

  const Topology& topology() const { return topology_; }
  const VmCatalog& catalog() const { return catalog_; }
  const Inventory& inventory() const { return inventory_; }

  std::size_t node_count() const { return topology_.node_count(); }
  std::size_t type_count() const { return catalog_.size(); }

  Admission admit(const Request& request) const {
    return inventory_.admit(request);
  }
  /// Remaining capacity net of in-flight migration reservations (clamped at
  /// zero where a node failed with reservations outstanding).  Identical to
  /// inventory().remaining() while no migration is pending.
  util::IntMatrix remaining() const;

  /// One cell of remaining(): free slots of `type` on `node`, net of
  /// migration reservations, zero while the node is failed or drained.
  int remaining_at(std::size_t node, std::size_t type) const;

  /// Registers (or clears, with nullptr) the capacity observer.  At most one;
  /// the caller keeps ownership and must outlive the cloud or deregister.
  void set_capacity_listener(CapacityListener* listener) {
    listener_ = listener;
  }

  /// Grants an allocation and records it as a lease.  The allocation must
  /// satisfy the request and fit remaining capacity.
  LeaseId grant(const Request& request, const Allocation& alloc);

  /// Releases a lease, returning its allocation to the pool.
  void release(LeaseId id);

  /// Maintenance control (§VII): a drained node keeps its current leases
  /// but offers no further capacity until undrained.
  void drain_node(std::size_t node) {
    inventory_.drain_node(node);
    notify_one(node);
  }
  void undrain_node(std::size_t node) {
    inventory_.undrain_node(node);
    notify_one(node);
  }
  bool is_drained(std::size_t node) const { return inventory_.is_drained(node); }

  /// Crashes a node: its capacity is revoked until recover_node and the VMs
  /// it hosted are lost.  Returns the leases that had at least one VM there
  /// (the repair layer shrinks those and re-places the lost VMs).  The lease
  /// allocations themselves are NOT modified here — a failed-then-recovered
  /// node with no repair in between keeps its VMs.
  std::vector<LeaseId> fail_node(std::size_t node);
  void recover_node(std::size_t node) {
    inventory_.recover_node(node);
    notify_one(node);
  }
  bool is_failed(std::size_t node) const { return inventory_.is_failed(node); }

  /// The slice of a lease's allocation hosted on `node` (zero elsewhere).
  Allocation lease_part_on_node(LeaseId id, std::size_t node) const;

  /// Removes `lost` VMs from a lease (failure revocation): the lease's
  /// allocation and the inventory both shrink.  Throws if the lease does not
  /// hold all of `lost`.  A lease shrunk to zero VMs stays registered until
  /// released (the repair layer owns that decision).
  void shrink_lease(LeaseId id, const Allocation& lost);

  /// Adds replacement VMs to a lease (repair): `extra` must fit remaining
  /// capacity (which excludes failed/drained nodes).
  void grow_lease(LeaseId id, const Allocation& extra);

  // --- live migration (two-phase reserve -> move -> commit) --------------
  //
  // begin_migration() reserves one destination slot, so concurrent grants
  // and repairs cannot race the in-flight copy for its capacity; the slot
  // is invisible to remaining() until the migration commits or rolls back.
  // commit_migration() re-validates the world before moving the VM — if the
  // source VM was lost (node crash shrank the lease), the lease ended, or
  // the destination went down/drained mid-copy, it rolls the reservation
  // back instead and reports failure, so a migration can never corrupt the
  // books no matter what failed underneath it.

  /// Starts migrating one VM of `type` held by `lease` from node `from` to
  /// node `to`.  Returns a ticket id (> 0), or 0 when the migration cannot
  /// start right now: no free slot at `to`, `to` failed or drained, `from`
  /// failed, or the lease holds no such VM — all transient conditions a
  /// caller may retry.  Throws std::invalid_argument on caller bugs
  /// (unknown lease, out-of-range node/type, from == to).
  std::uint64_t begin_migration(LeaseId lease, std::size_t from,
                                std::size_t to, std::size_t type);

  /// Completes an in-flight migration: moves the VM and frees the
  /// reservation.  Returns false — after rolling the reservation back — when
  /// the world changed underneath the copy (source VM gone, lease released,
  /// destination failed or drained).  Throws on an unknown ticket.
  bool commit_migration(std::uint64_t ticket);

  /// Abandons an in-flight migration, freeing its reservation.  Throws on
  /// an unknown ticket.
  void rollback_migration(std::uint64_t ticket);

  std::size_t pending_migration_count() const { return migrations_.size(); }

  // --- change stamps -----------------------------------------------------
  //
  // Every capacity mutation (each point that notifies the listener: grant,
  // release, drain/undrain, fail/recover, lease shrink/grow and the three
  // migration steps) bumps a monotone stamp and writes it on each node it
  // touched and on that node's rack, whether or not a listener is set:
  // O(k) per mutation.  A reader that remembers change_stamp() finds what
  // changed since by visiting the racks stamped after it, and within them
  // the nodes stamped after it, without registering anything
  // (cluster::ClusterSampler does).  A stamp says a node may have changed,
  // not that it did: begin_migration and rollback_migration stamp their
  // destination although the inventory's free capacity there is unchanged.

  /// Stamp of the latest capacity mutation; 0 before the first.
  std::uint64_t change_stamp() const { return change_stamp_; }
  /// Stamp of the latest mutation that touched `node` (0 if none has).
  std::uint64_t node_stamp(std::size_t node) const {
    return node_stamp_.at(node);
  }
  /// Latest node_stamp() over the nodes of `rack`.
  std::uint64_t rack_stamp(std::size_t rack) const {
    return rack_stamp_.at(rack);
  }

  bool has_lease(LeaseId id) const { return leases_.count(id) > 0; }
  std::size_t lease_count() const { return leases_.size(); }
  const Allocation& lease_allocation(LeaseId id) const;
  /// The lease's DC record.  Throws on an unknown lease.
  LeaseDc lease_dc(LeaseId id) const;
  /// Ids of all live leases, ascending (rebalancer collect step / audits).
  std::vector<LeaseId> lease_ids() const;

  std::string describe() const;

 private:
  // Each notify_* bumps the change stamp, stamps the nodes it names, then
  // calls the listener if one is set.
  void notify_one(std::size_t node);
  void notify_pair(std::size_t a, std::size_t b);
  void notify_alloc(const Allocation& alloc);
  /// Writes the current change stamp on `node` and its rack.
  void stamp(std::size_t node);
  /// True if `alloc` fits remaining() net of in-flight migration
  /// reservations, checked on its entries: O(k).
  bool fits_reservations(const Allocation& alloc) const;

  struct Lease {
    Allocation alloc;
    LeaseDc dc;
  };
  /// Re-evaluates `lease.dc` after its allocation changed.
  void refresh_dc(Lease& lease) const;

  struct PendingMigration {
    LeaseId lease = 0;
    std::size_t from = 0;
    std::size_t to = 0;
    std::size_t type = 0;
  };

  Topology topology_;
  VmCatalog catalog_;
  Inventory inventory_;
  std::map<LeaseId, Lease> leases_;
  LeaseId next_lease_ = 1;
  /// Destination slots held by in-flight migrations; subtracted from
  /// remaining() so nothing else can claim them mid-copy.
  util::IntMatrix reserved_;
  int reserved_total_ = 0;
  std::map<std::uint64_t, PendingMigration> migrations_;
  std::uint64_t next_migration_ = 1;
  CapacityListener* listener_ = nullptr;
  std::uint64_t change_stamp_ = 0;
  std::vector<std::uint64_t> node_stamp_;
  std::vector<std::uint64_t> rack_stamp_;
  /// notify_alloc's node list, reused so a grant or release allocates none.
  std::vector<std::size_t> changed_;
};

}  // namespace vcopt::cluster
