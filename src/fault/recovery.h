// RecoveryManager: self-healing for leased virtual clusters.  When a node
// (or a whole rack) crashes, the VMs it hosted are lost; the manager shrinks
// the affected leases, then re-places the lost VMs with an
// affinity-preserving variant of the paper's Algorithm 1: the candidate
// central scan is restricted to the nodes nearest the cluster's ORIGINAL
// central node, so replacements land close to the surviving VMs and the
// repaired cluster distance DC(C) stays near its pre-failure value.  When
// the restricted window cannot complete the repair, the scan widens to the
// full node set; when even that fails, attempts retry under exponential
// backoff with deterministic jitter, and after the attempt budget the
// manager degrades explicitly (best-effort partial refill -> kPartial,
// survivors only -> kDegraded, nothing left -> kAbandoned + release).
//
// Every failure therefore ends in an explicit terminal PlacementStatus —
// never an exception out of the event loop, never a silently shrunk lease.
//
// Determinism: retries draw jitter from a per-lease Rng forked off the
// manager seed, repair candidate order is a pure function of the topology
// and the original central node, and event ordering rides the EventQueue's
// FIFO-among-ties guarantee — so a (fault profile, seed) pair replays the
// identical repair transcript.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cluster/cloud.h"
#include "placement/provisioner.h"
#include "sim/event_queue.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace vcopt::fault {

/// Placement attempts a repair makes before it degrades.  Between attempts
/// it backs off 1 s doubling to at most 60 s, with +-25% jitter drawn from
/// a per-lease stream (util::jittered_backoff).
inline constexpr int kMaxRepairAttempts = 5;

/// The full story of one lease's encounter with a failure, finalized with a
/// terminal status.  `vms_replaced < vms_lost` iff the repair degraded.
struct RepairRecord {
  cluster::LeaseId lease = 0;
  std::uint64_t request_id = 0;
  placement::PlacementStatus status = placement::PlacementStatus::kAbandoned;
  int attempts = 0;
  double failed_at = 0;     ///< sim time of the (first) capacity loss
  double completed_at = 0;  ///< sim time the terminal status was reached
  int vms_lost = 0;
  int vms_replaced = 0;
  double distance_before = 0;  ///< DC(C) of the lease before the failure
  double distance_after = 0;   ///< DC(C) after repair (0 when abandoned)
  bool restricted_scan_used = false;  ///< repair found within the window
};

class RecoveryManager {
 public:
  RecoveryManager(cluster::Cloud& cloud, sim::EventQueue& queue,
                  std::uint64_t seed = 1);

  /// Registers a live grant so its original central node and distance are
  /// known when a failure hits it.  Untracked leases hit by a failure are
  /// still shrunk and repaired, with the anchor recomputed from survivors.
  void track(const placement::Grant& grant);

  /// Forgets a lease (normal release).  A repair still pending for it is
  /// finalized as kAbandoned without touching the (gone) lease.
  void untrack(cluster::LeaseId lease);

  /// Crash handling: revokes the node's capacity, shrinks every lease that
  /// hosted VMs there, and schedules an immediate repair attempt per lease.
  /// Idempotent for an already-failed node.
  void on_node_failed(std::size_t node);
  void on_node_recovered(std::size_t node);

  /// Called instead of cloud.release() when a repair abandons an emptied
  /// lease — lets the driver route the release through its Provisioner so
  /// the wait queue drains.  Default: cloud.release(lease).
  void set_release_hook(std::function<void(cluster::LeaseId)> hook) {
    release_hook_ = std::move(hook);
  }

  /// Called with each RepairRecord the moment it is finalized (after the
  /// lease mutation, before any abandoned-lease release).  Lets a simulation
  /// driver resample utilisation/timeline at repair instants.
  void set_repair_hook(std::function<void(const RepairRecord&)> hook) {
    repair_hook_ = std::move(hook);
  }

  const std::vector<RepairRecord>& records() const { return records_; }
  std::size_t pending_count() const { return pending_.size(); }

 private:
  struct Tracked {
    std::uint64_t request_id = 0;
    std::size_t central = 0;
    double distance = 0;
  };
  struct Pending {
    cluster::LeaseId lease = 0;
    std::uint64_t request_id = 0;
    std::vector<int> missing;        ///< per-type counts still to re-place
    int attempts = 0;
    double failed_at = 0;
    std::size_t anchor = 0;          ///< original central node (scan anchor)
    double distance_before = 0;
    util::IntMatrix original;        ///< lease allocation before the failure
    util::IntMatrix lost;            ///< accumulated lost slice
    std::vector<bool> failed_nodes;  ///< nodes that lost VMs of this lease
    util::Rng rng{1};                ///< per-lease jitter stream
  };

  void attempt_repair(cluster::LeaseId lease);
  void finalize(Pending& p, placement::PlacementStatus status,
                int vms_replaced, double distance_after, bool restricted);
  /// Affinity-preserving Algorithm-1 scan for the missing VMs; fills
  /// `restricted` with whether the anchored window sufficed.
  std::optional<cluster::Allocation> place_missing(const Pending& p,
                                                   bool& restricted) const;
  /// Remaining capacity with the lease's own failure-tainted rows zeroed:
  /// replacements never return to a node that already lost VMs of this
  /// lease, even if it has since recovered.
  util::IntMatrix repair_remaining(const Pending& p) const;

  cluster::Cloud& cloud_;
  sim::EventQueue& queue_;
  util::Rng rng_;
  std::function<void(cluster::LeaseId)> release_hook_;
  std::function<void(const RepairRecord&)> repair_hook_;
  std::map<cluster::LeaseId, Tracked> tracked_;
  std::map<cluster::LeaseId, Pending> pending_;
  std::vector<RepairRecord> records_;
};

}  // namespace vcopt::fault
