// Provisioner: ties a placement policy to a live Cloud.  Serves single
// requests (granting leases), keeps a wait queue for requests that do not
// fit, and drains the queue one by one in discipline order on release.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cloud.h"
#include "placement/global_subopt.h"
#include "placement/policy.h"

namespace vcopt::placement {

/// Result of a grant: the lease plus the evaluated placement.
struct Grant {
  cluster::LeaseId lease = 0;
  std::uint64_t request_id = 0;  ///< id of the Request this grant serves
  Placement placement;
};

/// Explicit terminal/interim status of a provisioning or repair attempt.
/// Every path through the provisioner and the fault/recovery layer ends in
/// one of these — never an assert, a silent empty allocation, or a dropped
/// request.
enum class PlacementStatus {
  kGranted,              ///< full allocation: submit()'s grant, or (in the
                         ///< service) admitted by Algorithm 2's batch step
  kQueued,               ///< admissible later; waiting in the queue
  kRejectedEmpty,        ///< zero-VM request: nothing to place
  kRejectedShape,        ///< request/catalog type-count mismatch
  kRejectedOverCapacity, ///< exceeds total capacity; can never be served
  kRepaired,             ///< failure repair replaced every lost VM
  kDegraded,             ///< full allocation made by the ladder, for a
                         ///< singleton window or a member the batch step
                         ///< left behind (the name stays: outcome records
                         ///< carry it); in repair, survivors only
  kPartial,              ///< best-effort allocation: fewer VMs than requested
  kAbandoned,            ///< nothing could be placed / repair gave up
};

const char* to_string(PlacementStatus s);
/// True for statuses that conclude an attempt (everything but kQueued).
bool is_terminal(PlacementStatus s);

/// Typed outcome of Provisioner::submit.
struct ProvisionResult {
  PlacementStatus status = PlacementStatus::kAbandoned;
  std::optional<Grant> grant;  ///< set for kGranted
  int requested_vms = 0;
  int granted_vms = 0;
};

/// A fully planned — but not yet granted — ladder outcome: the pure result
/// of plan_laddered.  `placement` and `effective` are set for the granting
/// statuses (kDegraded / kPartial); actually applying the grant (and
/// obtaining a lease id) is the caller's job.
struct LadderPlan {
  PlacementStatus status = PlacementStatus::kAbandoned;
  std::optional<Placement> placement;
  /// The request the grant should be recorded under: the original request,
  /// or the clipped per-type counts for a kPartial plan.
  std::optional<cluster::Request> effective;
  int requested_vms = 0;
  int granted_vms = 0;
};

/// The graceful-degradation ladder as a pure function of a capacity view.
/// Rungs: shape -> empty -> over capacity -> `policy` (a full allocation,
/// kDegraded) -> best-effort partial allocation of min(R_j, available_j)
/// VMs per type (kPartial) -> kAbandoned.  Reads only the arguments and
/// mutates nothing, so the serving path evaluates it against an immutable
/// CloudSnapshot and commits the plan later.  `view` goes to the policy as
/// it is (with its index, if any); the partial rung reads view.matrix().
/// `capacity_col_sums[j]` must be sum_i M_ij (including drained/failed
/// nodes) — the admit() kReject test.
LadderPlan plan_laddered(const cluster::Request& r,
                         const cluster::CapacityView& view,
                         const cluster::Topology& topology,
                         const std::vector<int>& capacity_col_sums,
                         PlacementPolicy& policy);

/// Best-effort fill: takes min(want_j, free) VMs of each type j from the
/// nodes nearest `anchor` first (Topology::nodes_by_distance order), so it
/// places exactly min(want_j, sum_i remaining_ij) VMs per type.
/// Deterministic.  plan_laddered's partial rung anchors it at the node with
/// the largest remaining capacity; a repair out of attempts anchors it at
/// the lease's original central node.
cluster::Allocation nearest_first_fill(const std::vector<int>& want,
                                       const util::IntMatrix& remaining,
                                       const cluster::Topology& topology,
                                       std::size_t anchor);

/// Wait-queue service order (§III.C mentions FIFO and priority-based).
enum class QueueDiscipline {
  kFifo,           ///< arrival order, strict head-of-line blocking
  kPriority,       ///< highest Request::priority first (ties: arrival order)
  kSmallestFirst,  ///< fewest VMs first (reduces head-of-line blocking)
};

const char* to_string(QueueDiscipline d);

class Provisioner {
 public:
  Provisioner(cluster::Cloud& cloud, std::unique_ptr<PlacementPolicy> policy,
              QueueDiscipline discipline = QueueDiscipline::kFifo);

  /// Tries to serve a request immediately.  Returns the grant, or nullopt —
  /// the request was then either queued (admission kWait, or earlier
  /// requests are still waiting: strict FIFO, no queue-jumping) or rejected
  /// outright (zero VMs or over total capacity, counted in rejected_count()).
  /// Throws std::invalid_argument on a request/catalog shape mismatch.
  std::optional<Grant> request(const cluster::Request& r);

  /// Typed variant of request(): same queueing semantics, but the outcome is
  /// an explicit PlacementStatus (zero-VM and over-capacity requests get
  /// typed rejections recorded in metrics instead of an assert or a silent
  /// empty allocation).
  ProvisionResult submit(const cluster::Request& r);

  /// Releases a lease and drains the wait queue in discipline order,
  /// stopping at the first unservable candidate (head-of-line blocking
  /// within the discipline).  Returns the grants made while draining.
  std::vector<Grant> release(cluster::LeaseId lease);

  /// Advances the provisioner's clock (simulation or service seconds;
  /// monotonic — lower values are ignored).  The clock only timestamps wait-
  /// queue entries so `provisioner/queue_wait_time` can be observed when a
  /// queued request is finally served; callers that never set it record
  /// zero-length waits.
  void set_now(double now);
  double now() const { return now_; }

  std::size_t queue_length() const { return queue_.size(); }
  std::uint64_t rejected_count() const { return rejected_; }
  QueueDiscipline discipline() const { return discipline_; }
  const cluster::Cloud& cloud() const { return cloud_; }
  const PlacementPolicy& policy() const { return *policy_; }

 private:
  std::optional<Grant> try_place_and_grant(const cluster::Request& r);
  /// Appends to the wait queue and updates the queue-depth gauge.
  void enqueue(const cluster::Request& r);
  /// Index into queue_ of the next request under the discipline.
  std::size_t next_in_queue() const;

  /// A wait-queue entry: the request plus when it joined, so the wait time
  /// (provisioner/queue_wait_time) is known when it is finally served.
  struct Waiting {
    cluster::Request request;
    double enqueued_at = 0;
  };

  cluster::Cloud& cloud_;
  std::unique_ptr<PlacementPolicy> policy_;
  QueueDiscipline discipline_;
  std::deque<Waiting> queue_;  // in arrival order
  std::uint64_t rejected_ = 0;
  double now_ = 0;
};

}  // namespace vcopt::placement
