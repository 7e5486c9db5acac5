// vcopt::service — a placement service in front of the cloud.
//
// The paper's Global Shortest Distance machinery (Def. 4, Algorithm 2) only
// pays off when several requests are decided *together*; this layer is where
// concurrent traffic is aggregated into decision windows so the batched path
// is reachable from a realistic serving front-end:
//
//   producers ──submit()──▶ admission queue ──window──▶ decide ──▶ grants
//                 │  (bounded, shed/queue-full)  │
//                 └── NDJSON journal (append before decide) ─▶ replay
//
// Micro-batching window: the open window closes when it holds `max_batch`
// accepted requests OR when the oldest pending request has waited `max_wait`
// seconds, whichever comes first (plus explicit flush()/stop()).  A closed
// window of size 1 is decided through the per-request Algorithm-1 ladder
// (placement::plan_laddered); larger windows go through Algorithm 2
// (GlobalSubOpt::place_batch), with the ladder as the per-request fallback
// for window members the batch step could not admit.
//
// The service clock is virtual: simulated seconds that only advance_to()
// moves.  A window closes on size inside the submit() that fills it, on
// expiry inside the advance_to() that crosses its due time (at the exact
// expiry instant), and in flush()/stop().  Same submit sequence ⇒
// bit-identical journal, decisions and grant records — the replay guarantee.
// The service starts no thread.
//
// Thread-safety: every public method is safe to call from any thread; one
// mutex serialises admission, window bookkeeping, decisions and the journal,
// so the journal order IS the admission order.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "cluster/request.h"
#include "cluster/snapshot.h"
#include "obs/request_context.h"
#include "obs/slo.h"
#include "placement/migration.h"
#include "placement/provisioner.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vcopt::cell {
class CellDirectory;
class CellPartition;
class CellRouter;
}
namespace vcopt::cluster {
class ClusterSampler;
}
namespace vcopt::obs {
class Recorder;
}

namespace vcopt::service {

/// "No deadline": infinitely far in the future on the service clock.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// "Not routed to a cell": flat-mode entries and windows carry this cell id,
/// as do cell-mode submissions no cell admits (their windows plan flat).
inline constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

/// Traffic class of a submission; decides who is shed first under pressure.
enum class RequestClass {
  kInteractive,  ///< latency-sensitive; never watermark-shed
  kBatch,        ///< default; never watermark-shed
  kBestEffort,   ///< shed once the queue is 3/4 full
};

const char* to_string(RequestClass c);
std::optional<RequestClass> parse_request_class(const std::string& name);

/// Per-submission options (the request itself carries id + VM counts).
struct SubmitOptions {
  int priority = 0;             ///< kPriority window ordering; larger = first
  double deadline = kNoDeadline;  ///< absolute service-clock instant; a
                                  ///< request not decided by then is shed
  RequestClass klass = RequestClass::kBatch;
};

/// Admission-control verdict, returned synchronously from submit().
enum class AdmissionStatus {
  kAccepted,   ///< journaled and pending; an Outcome will follow
  kShed,       ///< dropped by policy (dead-on-arrival deadline, or
               ///< best-effort class with the queue 3/4 full)
  kQueueFull,  ///< bounded queue at capacity — explicit backpressure
};

const char* to_string(AdmissionStatus s);

/// Receipt for one submit(); `seq` identifies the accepted request in the
/// journal and in its eventual Outcome (0 when not accepted).
struct SubmitReceipt {
  AdmissionStatus admission = AdmissionStatus::kQueueFull;
  std::uint64_t seq = 0;
};

/// Terminal fate of an accepted request.  The names are what outcome and
/// journal records carry, so they stay as they are.
enum class OutcomeKind {
  kGranted,        ///< full allocation admitted by Algorithm 2's batch step
  kDegraded,       ///< full allocation made by the ladder, for a singleton
                   ///< window or a member the batch step left behind
  kPartial,        ///< best-effort allocation, fewer VMs than requested
  kAbandoned,      ///< nothing could be placed
  kShedDeadline,   ///< deadline passed before its window was decided
  kRejectedEmpty,  ///< zero-VM request
  kRejectedOverCapacity,  ///< exceeds total capacity, can never be served
};

const char* to_string(OutcomeKind k);
/// True when the outcome carries a live lease (granted/degraded/partial).
bool has_lease(OutcomeKind k);

/// Terminal decision for one accepted request.
struct Outcome {
  std::uint64_t seq = 0;
  std::uint64_t request_id = 0;
  std::uint64_t window_id = 0;
  /// Request-scoped trace id (obs::derive_trace_id of seq and request id):
  /// links this outcome to its journal submit record and stage spans.
  std::uint64_t trace_id = 0;
  OutcomeKind kind = OutcomeKind::kAbandoned;
  cluster::LeaseId lease = 0;  ///< 0 unless has_lease(kind)
  std::size_t central = 0;
  double distance = 0;
  int requested_vms = 0;
  int granted_vms = 0;
  double submit_time = 0;
  double decide_time = 0;
};

/// An accepted submission waiting for its window (also the unit the journal
/// and the replay driver exchange).
struct PendingEntry {
  cluster::Request request;
  SubmitOptions options;
  std::uint64_t seq = 0;
  double submit_time = 0;
  std::uint64_t trace_id = 0;  ///< carried through to the Outcome
  /// Cell the request was routed to at admission (cell mode); kNoCell in
  /// flat mode and for requests no cell admits.  Windows close per cell.
  std::size_t cell = kNoCell;
};

struct ServiceOptions {
  std::size_t max_batch = 8;   ///< window closes at this many pending
  double max_wait = 0.010;     ///< ... or when the oldest waited this long (s)
  /// Pending bound; beyond => kQueueFull.  kBestEffort submissions are shed
  /// once 3/4 of it is pending.
  std::size_t queue_capacity = 256;
  placement::QueueDiscipline discipline = placement::QueueDiscipline::kFifo;
  std::string policy = "online-heuristic";  ///< placement::make_policy spec
  std::ostream* journal = nullptr;  ///< NDJSON sink; null = no journal
  /// Optional time-series recorder: when set, a cluster::ClusterSampler
  /// records per-node load/free, utilization, lease count and fragmentation
  /// on every window close and release (at most once per `sample_period`
  /// service seconds).  Telemetry only; no decision reads it.  Must outlive
  /// the service.
  obs::Recorder* recorder = nullptr;
  double sample_period = 1.0;
  /// Opt-in drift-repair pass (docs/robustness.md): after a window commit
  /// or release, at most once per tick_period, placement::RoundPlanner
  /// plans moves off the DC record the cloud keeps on every lease, and the
  /// service journals them write-ahead (a "rebalance" record, so replay
  /// reproduces them) and commits them at once.  It reads no telemetry.
  bool rebalance = false;
  placement::RebalancePolicy rebalance_policy{
      .tick_period = 5.0, .max_moves_per_round = 2, .lease_cooldown = 10.0};
  /// Sharded cell serving (docs/cells.md): with either knob > 0 the service
  /// partitions the cloud into rack-aligned cells, routes each accepted
  /// request to a cell at admission (O(cells) sketch scoring), and closes
  /// decision windows per cell — so a window's Algorithm 1/2 solve scans one
  /// cell's rows instead of the whole cloud.  A member is re-planned flat,
  /// over the full capacity view, only when its in-cell ladder ends in
  /// kAbandoned or kRejectedOverCapacity; an in-cell kPartial is granted as
  /// it is, so routed serving can grant part of a request that flat serving
  /// grants in full (ROADMAP.md item 1).  Journal window records carry the
  /// cell id and replay re-plans inside the recorded cell, so the replay
  /// guarantee is unchanged.  Both zero = flat serving.
  std::size_t cells = 0;      ///< target cell count (cell::CellPartitionOptions)
  std::size_t cell_size = 0;  ///< target nodes per cell (alternative knob)
  /// Cells the router keeps per request.  Serving plans only the first
  /// (RoutedPolicy, outside the service, solves the whole shortlist).
  std::size_t route_shortlist = 2;
  bool cell_mode() const { return cells > 0 || cell_size > 0; }
};

namespace detail {

/// Cell scope for one window plan (cell mode only).  `partition` and
/// `capacity_col_sums` are immutable after service construction; `cell` is
/// the window's routed cell (kNoCell = plan flat even in cell mode).
struct CellPlanContext {
  const cell::CellPartition* partition = nullptr;
  /// Per-cell, per-type column sums of the cloud's static max-capacity
  /// matrix (indexed by cell id) — the over-capacity rung's bound when the
  /// ladder runs inside a cell.  Precompute with cell_capacity_sums().
  const std::vector<std::vector<int>>* capacity_col_sums = nullptr;
  std::size_t cell = kNoCell;
};

/// Precomputes every cell's per-type max-capacity column sums from the
/// cloud's (static) max-capacity matrix, for CellPlanContext.
std::vector<std::vector<int>> cell_capacity_sums(
    const cell::CellPartition& partition, const cluster::Cloud& cloud);

/// One grant a planned window wants to apply: the (possibly clipped)
/// request it should be recorded under, the allocation, and which of the
/// plan's outcomes receives the lease id once the grant lands.
struct PlannedGrant {
  std::size_t outcome_index = 0;
  cluster::Request effective;
  cluster::Allocation allocation;
};

/// A fully evaluated — but uncommitted — decision window.  `outcomes` are
/// ordered shed-first then member order with `lease` still 0; `grants` are
/// in Cloud::grant order (batch-step admissions first, then ladder grants
/// in member order), so committing them assigns lease ids deterministically.
struct WindowPlan {
  std::uint64_t window_id = 0;
  double decide_time = 0;
  std::vector<Outcome> outcomes;
  std::vector<PlannedGrant> grants;
};

/// Evaluates one closed window against an immutable snapshot: sheds `shed`
/// (deadline-expired) entries, then places `members` — Algorithm 2 for
/// |members| > 1, the per-request ladder (placement::plan_laddered) for a
/// singleton and for members the batch step could not admit.  Pure: reads
/// only the snapshot and mutates nothing.
/// The snapshot points at the cloud's own free view, so the cloud must not
/// change between the snapshot and this call; checked builds assert the
/// index's version.  Placements read that view until a grant must be seen
/// by a later placement of the window: that grant copies it, and the
/// window's later grants are debited from the copy (batch admissions only
/// when ladder members follow, a ladder grant only when a later ladder
/// member does).  A grant nothing later reads is checked against the view,
/// not debited, so a singleton window copies nothing.  Flat ladder plans
/// read the view through the cloud's class index (snap.index) with the
/// debited grants' nodes as the overlay (cluster::CapacityView).
/// With a non-null `cell_ctx` naming a cell, placements run against the
/// cell's row-slice and sub-topology and scatter back to global node ids;
/// members the cell cannot hold spill to a flat plan (docs/cells.md).
WindowPlan plan_window(const cluster::CloudSnapshot& snap,
                       const std::vector<PendingEntry>& shed,
                       const std::vector<PendingEntry>& members,
                       std::uint64_t window_id, double decide_time,
                       const ServiceOptions& options,
                       const CellPlanContext* cell_ctx = nullptr);

/// Applies a plan's grants to the cloud in order, filling each granted
/// outcome's lease id.  With checks enabled, verifies the window's capacity
/// conservation.
void commit_window(cluster::Cloud& cloud, WindowPlan& plan);

/// Decides one closed window: plan_window against a snapshot of `cloud`,
/// then commit_window.  Grants mutate `cloud`; outcomes are emitted
/// shed-first, then in member order.  Shared verbatim by the live service
/// and the journal replayer, so a replayed window cannot diverge from the
/// original decision.
std::vector<Outcome> decide_window(cluster::Cloud& cloud,
                                   const std::vector<PendingEntry>& shed,
                                   const std::vector<PendingEntry>& members,
                                   std::uint64_t window_id, double decide_time,
                                   const ServiceOptions& options,
                                   const CellPlanContext* cell_ctx = nullptr);

/// Window-membership pick under a queue discipline: indices into `pending`
/// of up to `max_batch` entries, in dispatch order (kFifo: seq order;
/// kPriority: priority desc, ties by seq; kSmallestFirst: VM count asc,
/// ties by seq).
std::vector<std::size_t> pick_window(const std::vector<PendingEntry>& pending,
                                     placement::QueueDiscipline discipline,
                                     std::size_t max_batch);

}  // namespace detail

class JournalWriter;

/// Aggregate counters (also exported through vcopt::obs as service/*).
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;           ///< admission-time sheds
  std::uint64_t queue_full = 0;
  std::uint64_t deadline_missed = 0;  ///< shed-on-deadline at window close
  std::uint64_t windows = 0;
  std::uint64_t decided = 0;        ///< outcomes emitted
  // Drift-repair pass (all zero unless options.rebalance).
  std::uint64_t rebalance_passes = 0;      ///< passes that applied >= 1 move
  std::uint64_t rebalance_migrations = 0;  ///< committed live migrations
};

class PlacementService {
 public:
  /// The cloud must outlive the service.  Throws std::invalid_argument on a
  /// bad options.policy spec or non-positive max_batch/queue_capacity.
  PlacementService(cluster::Cloud& cloud, ServiceOptions options);
  /// Stops the service (flushing pending work) if stop() was not called.
  ~PlacementService();
  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  /// Admits a request (journaled, queued for the open window), sheds it, or
  /// reports backpressure.  Thread-safe.  When the request fills its window
  /// to max_batch, this call closes and decides that window before it
  /// returns.  Throws std::invalid_argument on a request/catalog shape
  /// mismatch.
  SubmitReceipt submit(const cluster::Request& r, const SubmitOptions& o = {});

  /// Advances the clock to `t` (monotonic; lower values are ignored),
  /// closing every window whose max_wait expires on the way, at its exact
  /// expiry instant.
  void advance_to(double t);

  /// Closes and decides windows until no pending request remains.
  void flush();

  /// Graceful shutdown: rejects further submits (kQueueFull), flushes all
  /// pending windows, and — with checks enabled — validates journal/grant
  /// reconciliation (every accepted seq has exactly one outcome).
  /// Idempotent.
  void stop();

  /// Releases a granted lease back to the cloud (journaled, so replay
  /// reproduces the capacity evolution).  Thread-safe.
  void release(cluster::LeaseId lease);

  /// Drains decided outcomes in seq order (each outcome is delivered exactly
  /// once).
  std::vector<Outcome> take_outcomes();

  double now() const;              ///< current service-clock seconds
  std::size_t queue_depth() const; ///< pending (accepted, undecided) count
  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }
  const cluster::Cloud& cloud() const { return cloud_; }
  /// Per-service SLO state: service/latency, service/shed_rate and
  /// service/dc_per_vm (docs/observability.md gives their fixed values).
  const obs::SloTracker& slo() const { return slo_; }

 private:
  /// Closes one window at `close_time` (lock held): picks members by
  /// discipline among the entries routed to `cell` (flat mode: every entry
  /// carries kNoCell, so the filter is a no-op), sheds expired entries from
  /// the whole queue, journals the window record write-ahead, decides the
  /// window and publishes its outcomes.
  void close_window_locked(double close_time, const char* reason,
                           std::size_t cell) VCOPT_REQUIRES(mu_);
  /// Pending entries routed to `cell` (flat mode: the whole queue depth).
  std::size_t cell_depth_locked(std::size_t cell) const VCOPT_REQUIRES(mu_);
  /// Cell scope for a window routed to `cell`; nullopt outside cell mode.
  std::optional<detail::CellPlanContext> make_cell_ctx(std::size_t cell) const;
  /// Closes every window due at or before `t` (lock held).
  void run_windows_until_locked(double t) VCOPT_REQUIRES(mu_);
  /// Stats/SLO/decided_ publication for one decided window.
  void publish_outcomes_locked(std::size_t shed_count,
                               std::size_t member_count, double sample_time,
                               std::vector<Outcome> outcomes)
      VCOPT_REQUIRES(mu_);
  /// Opt-in drift-repair pass, invoked after every capacity mutation
  /// (window commit, release).  Journals the applied moves write-ahead.
  void maybe_rebalance_locked(double t) VCOPT_REQUIRES(mu_);

  cluster::Cloud& cloud_;        // internally synchronised under mu_ here
  ServiceOptions options_;       // immutable after construction
  obs::SloTracker slo_;          // internally synchronised
  /// Null without a recorder.  The pointer is set once in the ctor but the
  /// sampler itself is driven only under mu_ (window close / release).
  std::unique_ptr<cluster::ClusterSampler> sampler_ VCOPT_PT_GUARDED_BY(mu_);

  mutable util::Mutex mu_;
  // Sharded cell serving (options_.cell_mode(); all null/empty otherwise).
  // Set once in the ctor.  The directory's sketches mutate whenever the
  // cloud's capacity does — and every capacity mutation here happens under
  // mu_ — while the partition it owns (and the precomputed capacity sums)
  // are immutable.
  std::unique_ptr<cell::CellDirectory> directory_;
  std::unique_ptr<cell::CellRouter> router_;
  std::vector<std::vector<int>> cell_cap_sums_;
  std::unique_ptr<JournalWriter> journal_ VCOPT_GUARDED_BY(mu_)
      VCOPT_PT_GUARDED_BY(mu_);
  std::vector<PendingEntry> pending_ VCOPT_GUARDED_BY(mu_);
  /// seq -> outcome, until taken.
  std::map<std::uint64_t, Outcome> decided_ VCOPT_GUARDED_BY(mu_);
  ServiceStats stats_ VCOPT_GUARDED_BY(mu_);
  std::uint64_t next_seq_ VCOPT_GUARDED_BY(mu_) = 1;
  std::uint64_t next_window_ VCOPT_GUARDED_BY(mu_) = 1;
  // Drift-repair pass state (options_.rebalance only).
  double last_rebalance_ VCOPT_GUARDED_BY(mu_) = 0;
  placement::RoundPlanner rebalance_planner_ VCOPT_GUARDED_BY(mu_);
  double virtual_now_ VCOPT_GUARDED_BY(mu_) = 0;
  bool stopping_ VCOPT_GUARDED_BY(mu_) = false;
  // Reconciliation ledger for the stop()-time VCOPT_VALIDATE (accepted seqs
  // must be covered exactly once by outcomes).  Filled only when checks are
  // compiled in, so a Release service does not grow it per request.
  std::vector<std::uint64_t> accepted_seqs_ VCOPT_GUARDED_BY(mu_);
  std::vector<std::uint64_t> decided_seqs_ VCOPT_GUARDED_BY(mu_);
};

}  // namespace vcopt::service
