#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "cell/directory.h"
#include "cell/partition.h"
#include "cell/router.h"
#include "check/check.h"
#include "check/validators.h"
#include "cluster/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "placement/global_subopt.h"
#include "service/journal.h"
#include "util/mutex.h"

namespace vcopt::service {

namespace {

constexpr bool kChecksEnabled = static_cast<bool>(VCOPT_ENABLE_CHECKS);

struct ServiceMetrics {
  obs::Gauge& queue_depth;
  obs::HistogramMetric& batch_size;
  obs::HistogramMetric& latency;
  obs::Counter& accepted;
  obs::Counter& shed;
  obs::Counter& queue_full;
  obs::Counter& deadline_miss;
  obs::Counter& windows;
  obs::Counter& decided;
  // Per-stage wall-clock latency of the service ladder (seconds): admission
  // bookkeeping, service-clock queue wait, window formation, the placement
  // solve, and outcome publication.  Attribution for "why was this grant
  // slow" — the queue stage is service-clock, the rest are measured wall
  // durations of the corresponding code sections.
  obs::HistogramMetric& stage_admit;
  obs::HistogramMetric& stage_queue;
  obs::HistogramMetric& stage_batch;
  obs::HistogramMetric& stage_solve;
  obs::HistogramMetric& stage_commit;

  static ServiceMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static const std::vector<double> stage_buckets =
        obs::MetricsRegistry::exponential_buckets(1e-6, 2.0, 24);
    static ServiceMetrics m{
        reg.gauge("service/queue_depth"),
        reg.histogram("service/batch_size",
                      obs::MetricsRegistry::linear_buckets(1, 32, 32)),
        reg.histogram(
            "service/latency_seconds",
            obs::MetricsRegistry::exponential_buckets(1e-4, 2.0, 20)),
        reg.counter("service/accepted"),
        reg.counter("service/shed"),
        reg.counter("service/queue_full"),
        reg.counter("service/deadline_miss"),
        reg.counter("service/windows"),
        reg.counter("service/decided"),
        reg.histogram("service/stage/admit", stage_buckets),
        reg.histogram("service/stage/queue", stage_buckets),
        reg.histogram("service/stage/batch", stage_buckets),
        reg.histogram("service/stage/solve", stage_buckets),
        reg.histogram("service/stage/commit", stage_buckets),
    };
    return m;
  }
};

// Queue occupancy at which kBestEffort submissions are shed.
constexpr double kShedWatermark = 0.75;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // Stage-latency metric helper: measured wall durations feed histograms
  // only, never the journal or a placement decision.
  const auto now = std::chrono::steady_clock::now();  // NOLINT(vcopt-wall-clock)
  return std::chrono::duration<double>(now - t0).count();
}

Outcome shed_outcome(const PendingEntry& e, std::uint64_t window_id,
                     double decide_time) {
  Outcome o;
  o.seq = e.seq;
  o.request_id = e.request.id();
  o.window_id = window_id;
  o.trace_id = e.trace_id;
  o.kind = OutcomeKind::kShedDeadline;
  o.requested_vms = e.request.total_vms();
  o.submit_time = e.submit_time;
  o.decide_time = decide_time;
  return o;
}

OutcomeKind kind_from_status(placement::PlacementStatus s) {
  using placement::PlacementStatus;
  switch (s) {
    case PlacementStatus::kDegraded: return OutcomeKind::kDegraded;
    case PlacementStatus::kPartial: return OutcomeKind::kPartial;
    case PlacementStatus::kRejectedEmpty: return OutcomeKind::kRejectedEmpty;
    case PlacementStatus::kRejectedOverCapacity:
      return OutcomeKind::kRejectedOverCapacity;
    case PlacementStatus::kAbandoned: return OutcomeKind::kAbandoned;
    default:
      // kGranted/kQueued/kRepaired/kRejectedShape cannot come out of
      // plan_laddered on a shape-checked request; treat defensively as
      // abandoned.
      VCOPT_DCHECK(false) << "unexpected ladder status "
                          << placement::to_string(s);
      return OutcomeKind::kAbandoned;
  }
}

}  // namespace

const char* to_string(RequestClass c) {
  switch (c) {
    case RequestClass::kInteractive: return "interactive";
    case RequestClass::kBatch: return "batch";
    case RequestClass::kBestEffort: return "best-effort";
  }
  return "?";
}

std::optional<RequestClass> parse_request_class(const std::string& name) {
  for (RequestClass c : {RequestClass::kInteractive, RequestClass::kBatch,
                         RequestClass::kBestEffort}) {
    if (name == to_string(c)) return c;
  }
  return std::nullopt;
}

const char* to_string(AdmissionStatus s) {
  switch (s) {
    case AdmissionStatus::kAccepted: return "accepted";
    case AdmissionStatus::kShed: return "shed";
    case AdmissionStatus::kQueueFull: return "queue-full";
  }
  return "?";
}

const char* to_string(OutcomeKind k) {
  switch (k) {
    case OutcomeKind::kGranted: return "granted";
    case OutcomeKind::kDegraded: return "degraded";
    case OutcomeKind::kPartial: return "partial";
    case OutcomeKind::kAbandoned: return "abandoned";
    case OutcomeKind::kShedDeadline: return "shed-deadline";
    case OutcomeKind::kRejectedEmpty: return "rejected-empty";
    case OutcomeKind::kRejectedOverCapacity: return "rejected-over-capacity";
  }
  return "?";
}

bool has_lease(OutcomeKind k) {
  return k == OutcomeKind::kGranted || k == OutcomeKind::kDegraded ||
         k == OutcomeKind::kPartial;
}

namespace detail {

std::vector<std::vector<int>> cell_capacity_sums(
    const cell::CellPartition& partition, const cluster::Cloud& cloud) {
  const util::IntMatrix& max = cloud.inventory().max_capacity();
  std::vector<std::vector<int>> sums;
  sums.reserve(partition.cell_count());
  for (std::size_t c = 0; c < partition.cell_count(); ++c) {
    sums.push_back(partition.cell_capacity_col_sums(c, max));
  }
  return sums;
}

std::vector<std::size_t> pick_window(const std::vector<PendingEntry>& pending,
                                     placement::QueueDiscipline discipline,
                                     std::size_t max_batch) {
  std::vector<std::size_t> order(pending.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  switch (discipline) {
    case placement::QueueDiscipline::kFifo:
      break;  // pending_ is kept in seq (admission) order
    case placement::QueueDiscipline::kPriority:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return pending[a].options.priority >
                                pending[b].options.priority;
                       });
      break;
    case placement::QueueDiscipline::kSmallestFirst:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return pending[a].request.total_vms() <
                                pending[b].request.total_vms();
                       });
      break;
  }
  if (order.size() > max_batch) order.resize(max_batch);
  return order;
}

WindowPlan plan_window(const cluster::CloudSnapshot& snap,
                       const std::vector<PendingEntry>& shed,
                       const std::vector<PendingEntry>& members,
                       std::uint64_t window_id, double decide_time,
                       const ServiceOptions& options,
                       const CellPlanContext* cell_ctx) {
  VCOPT_TRACE_SPAN("service/plan_window");
  WindowPlan plan;
  plan.window_id = window_id;
  plan.decide_time = decide_time;
  plan.outcomes.reserve(shed.size() + members.size());
  for (const PendingEntry& e : shed) {
    VCOPT_DCHECK(e.options.deadline <= decide_time)
        << "shed entry seq " << e.seq << " has live deadline";
    plan.outcomes.push_back(shed_outcome(e, window_id, decide_time));
  }
  if (members.empty()) return plan;

  // The window's working view: each member sees exactly what
  // cloud.remaining() will show once the window's earlier grants land.
  // That is the cloud's own view, read through the snapshot, until the
  // first debit a later placement of the window reads; that debit copies
  // it, and later ones go to the copy (docs/performance.md, "The copy-free
  // window").  So a singleton window copies nothing.
  const util::IntMatrix* avail = snap.remaining;
  util::IntMatrix copy;
  const cluster::Topology& topology = *snap.topology;

  // Cell-scoped planning (docs/cells.md): when the window was routed to a
  // cell, every solve below runs on the cell's row-slice of the working view
  // against the cell's sub-topology (intra-cell distances equal the global
  // ones, so DC needs no correction) and scatters its allocation back to
  // global node ids.  The slice is re-taken from the view before each solve
  // so earlier grants in the window are reflected.
  const bool in_cell = cell_ctx != nullptr && cell_ctx->partition != nullptr &&
                       cell_ctx->cell != kNoCell;
  const cell::CellPartition* part = in_cell ? cell_ctx->partition : nullptr;
  const std::size_t cell_id = in_cell ? cell_ctx->cell : 0;
  const auto slice_cell = [&](const util::IntMatrix& src) {
    const cell::Cell& cl = part->cell(cell_id);
    util::IntMatrix local(cl.nodes.size(), src.cols());
    for (std::size_t i = 0; i < cl.nodes.size(); ++i) {
      for (std::size_t j = 0; j < src.cols(); ++j) {
        local(i, j) = src(cl.nodes[i], j);
      }
    }
    return local;
  };
  const auto to_global = [&](placement::Placement& pl) {
    pl.allocation = part->to_global(cell_id, pl.allocation, avail->rows());
    pl.central = part->cell(cell_id).nodes[pl.central];
  };
  // Flat plans read the working view through the cloud's class index of
  // the snapshot's state, with the nodes this window's debits have touched
  // as the overlay (docs/algorithms.md, "The class query").
  cluster::WindowOverlay touched;
  // Debits a planned grant that a later placement reads from the working
  // view, copying the view first if it is still the cloud's, and records
  // its nodes in the overlay: O(k) past the copy.  debit_from writes
  // through add_at and reads back through the const accessor, so the
  // copy's sum cache stays warm for the next placement.
  const auto debit = [&](const cluster::Allocation& alloc) {
    if (avail != &copy) {
      copy = *avail;
      avail = &copy;
    }
    if (!alloc.debit_from(copy)) {
      throw std::logic_error("plan_window: a plan oversubscribed capacity");
    }
    touched.add(alloc);
  };
  // A grant nothing later in the window reads is checked against the
  // working view instead, read-only: O(k).
  const auto check_fits = [&](const cluster::Allocation& alloc) {
    if (!alloc.fits(*avail)) {
      throw std::logic_error("plan_window: a plan oversubscribed capacity");
    }
  };

  // Batch step (Algorithm 2) for windows of size > 1: every non-empty member
  // goes into place_batch; the per-request ladder picks up whatever the batch
  // step could not admit (and classifies empty/over-capacity requests).
  // Grants are recorded batch-admissions-first, then ladder grants in member
  // order — the Cloud::grant order commit_window replays.
  std::vector<std::optional<Outcome>> slot(members.size());
  if (members.size() > 1) {
    std::vector<std::size_t> batch_pos;
    std::vector<cluster::Request> batch;
    batch_pos.reserve(members.size());
    batch.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].request.empty()) continue;
      batch_pos.push_back(i);
      batch.push_back(members[i].request);
    }
    placement::GlobalSubOpt gso;
    placement::BatchPlacement placed;
    if (in_cell) {
      const util::IntMatrix local = slice_cell(*avail);
      placed = gso.place_batch(batch, local, part->cell_topology(cell_id));
      for (placement::Placement& pl : placed.placements) to_global(pl);
    } else {
      placed = gso.place_batch(batch, *avail, topology);
    }
    // place_batch debits its admissions from a copy of its own and throws
    // on oversubscription, so the window debits them only when ladder
    // members follow.  Checked builds debit them always, so each admission
    // is validated against a view that holds the earlier ones.
    const bool debit_admissions =
        placed.admitted.size() < members.size() || kChecksEnabled;
    for (std::size_t k = 0; k < placed.admitted.size(); ++k) {
      const std::size_t i = batch_pos[placed.admitted[k]];
      const placement::Placement& pl = placed.placements[k];
      // Checked builds only: the validators take the dense matrix.
      VCOPT_VALIDATE(check::validate_allocation(
          pl.allocation.to_matrix(),  // NOLINT(vcopt-dense-allocation)
          members[i].request.counts(), *avail));
      if (debit_admissions) debit(pl.allocation);
      Outcome o;
      o.seq = members[i].seq;
      o.request_id = members[i].request.id();
      o.window_id = window_id;
      o.trace_id = members[i].trace_id;
      o.kind = OutcomeKind::kGranted;
      o.central = pl.central;
      o.distance = pl.distance;
      o.requested_vms = members[i].request.total_vms();
      o.granted_vms = pl.allocation.total_vms();
      o.submit_time = members[i].submit_time;
      o.decide_time = decide_time;
      slot[i] = std::move(o);
      plan.grants.push_back(PlannedGrant{shed.size() + i, members[i].request,
                                         pl.allocation});
    }
  }

  // Ladder fallback (Algorithm 1 rungs) for a singleton window and for
  // members the batch step left behind, in member (dispatch) order.  The
  // policy is built per plan, so plans never share mutable placement state.
  // A ladder grant is debited only when a later ladder member follows it.
  std::size_t last_ladder = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!slot[i]) last_ladder = i;
  }
  std::unique_ptr<placement::PlacementPolicy> policy;
  const auto plan_flat = [&](const cluster::Request& r) {
    VCOPT_INVARIANT(snap.index == nullptr ||
                    snap.index->version() == snap.index_version)
        << "window " << window_id
        << " planned against a class index the cloud changed after its "
           "snapshot";
    return placement::plan_laddered(
        r, cluster::CapacityView(*avail, snap.index, &touched), topology,
        *snap.capacity_col_sums, *policy);
  };
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (slot[i]) continue;
    if (!policy) policy = placement::make_policy(options.policy);
    placement::LadderPlan lp;
    if (in_cell) {
      const util::IntMatrix local = slice_cell(*avail);
      lp = placement::plan_laddered(
          members[i].request, local, part->cell_topology(cell_id),
          cell_ctx->capacity_col_sums->at(cell_id), *policy);
      if (lp.placement) {
        to_global(*lp.placement);
      } else if (lp.status == placement::PlacementStatus::kAbandoned ||
                 lp.status ==
                     placement::PlacementStatus::kRejectedOverCapacity) {
        // Spill: the cell cannot hold this member at all — retry against the
        // full capacity view.  An in-cell kPartial is not spilled; it is
        // granted as it is (docs/cells.md, ROADMAP.md item 1).
        static obs::Counter& window_spills =
            obs::MetricsRegistry::global().counter("cell/window_spills");
        window_spills.add();
        lp = plan_flat(members[i].request);
      }
    } else {
      lp = plan_flat(members[i].request);
    }
    Outcome o;
    o.seq = members[i].seq;
    o.request_id = members[i].request.id();
    o.window_id = window_id;
    o.trace_id = members[i].trace_id;
    o.kind = kind_from_status(lp.status);
    if (lp.placement) {
      o.central = lp.placement->central;
      o.distance = lp.placement->distance;
      if (i < last_ladder) {
        debit(lp.placement->allocation);
      } else {
        check_fits(lp.placement->allocation);
      }
      plan.grants.push_back(PlannedGrant{shed.size() + i,
                                         std::move(*lp.effective),
                                         std::move(lp.placement->allocation)});
    }
    o.requested_vms = lp.requested_vms;
    o.granted_vms = lp.granted_vms;
    o.submit_time = members[i].submit_time;
    o.decide_time = decide_time;
    slot[i] = std::move(o);
  }

  for (std::size_t i = 0; i < members.size(); ++i) {
    VCOPT_INVARIANT(!has_lease(slot[i]->kind) ||
                    members[i].options.deadline > decide_time)
        << "window " << window_id << " granted seq " << members[i].seq
        << " after its deadline";
    plan.outcomes.push_back(std::move(*slot[i]));
  }
  return plan;
}

void commit_window(cluster::Cloud& cloud, WindowPlan& plan) {
  VCOPT_TRACE_SPAN("service/commit_window");
#if VCOPT_ENABLE_CHECKS
  const util::IntMatrix before = cloud.remaining();
#endif
  // Served grants count where a Provisioner counts its own.
  static obs::Counter& granted_leases =
      obs::MetricsRegistry::global().counter("provisioner/grants");
  for (PlannedGrant& g : plan.grants) {
    const cluster::LeaseId lease = cloud.grant(g.effective, g.allocation);
    plan.outcomes[g.outcome_index].lease = lease;
    granted_leases.add();
  }
#if VCOPT_ENABLE_CHECKS
  // Batch capacity conservation: what this window debited from the cloud is
  // exactly the sum of the allocations it granted.
  util::IntMatrix granted(before.rows(), before.cols());
  for (const Outcome& o : plan.outcomes) {
    if (!has_lease(o.kind)) continue;
    for (const cluster::Allocation::Entry& e :
         cloud.lease_allocation(o.lease).entries()) {
      granted.add_at(e.node, e.type, e.count);
    }
  }
  VCOPT_VALIDATE(check::validate_fits(granted, before));
  util::IntMatrix expected = before;
  expected -= granted;
  VCOPT_INVARIANT(expected == cloud.remaining())
      << "window " << plan.window_id << " broke capacity conservation";
#endif
}

std::vector<Outcome> decide_window(cluster::Cloud& cloud,
                                   const std::vector<PendingEntry>& shed,
                                   const std::vector<PendingEntry>& members,
                                   std::uint64_t window_id, double decide_time,
                                   const ServiceOptions& options,
                                   const CellPlanContext* cell_ctx) {
  VCOPT_TRACE_SPAN("service/decide_window");
  const std::shared_ptr<const cluster::CloudSnapshot> snap =
      cluster::SnapshotArena().build(cloud, /*epoch=*/0, decide_time);
  WindowPlan plan = plan_window(*snap, shed, members, window_id, decide_time,
                                options, cell_ctx);
  commit_window(cloud, plan);
  return std::move(plan.outcomes);
}

}  // namespace detail

PlacementService::PlacementService(cluster::Cloud& cloud,
                                   ServiceOptions options)
    : cloud_(cloud), options_(std::move(options)),
      rebalance_planner_(options_.rebalance_policy) {
  // Fail fast on an unknown policy spec; plans build their own instance.
  placement::make_policy(options_.policy);
  if (options_.max_batch == 0) {
    throw std::invalid_argument("PlacementService: max_batch must be > 0");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("PlacementService: queue_capacity must be > 0");
  }
  if (!(options_.max_wait > 0)) {
    throw std::invalid_argument("PlacementService: max_wait must be > 0");
  }
  if (options_.journal) {
    journal_ = std::make_unique<JournalWriter>(*options_.journal);
  }
  if (options_.cell_mode()) {
    cell::CellPartitionOptions po;
    po.target_cells = options_.cells;
    po.cell_size = options_.cell_size;
    directory_ = std::make_unique<cell::CellDirectory>(cloud_, po);
    cell::CellRouterOptions ro;
    ro.shortlist = std::max<std::size_t>(1, options_.route_shortlist);
    router_ = std::make_unique<cell::CellRouter>(ro);
    cell_cap_sums_ = detail::cell_capacity_sums(directory_->partition(), cloud_);
  }
  // Three objectives on obs::SloSpec's default windows (60 s and 600 s),
  // burn alert (2) and minimum event count (10); docs/observability.md.
  obs::SloSpec latency;
  latency.name = "service/latency";
  latency.description = "placement latency (decide - submit) within bound";
  latency.objective = 0.01;
  latency.threshold = 1.0;
  slo_.declare(latency);
  obs::SloSpec shed;
  shed.name = "service/shed_rate";
  shed.description = "submissions refused at admission (shed/queue-full)";
  shed.objective = 0.05;
  slo_.declare(shed);
  obs::SloSpec dc;
  dc.name = "service/dc_per_vm";
  dc.description = "granted cluster distance per VM within bound";
  dc.objective = 0.25;
  dc.threshold = 4.0;
  slo_.declare(dc);
  if (options_.recorder != nullptr) {
    cluster::ClusterSamplerOptions so;
    so.period = options_.sample_period;
    sampler_ = std::make_unique<cluster::ClusterSampler>(
        cloud_, *options_.recorder, so);
  }
}

PlacementService::~PlacementService() { stop(); }

SubmitReceipt PlacementService::submit(const cluster::Request& r,
                                       const SubmitOptions& o) {
  if (r.type_count() != cloud_.type_count()) {
    throw std::invalid_argument(
        "PlacementService::submit: request has " +
        std::to_string(r.type_count()) + " VM types, catalog has " +
        std::to_string(cloud_.type_count()));
  }
  auto& m = ServiceMetrics::get();
  // Stage metric only (service/stage/admit).
  const auto admit_start = std::chrono::steady_clock::now();  // NOLINT(vcopt-wall-clock)
  util::MutexLock lk(mu_);
  const double now = virtual_now_;
  if (stopping_ || pending_.size() >= options_.queue_capacity) {
    ++stats_.queue_full;
    m.queue_full.add();
    slo_.record_event("service/shed_rate", now, /*good=*/false);
    return {AdmissionStatus::kQueueFull, 0};
  }
  const bool dead_on_arrival = o.deadline <= now;
  const bool watermark_shed =
      o.klass == RequestClass::kBestEffort &&
      static_cast<double>(pending_.size()) >=
          kShedWatermark * static_cast<double>(options_.queue_capacity);
  if (dead_on_arrival || watermark_shed) {
    ++stats_.shed;
    m.shed.add();
    slo_.record_event("service/shed_rate", now, /*good=*/false);
    return {AdmissionStatus::kShed, 0};
  }

  const std::uint64_t seq = next_seq_++;
  // The submit-time priority wins over whatever the caller baked into the
  // Request, so the journal (which records SubmitOptions) replays exactly.
  PendingEntry entry{cluster::Request(r.counts(), r.id(), o.priority), o, seq,
                     now, obs::derive_trace_id(seq, r.id())};
  if (directory_) {
    // Route-then-place: pick the cell whose sketch scores best for this
    // request; kNoCell (no cell admits it) plans flat at window close.
    // Routing is not journaled — replay re-plans inside the cell the window
    // record names, not whatever a re-route would pick.
    const cell::RouteDecision route =
        router_->route(entry.request, *directory_);
    if (!route.shortlist.empty()) entry.cell = route.shortlist.front();
  }
  const std::size_t routed_cell = entry.cell;
  if (journal_) journal_->submit(seq, entry.request, o, now, entry.trace_id);
  pending_.push_back(std::move(entry));
#if VCOPT_ENABLE_CHECKS
  accepted_seqs_.push_back(seq);
#endif
  ++stats_.accepted;
  m.accepted.add();
  m.queue_depth.set(static_cast<double>(pending_.size()));
  slo_.record_event("service/shed_rate", now, /*good=*/true);
  m.stage_admit.observe(seconds_since(admit_start));

  if (cell_depth_locked(routed_cell) >= options_.max_batch) {
    close_window_locked(now, "size", routed_cell);
  }
  return {AdmissionStatus::kAccepted, seq};
}

void PlacementService::advance_to(double t) {
  util::MutexLock lk(mu_);
  if (t <= virtual_now_) return;  // the clock is monotonic
  run_windows_until_locked(t);
  virtual_now_ = std::max(virtual_now_, t);
}

void PlacementService::flush() {
  util::MutexLock lk(mu_);
  while (!pending_.empty()) {
    close_window_locked(virtual_now_, "flush", pending_.front().cell);
  }
}

void PlacementService::stop() {
  util::MutexLock lk(mu_);
  stopping_ = true;
  while (!pending_.empty()) {
    close_window_locked(virtual_now_, "flush", pending_.front().cell);
  }
  VCOPT_VALIDATE(check::validate_exact_cover(accepted_seqs_, decided_seqs_,
                                             "service accepted-vs-decided"));
}

void PlacementService::release(cluster::LeaseId lease) {
  util::MutexLock lk(mu_);
  if (journal_) journal_->release(lease, virtual_now_);
  cloud_.release(lease);
  if (sampler_) sampler_->maybe_sample(virtual_now_);
  maybe_rebalance_locked(virtual_now_);
}

std::vector<Outcome> PlacementService::take_outcomes() {
  util::MutexLock lk(mu_);
  std::vector<Outcome> out;
  out.reserve(decided_.size());
  for (auto& [seq, outcome] : decided_) out.push_back(std::move(outcome));
  decided_.clear();
  return out;
}

double PlacementService::now() const {
  util::MutexLock lk(mu_);
  return virtual_now_;
}

std::size_t PlacementService::queue_depth() const {
  util::MutexLock lk(mu_);
  return pending_.size();
}

ServiceStats PlacementService::stats() const {
  util::MutexLock lk(mu_);
  return stats_;
}

void PlacementService::run_windows_until_locked(double t) {
  while (!pending_.empty()) {
    // pending_ stays in admission order (window picks compact it in place),
    // so the front entry is always the oldest.
    const double due = pending_.front().submit_time + options_.max_wait;
    if (due > t) break;
    // Close at the exact expiry instant, so journal timestamps (and deadline
    // sheds) are independent of how callers chunk their advance_to() calls.
    // Cell mode: the expiring (oldest) entry's cell is the window that
    // closes; other cells' entries keep waiting for their own due times.
    virtual_now_ = std::max(virtual_now_, due);
    close_window_locked(virtual_now_, "wait", pending_.front().cell);
  }
}

std::size_t PlacementService::cell_depth_locked(std::size_t cell) const {
  std::size_t n = 0;
  for (const PendingEntry& e : pending_) {
    if (e.cell == cell) ++n;
  }
  return n;
}

std::optional<detail::CellPlanContext> PlacementService::make_cell_ctx(
    std::size_t cell) const {
  if (!directory_) return std::nullopt;
  detail::CellPlanContext ctx;
  ctx.partition = &directory_->partition();
  ctx.capacity_col_sums = &cell_cap_sums_;
  ctx.cell = cell;
  return ctx;
}

void PlacementService::close_window_locked(double close_time,
                                           const char* reason,
                                           std::size_t cell) {
  auto& m = ServiceMetrics::get();
  // Stage metrics only (service/stage/batch|solve|commit).
  const auto batch_start = std::chrono::steady_clock::now();  // NOLINT(vcopt-wall-clock)
  // Deadline sheds come out of the whole pending set — every cell's — not
  // just this window: an expired entry must never linger to be "granted" by
  // a later window.
  std::vector<PendingEntry> shed;
  std::vector<PendingEntry> live;
  live.reserve(pending_.size());
  for (PendingEntry& e : pending_) {
    if (e.options.deadline <= close_time) {
      shed.push_back(std::move(e));
    } else {
      live.push_back(std::move(e));
    }
  }
  // Only entries routed to this window's cell are candidates (flat mode:
  // every entry carries kNoCell, so the filter keeps the whole queue).
  std::vector<std::size_t> eligible;
  std::vector<PendingEntry> candidates;
  eligible.reserve(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i].cell == cell) {
      eligible.push_back(i);
      candidates.push_back(live[i]);
    }
  }
  const std::vector<std::size_t> picked =
      detail::pick_window(candidates, options_.discipline, options_.max_batch);
  std::vector<bool> taken(live.size(), false);
  std::vector<PendingEntry> members;
  members.reserve(picked.size());
  for (std::size_t k : picked) {
    members.push_back(live[eligible[k]]);
    taken[eligible[k]] = true;
  }
  pending_.clear();
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!taken[i]) pending_.push_back(std::move(live[i]));
  }

  const std::uint64_t window_id = next_window_++;
  if (journal_) {
    std::vector<std::uint64_t> member_seqs, shed_seqs;
    member_seqs.reserve(members.size());
    shed_seqs.reserve(shed.size());
    for (const PendingEntry& e : members) member_seqs.push_back(e.seq);
    for (const PendingEntry& e : shed) shed_seqs.push_back(e.seq);
    journal_->window(window_id, close_time, reason, member_seqs, shed_seqs,
                     cell);
  }
  m.stage_batch.observe(seconds_since(batch_start));

  const auto solve_start = std::chrono::steady_clock::now();  // NOLINT(vcopt-wall-clock)
  const std::optional<detail::CellPlanContext> ctx = make_cell_ctx(cell);
  std::vector<Outcome> outcomes = detail::decide_window(
      cloud_, shed, members, window_id, close_time, options_,
      ctx ? &*ctx : nullptr);
  m.stage_solve.observe(seconds_since(solve_start));

  const auto commit_start = std::chrono::steady_clock::now();  // NOLINT(vcopt-wall-clock)
  publish_outcomes_locked(shed.size(), members.size(), close_time,
                          std::move(outcomes));
  maybe_rebalance_locked(close_time);
  m.stage_commit.observe(seconds_since(commit_start));
}

void PlacementService::publish_outcomes_locked(std::size_t shed_count,
                                               std::size_t member_count,
                                               double sample_time,
                                               std::vector<Outcome> outcomes) {
  auto& m = ServiceMetrics::get();
  ++stats_.windows;
  stats_.deadline_missed += shed_count;
  m.windows.add();
  m.deadline_miss.add(shed_count);
  m.batch_size.observe(static_cast<double>(member_count));
  for (Outcome& o : outcomes) {
    const double latency = o.decide_time - o.submit_time;
    m.latency.observe(latency);
    m.stage_queue.observe(latency);
    slo_.record_value("service/latency", o.decide_time, latency);
    if (has_lease(o.kind) && o.granted_vms > 0) {
      slo_.record_value("service/dc_per_vm", o.decide_time,
                        o.distance / static_cast<double>(o.granted_vms));
    }
#if VCOPT_ENABLE_CHECKS
    decided_seqs_.push_back(o.seq);
#endif
    ++stats_.decided;
    m.decided.add();
    decided_.emplace(o.seq, std::move(o));
  }
  m.queue_depth.set(static_cast<double>(pending_.size()));
  if (sampler_) sampler_->maybe_sample(sample_time);
}

void PlacementService::maybe_rebalance_locked(double t) {
  if (!options_.rebalance) return;
  if (t < last_rebalance_ + options_.rebalance_policy.tick_period) return;
  last_rebalance_ = t;

  // The service has no moves in flight between passes: each pass commits
  // its moves before it returns.
  const placement::RoundPlan plan =
      rebalance_planner_.plan(cloud_, t, /*slo_hot=*/false, {});
  if (plan.moves.empty()) return;

  // Write-ahead: the journal records the exact moves before they execute,
  // so replay re-applies the identical capacity evolution.
  if (journal_) {
    std::vector<RebalanceMove> journal_moves;
    journal_moves.reserve(plan.moves.size());
    for (const placement::PlannedMove& mv : plan.moves) {
      journal_moves.push_back(RebalanceMove{mv.lease, mv.move.from_node,
                                            mv.move.to_node, mv.move.type});
    }
    journal_->rebalance(t, journal_moves);
  }

  auto& reg = obs::MetricsRegistry::global();
  std::size_t committed = 0;
  for (const placement::PlannedMove& mv : plan.moves) {
    reg.counter("rebalance/migrations_attempted").add(1);
    // In-lock apply: the plan was computed against the cloud this lock
    // protects, so each move lands on exactly the capacity it planned for
    // (later moves may consume slots earlier ones freed — hence commit
    // immediately, in plan order).
    const std::uint64_t ticket = cloud_.begin_migration(
        mv.lease, mv.move.from_node, mv.move.to_node, mv.move.type);
    if (ticket == 0 || !cloud_.commit_migration(ticket)) {
      VCOPT_DCHECK(false) << "planned migration of lease " << mv.lease
                          << " refused under the service lock";
      reg.counter("rebalance/migrations_rolled_back").add(1);
      continue;
    }
    ++committed;
    rebalance_planner_.record_commit(mv, t);
  }
  if (committed > 0) {
    ++stats_.rebalance_passes;
    stats_.rebalance_migrations += committed;
  }
  if (sampler_) sampler_->maybe_sample(t);
}

}  // namespace vcopt::service
