#include "placement/provisioner.h"

#include <algorithm>
#include <stdexcept>

#include "check/check.h"
#include "check/validators.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vcopt::placement {

namespace {

struct ProvisionerMetrics {
  obs::Counter& grants;
  obs::Counter& rejections;
  obs::Counter& queued;
  obs::Gauge& queue_depth;
  obs::Counter& reject_empty;
  obs::Counter& reject_shape;
  obs::Counter& reject_over_capacity;
  obs::Counter& ladder_heuristic;
  obs::Counter& ladder_partial;
  obs::Counter& ladder_abandoned;
  obs::HistogramMetric& queue_wait;

  static ProvisionerMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static ProvisionerMetrics m{
        reg.counter("provisioner/grants"),
        reg.counter("provisioner/rejections"),
        reg.counter("provisioner/queued"),
        reg.gauge("provisioner/queue_depth"),
        reg.counter("provisioner/reject_empty"),
        reg.counter("provisioner/reject_shape"),
        reg.counter("provisioner/reject_over_capacity"),
        reg.counter("provisioner/ladder_heuristic"),
        reg.counter("provisioner/ladder_partial"),
        reg.counter("provisioner/ladder_abandoned"),
        reg.histogram("provisioner/queue_wait_time",
                      obs::MetricsRegistry::exponential_buckets(0.001, 2.0, 24)),
    };
    return m;
  }
};

/// The partial rung's anchor: the node with the largest remaining capacity
/// (ties: lowest index), read from the view's row sums, which the serving
/// path's working view keeps warm.
std::size_t most_free_node(const util::IntMatrix& remaining) {
  std::size_t anchor = 0;
  int anchor_cap = -1;
  for (std::size_t i = 0; i < remaining.rows(); ++i) {
    const int cap = remaining.row_sum(i);
    if (cap > anchor_cap) {
      anchor_cap = cap;
      anchor = i;
    }
  }
  return anchor;
}

}  // namespace

cluster::Allocation nearest_first_fill(const std::vector<int>& want,
                                       const util::IntMatrix& remaining,
                                       const cluster::Topology& topology,
                                       std::size_t anchor) {
  const std::vector<std::size_t> order = topology.nodes_by_distance(anchor);
  std::vector<cluster::Allocation::Entry> taken;
  for (std::size_t j = 0; j < remaining.cols(); ++j) {
    int left = want[j];
    for (const std::size_t i : order) {
      if (left == 0) break;
      const int take = std::min(left, remaining(i, j));
      if (take > 0) {
        taken.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j), take});
        left -= take;
      }
    }
  }
  // Each (node, type) is taken at most once: sorted, they are the entries.
  std::sort(taken.begin(), taken.end(), cluster::Allocation::cell_less);
  return cluster::Allocation::from_entries(remaining.rows(), remaining.cols(),
                                           std::move(taken));
}

const char* to_string(PlacementStatus s) {
  switch (s) {
    case PlacementStatus::kGranted: return "granted";
    case PlacementStatus::kQueued: return "queued";
    case PlacementStatus::kRejectedEmpty: return "rejected-empty";
    case PlacementStatus::kRejectedShape: return "rejected-shape";
    case PlacementStatus::kRejectedOverCapacity: return "rejected-over-capacity";
    case PlacementStatus::kRepaired: return "repaired";
    case PlacementStatus::kDegraded: return "degraded";
    case PlacementStatus::kPartial: return "partial";
    case PlacementStatus::kAbandoned: return "abandoned";
  }
  return "?";
}

bool is_terminal(PlacementStatus s) { return s != PlacementStatus::kQueued; }

const char* to_string(QueueDiscipline d) {
  switch (d) {
    case QueueDiscipline::kFifo: return "fifo";
    case QueueDiscipline::kPriority: return "priority";
    case QueueDiscipline::kSmallestFirst: return "smallest-first";
  }
  return "?";
}

Provisioner::Provisioner(cluster::Cloud& cloud,
                         std::unique_ptr<PlacementPolicy> policy,
                         QueueDiscipline discipline)
    : cloud_(cloud), policy_(std::move(policy)), discipline_(discipline) {
  if (!policy_) throw std::invalid_argument("Provisioner: null policy");
}

void Provisioner::set_now(double now) { now_ = std::max(now_, now); }

std::size_t Provisioner::next_in_queue() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    switch (discipline_) {
      case QueueDiscipline::kFifo:
        return 0;
      case QueueDiscipline::kPriority:
        if (queue_[i].request.priority() > queue_[best].request.priority()) {
          best = i;
        }
        break;
      case QueueDiscipline::kSmallestFirst:
        if (queue_[i].request.total_vms() < queue_[best].request.total_vms()) {
          best = i;
        }
        break;
    }
  }
  return best;
}

std::optional<Grant> Provisioner::try_place_and_grant(const cluster::Request& r) {
  // The cloud's live view and its class index, not a copy: nothing mutates
  // the cloud until the grant below.
  auto placed = policy_->place(r, cloud_.capacity_view(), cloud_.topology());
  if (!placed) return std::nullopt;
  // Catch a misbehaving policy with a contextual dump BEFORE the grant
  // mutates the inventory (which would only throw a bare invalid_argument).
  // Checked builds only: the validators take the dense matrix.
  VCOPT_VALIDATE(check::validate_allocation(
      placed->allocation.to_matrix(),  // NOLINT(vcopt-dense-allocation)
      r.counts(), cloud_.remaining()));
  const cluster::LeaseId lease = cloud_.grant(r, placed->allocation);
  ProvisionerMetrics::get().grants.add();
  return Grant{lease, r.id(), std::move(*placed)};
}

void Provisioner::enqueue(const cluster::Request& r) {
  queue_.push_back(Waiting{r, now_});
  auto& m = ProvisionerMetrics::get();
  m.queued.add();
  m.queue_depth.set(static_cast<double>(queue_.size()));
}

std::optional<Grant> Provisioner::request(const cluster::Request& r) {
  ProvisionResult res = submit(r);
  if (res.status == PlacementStatus::kRejectedShape) {
    throw std::invalid_argument("Provisioner::request: type count mismatch");
  }
  return std::move(res.grant);
}

ProvisionResult Provisioner::submit(const cluster::Request& r) {
  VCOPT_TRACE_SPAN("provisioner/request");
  auto& m = ProvisionerMetrics::get();
  ProvisionResult res;
  res.requested_vms = r.total_vms();
  if (r.type_count() != cloud_.type_count()) {
    res.status = PlacementStatus::kRejectedShape;
    m.reject_shape.add();
    return res;
  }
  if (r.empty()) {
    // A zero-VM request would produce a silently empty lease; reject it
    // loudly instead of tying up a lease id and a grant record.
    ++rejected_;
    res.status = PlacementStatus::kRejectedEmpty;
    m.reject_empty.add();
    m.rejections.add();
    return res;
  }
  switch (cloud_.admit(r)) {
    case cluster::Admission::kReject:
      ++rejected_;
      res.status = PlacementStatus::kRejectedOverCapacity;
      m.reject_over_capacity.add();
      m.rejections.add();
      return res;
    case cluster::Admission::kWait:
      enqueue(r);
      res.status = PlacementStatus::kQueued;
      return res;
    case cluster::Admission::kAccept:
      break;
  }
  // Strict FIFO fairness: while earlier requests are waiting, later arrivals
  // may not jump the queue even if they would fit right now.
  if (!queue_.empty()) {
    enqueue(r);
    res.status = PlacementStatus::kQueued;
    return res;
  }
  auto grant = try_place_and_grant(r);
  if (!grant) {
    // Aggregate availability was sufficient but the policy could not build
    // an allocation (should not happen for the built-in policies; keep the
    // request queued rather than dropping it).
    enqueue(r);
    res.status = PlacementStatus::kQueued;
    return res;
  }
  res.granted_vms = grant->placement.allocation.total_vms();
  res.grant = std::move(grant);
  res.status = PlacementStatus::kGranted;
  return res;
}

LadderPlan plan_laddered(const cluster::Request& r,
                         const cluster::CapacityView& view,
                         const cluster::Topology& topology,
                         const std::vector<int>& capacity_col_sums,
                         PlacementPolicy& policy) {
  const util::IntMatrix& remaining = view.matrix();
  auto& m = ProvisionerMetrics::get();
  LadderPlan plan;
  plan.requested_vms = r.total_vms();
  if (r.type_count() != capacity_col_sums.size()) {
    plan.status = PlacementStatus::kRejectedShape;
    m.reject_shape.add();
    return plan;
  }
  if (r.empty()) {
    plan.status = PlacementStatus::kRejectedEmpty;
    m.reject_empty.add();
    m.rejections.add();
    return plan;
  }
  // Inventory::admit's kReject rung verbatim: some type exceeds total
  // capacity (which includes drained/failed nodes), so the request can
  // never be served.
  for (std::size_t j = 0; j < capacity_col_sums.size(); ++j) {
    if (r.count(j) > capacity_col_sums[j]) {
      plan.status = PlacementStatus::kRejectedOverCapacity;
      m.reject_over_capacity.add();
      m.rejections.add();
      return plan;
    }
  }

  // The caller's policy places the whole request, or the best-effort fill
  // places what availability allows.
  if (auto placed = policy.place(r, view, topology)) {
    plan.status = PlacementStatus::kDegraded;
    plan.placement = std::move(*placed);
    plan.effective = r;
    m.ladder_heuristic.add();
  } else {
    cluster::Allocation partial = nearest_first_fill(
        r.counts(), remaining, topology, most_free_node(remaining));
    if (partial.total_vms() == 0) {
      plan.status = PlacementStatus::kAbandoned;
      m.ladder_abandoned.add();
      return plan;
    }
    // Grant exactly what was placed: the lease's request is the clipped
    // vector, so Def. 2 feasibility holds for the partial grant too.
    std::vector<int> placed_counts(partial.type_count());
    for (std::size_t j = 0; j < placed_counts.size(); ++j) {
      placed_counts[j] = partial.vms_of_type(j);
    }
    plan.status = PlacementStatus::kPartial;
    plan.placement = evaluate(std::move(partial), topology);
    plan.effective = cluster::Request(std::move(placed_counts), r.id(),
                                      r.priority());
    m.ladder_partial.add();
  }
  // Checked builds only: the validators take the dense matrix.
  VCOPT_VALIDATE(check::validate_allocation(
      plan.placement->allocation.to_matrix(),  // NOLINT(vcopt-dense-allocation)
      plan.effective->counts(), remaining));
  plan.granted_vms = plan.placement->allocation.total_vms();
  return plan;
}

std::vector<Grant> Provisioner::release(cluster::LeaseId lease) {
  VCOPT_TRACE_SPAN("provisioner/release");
  cloud_.release(lease);
  std::vector<Grant> grants;
  // Drain in discipline order; stop at the first candidate that still
  // cannot be served (head-of-line blocking within the discipline keeps the
  // service order starvation-transparent).
  auto& m = ProvisionerMetrics::get();
  while (!queue_.empty()) {
    const std::size_t pick = next_in_queue();
    const Waiting& head = queue_[pick];
    if (cloud_.admit(head.request) != cluster::Admission::kAccept) break;
    auto grant = try_place_and_grant(head.request);
    if (!grant) break;
    m.queue_wait.observe(now_ - head.enqueued_at);
    grants.push_back(std::move(*grant));
    queue_.erase(queue_.begin() + static_cast<long>(pick));
  }
  m.queue_depth.set(static_cast<double>(queue_.size()));
  return grants;
}

}  // namespace vcopt::placement
