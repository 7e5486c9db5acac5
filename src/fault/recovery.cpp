#include "fault/recovery.h"

#include <numeric>
#include <utility>

#include "check/check.h"
#include "check/validators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "placement/online_heuristic.h"
#include "util/stats.h"

namespace vcopt::fault {

namespace {

/// Candidate centrals (nearest the original central first) the anchored
/// repair scan tries before it widens to the full node set.
constexpr std::size_t kRepairWindow = 8;
// Retry backoff: min(60, 1 * 2^(attempt-1)) * (1 +- 0.25), clamped.
constexpr double kBackoffInitial = 1.0;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffMax = 60.0;
constexpr double kBackoffJitter = 0.25;

struct RecoveryMetrics {
  obs::Counter& node_failures;
  obs::Counter& node_recoveries;
  obs::Counter& leases_hit;
  obs::Counter& vms_lost;
  obs::Counter& vms_replaced;
  obs::Counter& repaired;
  obs::Counter& partial;
  obs::Counter& degraded;
  obs::Counter& abandoned;
  obs::Counter& retries;
  obs::Counter& restricted_hits;
  obs::Counter& full_scans;

  static RecoveryMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static RecoveryMetrics m{
        reg.counter("recovery/node_failures"),
        reg.counter("recovery/node_recoveries"),
        reg.counter("recovery/leases_hit"),
        reg.counter("recovery/vms_lost"),
        reg.counter("recovery/vms_replaced"),
        reg.counter("recovery/repaired"),
        reg.counter("recovery/partial"),
        reg.counter("recovery/degraded"),
        reg.counter("recovery/abandoned"),
        reg.counter("recovery/retries"),
        reg.counter("recovery/restricted_hits"),
        reg.counter("recovery/full_scans"),
    };
    return m;
  }
};

/// DC(C) of the union (survivors + fill): the metric the repair scan
/// minimises, so replacements are judged by the distance of the WHOLE
/// repaired cluster, not of the replacement VMs in isolation.
double merged_distance(const util::IntMatrix& original,
                       const util::IntMatrix& lost,
                       const cluster::Allocation& fill,
                       const cluster::Topology& topology) {
  cluster::Allocation merged(original.rows(), original.cols());
  for (std::size_t i = 0; i < original.rows(); ++i) {
    for (std::size_t j = 0; j < original.cols(); ++j) {
      const int v = original(i, j) - lost(i, j) + fill.at(i, j);
      if (v != 0) merged.add(i, j, v);
    }
  }
  return merged.best_central(topology).distance;
}

}  // namespace

RecoveryManager::RecoveryManager(cluster::Cloud& cloud, sim::EventQueue& queue,
                                 std::uint64_t seed)
    : cloud_(cloud), queue_(queue), rng_(seed) {
  release_hook_ = [this](cluster::LeaseId id) { cloud_.release(id); };
}

void RecoveryManager::track(const placement::Grant& grant) {
  tracked_[grant.lease] = Tracked{grant.request_id, grant.placement.central,
                                  grant.placement.distance};
}

void RecoveryManager::untrack(cluster::LeaseId lease) {
  tracked_.erase(lease);
  auto it = pending_.find(lease);
  if (it != pending_.end()) {
    // The lease ended (normal release) with a repair still in flight: close
    // the book explicitly rather than leaving a dangling retry.
    finalize(it->second, placement::PlacementStatus::kAbandoned, 0, 0, false);
  }
}

void RecoveryManager::on_node_failed(std::size_t node) {
  VCOPT_TRACE_SPAN("recovery/on_node_failed");
  if (cloud_.is_failed(node)) return;
  auto& m = RecoveryMetrics::get();
  m.node_failures.add();
  const std::vector<cluster::LeaseId> hit = cloud_.fail_node(node);
  for (const cluster::LeaseId id : hit) {
    const cluster::Allocation slice = cloud_.lease_part_on_node(id, node);
    if (slice.empty_allocation()) continue;
    auto it = pending_.find(id);
    const bool fresh = it == pending_.end();
    if (fresh) {
      Pending p;
      p.lease = id;
      p.failed_at = queue_.now();
      p.original = cloud_.lease_allocation(id).to_matrix();
      p.lost = util::IntMatrix(p.original.rows(), p.original.cols());
      p.missing.assign(p.original.cols(), 0);
      p.failed_nodes.assign(p.original.rows(), false);
      p.rng = rng_.fork();
      const auto tracked = tracked_.find(id);
      if (tracked != tracked_.end()) {
        p.request_id = tracked->second.request_id;
        p.anchor = tracked->second.central;
        p.distance_before = tracked->second.distance;
      } else {
        const cluster::CentralNode c =
            cluster::Allocation(p.original).best_central(cloud_.topology());
        p.anchor = c.node;
        p.distance_before = c.distance;
      }
      it = pending_.emplace(id, std::move(p)).first;
      m.leases_hit.add();
    }
    Pending& p = it->second;
    for (const cluster::Allocation::Entry& e : slice.entries()) {
      p.lost.add_at(e.node, e.type, e.count);
      p.missing[e.type] += e.count;
    }
    p.failed_nodes[node] = true;
    m.vms_lost.add(static_cast<std::uint64_t>(slice.total_vms()));
    cloud_.shrink_lease(id, slice);
    if (fresh) {
      queue_.schedule_in(0, [this, id] { attempt_repair(id); });
    }
  }
}

void RecoveryManager::on_node_recovered(std::size_t node) {
  if (!cloud_.is_failed(node)) return;
  cloud_.recover_node(node);
  RecoveryMetrics::get().node_recoveries.add();
}

util::IntMatrix RecoveryManager::repair_remaining(const Pending& p) const {
  util::IntMatrix remaining = cloud_.remaining();
  for (std::size_t i = 0; i < remaining.rows(); ++i) {
    if (!p.failed_nodes[i]) continue;
    for (std::size_t j = 0; j < remaining.cols(); ++j) remaining(i, j) = 0;
  }
  return remaining;
}

std::optional<cluster::Allocation> RecoveryManager::place_missing(
    const Pending& p, bool& restricted) const {
  restricted = false;
  const cluster::Request missing(p.missing, p.request_id);
  const util::IntMatrix remaining = repair_remaining(p);
  const cluster::Topology& topo = cloud_.topology();

  // Affinity-preserving scan: candidate centrals ordered by distance from
  // the cluster's original central node, so the first completions keep the
  // replacements in (or next to) the rack the cluster lives in.  Candidates
  // that are down or failure-tainted for this lease are skipped.
  const std::vector<std::size_t> order = topo.nodes_by_distance(p.anchor);
  std::optional<cluster::Allocation> best;
  double best_distance = 0;
  std::size_t scanned = 0;
  for (const std::size_t x : order) {
    if (cloud_.is_failed(x) || p.failed_nodes[x]) continue;
    const bool in_window = scanned < kRepairWindow;
    ++scanned;
    // Once the restricted window produced a repair, stop at the window edge
    // instead of paying for the full scan.
    if (!in_window && best) break;
    auto fill = placement::OnlineHeuristic::fill_from_central(
        missing, remaining, topo, x);
    if (!fill) continue;
    const double d = merged_distance(p.original, p.lost, *fill, topo);
    if (!best || d < best_distance) {
      best = std::move(fill);
      best_distance = d;
      restricted = in_window;
    }
  }
  return best;
}

void RecoveryManager::finalize(Pending& p, placement::PlacementStatus status,
                               int vms_replaced, double distance_after,
                               bool restricted) {
  RepairRecord rec;
  rec.lease = p.lease;
  rec.request_id = p.request_id;
  rec.status = status;
  rec.attempts = p.attempts;
  rec.failed_at = p.failed_at;
  rec.completed_at = queue_.now();
  rec.vms_lost = std::accumulate(p.missing.begin(), p.missing.end(), 0);
  rec.vms_replaced = vms_replaced;
  rec.distance_before = p.distance_before;
  rec.distance_after = distance_after;
  rec.restricted_scan_used = restricted;
  records_.push_back(rec);
  pending_.erase(rec.lease);  // p is dead past this line
  if (repair_hook_) repair_hook_(records_.back());
}

void RecoveryManager::attempt_repair(cluster::LeaseId lease) {
  VCOPT_TRACE_SPAN("recovery/attempt_repair");
  auto it = pending_.find(lease);
  if (it == pending_.end()) return;  // released (untracked) before the retry
  Pending& p = it->second;
  auto& m = RecoveryMetrics::get();
  if (!cloud_.has_lease(lease)) {
    finalize(p, placement::PlacementStatus::kAbandoned, 0, 0, false);
    m.abandoned.add();
    return;
  }

  bool restricted = false;
  std::optional<cluster::Allocation> fill = place_missing(p, restricted);
  if (fill) {
    VCOPT_VALIDATE(check::validate_repair_conservation(
        p.original, p.lost, fill->to_matrix(), p.failed_nodes,
        /*full_repair=*/true));
    cloud_.grow_lease(lease, *fill);
    const cluster::LeaseDc dc = cloud_.lease_dc(lease);
    auto tracked = tracked_.find(lease);
    if (tracked != tracked_.end()) {
      tracked->second.central = dc.central;
      tracked->second.distance = dc.last;
    }
    const int replaced = fill->total_vms();
    m.repaired.add();
    m.vms_replaced.add(static_cast<std::uint64_t>(replaced));
    if (restricted) m.restricted_hits.add(); else m.full_scans.add();
    finalize(p, placement::PlacementStatus::kRepaired, replaced, dc.last,
             restricted);
    return;
  }

  ++p.attempts;
  if (p.attempts < kMaxRepairAttempts) {
    // Exponential backoff with deterministic jitter from the per-lease
    // stream.
    const double delay =
        util::jittered_backoff(kBackoffInitial, kBackoffFactor, p.attempts,
                               kBackoffMax, kBackoffJitter, p.rng.uniform01());
    m.retries.add();
    queue_.schedule_in(delay, [this, lease] { attempt_repair(lease); });
    return;
  }

  // Attempt budget exhausted: degrade explicitly.  Best-effort partial
  // refill first (nearest-first from the anchor), then keep the survivors,
  // and only release when nothing of the cluster is left.
  const cluster::Allocation partial = placement::nearest_first_fill(
      p.missing, repair_remaining(p), cloud_.topology(), p.anchor);
  if (partial.total_vms() > 0) {
    VCOPT_VALIDATE(check::validate_repair_conservation(
        p.original, p.lost, partial.to_matrix(), p.failed_nodes,
        /*full_repair=*/false));
    cloud_.grow_lease(lease, partial);
    const int replaced = partial.total_vms();
    m.partial.add();
    m.vms_replaced.add(static_cast<std::uint64_t>(replaced));
    finalize(p, placement::PlacementStatus::kPartial, replaced,
             cloud_.lease_dc(lease).last, false);
    return;
  }
  if (cloud_.lease_allocation(lease).total_vms() > 0) {
    m.degraded.add();
    finalize(p, placement::PlacementStatus::kDegraded, 0,
             cloud_.lease_dc(lease).last, false);
    return;
  }
  m.abandoned.add();
  finalize(p, placement::PlacementStatus::kAbandoned, 0, 0, false);
  tracked_.erase(lease);
  release_hook_(lease);
}

}  // namespace vcopt::fault
