#include "rebalance/rebalancer.h"

#include <algorithm>
#include <sstream>

#include "check/check.h"
#include "obs/metrics.h"
#include "util/stats.h"

namespace vcopt::rebalance {

namespace {

constexpr char kDcPerVmSlo[] = "rebalance/dc_per_vm";
constexpr double kDcPerVmObjective = 0.25;
// Retry rail: delay = min(30, 1 * 2^(attempt-1)) * (1 +- 0.25), clamped.
constexpr double kRetryBackoffInitial = 1.0;
constexpr double kRetryBackoffFactor = 2.0;
constexpr double kRetryBackoffMax = 30.0;
constexpr double kRetryJitter = 0.25;
// Live-copy duration: 0.02 s per GB of the type's memory, at least 0.25 s.
// The commit fires this long after the reserve.
constexpr double kCopySecondsPerGb = 0.02;
constexpr double kMinCopySeconds = 0.25;

obs::Counter& counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

}  // namespace

const char* to_string(RoundStatus s) {
  switch (s) {
    case RoundStatus::kRebalanced: return "rebalanced";
    case RoundStatus::kPartial: return "partial";
    case RoundStatus::kDeferred: return "deferred";
    case RoundStatus::kDisabled: return "disabled";
  }
  return "unknown";
}

Rebalancer::Rebalancer(cluster::Cloud& cloud, sim::EventQueue& queue,
                       obs::Recorder& recorder,
                       placement::RebalancePolicy policy, std::uint64_t seed,
                       obs::SloTracker* slo)
    : cloud_(cloud), queue_(queue), recorder_(recorder), planner_(policy),
      slo_(slo), rng_(seed) {
  if (slo_ != nullptr) {
    obs::SloSpec spec;
    spec.name = kDcPerVmSlo;
    spec.description = "mean DC per VM across live leases stays tight";
    spec.objective = kDcPerVmObjective;
    spec.threshold = placement::kDcPerVmThreshold;
    slo_->declare(spec);  // find-or-create: an earlier declaration wins
  }
}

void Rebalancer::arm(double horizon) {
  if (ticker_) {
    ticker_->stop();
  }
  ticker_.emplace(queue_, planner_.policy().tick_period, horizon,
                  [this] { tick(); });
  ticker_->start();
}

void Rebalancer::reset() {
  disabled_ = false;
  consecutive_bad_ = 0;
  if (ticker_ && !ticker_->running()) {
    ticker_->start();
  }
}

void Rebalancer::feed_telemetry(double now) {
  double sum = 0;
  std::size_t n = 0;
  for (const cluster::LeaseId id : cloud_.lease_ids()) {
    const int vms = cloud_.lease_allocation(id).total_vms();
    if (vms <= 0) continue;
    sum += cloud_.lease_dc(id).last / static_cast<double>(vms);
    ++n;
  }
  if (n == 0) return;
  const double mean = sum / static_cast<double>(n);
  recorder_.series(kDcPerVmSlo).record(now, mean);
  if (slo_ != nullptr) {
    slo_->record_value(kDcPerVmSlo, now, mean);
  }
}

void Rebalancer::tick() {
  if (disabled_) return;
  const double now = queue_.now();
  feed_telemetry(now);

  RoundRecord rec;
  rec.round = ++round_counter_;
  rec.time = now;
  const bool slo_hot = slo_ != nullptr && slo_->any_alerting(now);
  const placement::RoundPlan plan =
      planner_.plan(cloud_, now, slo_hot, inflight_per_lease_);
  if (plan.deferred) {
    rec.status = RoundStatus::kDeferred;
    finalize_round(rec);
    return;
  }
  rec.candidates = plan.candidates;
  rec.planned = plan.moves.size();
  if (plan.moves.empty()) {
    // Nothing drifted past the economic bar: the cluster is where the
    // rebalancer wants it.  A quiet round is a good round.
    rec.status = RoundStatus::kRebalanced;
    finalize_round(rec);
    return;
  }

  OpenRound& open = open_rounds_[rec.round];
  open.record = rec;
  open.outstanding = plan.moves.size();
  for (const placement::PlannedMove& mv : plan.moves) {
    ++inflight_per_lease_[mv.lease];
    start_move(rec.round, mv, 1, now);
  }
}

void Rebalancer::start_move(std::uint64_t round,
                            const placement::PlannedMove& mv, int attempt,
                            double first_started_at) {
  if (!cloud_.has_lease(mv.lease)) {
    // The lease ended while the move waited (release or abandoned repair):
    // terminal, not worth a retry.
    finish_move(round, mv, attempt, first_started_at, false);
    return;
  }
  counter("rebalance/migrations_attempted").add(1);
  const std::uint64_t ticket = cloud_.begin_migration(
      mv.lease, mv.move.from_node, mv.move.to_node, mv.move.type);
  if (ticket == 0) {
    // Transient refusal (destination down/drained, slot not free, VM gone).
    retry_or_fail(round, mv, attempt, first_started_at);
    return;
  }
  const double duration = std::max(
      kMinCopySeconds,
      kCopySecondsPerGb * cloud_.catalog()[mv.move.type].memory_gb);
  queue_.schedule_in(duration, [this, round, mv, attempt, first_started_at,
                                ticket] {
    if (cloud_.commit_migration(ticket)) {
      finish_move(round, mv, attempt, first_started_at, true);
      return;
    }
    // The world changed mid-copy (node failed, lease shrank/ended): the
    // commit rolled the reservation back; retry from scratch.
    counter("rebalance/migrations_rolled_back").add(1);
    const auto it = open_rounds_.find(round);
    VCOPT_DCHECK(it != open_rounds_.end());
    ++it->second.record.rolled_back;
    retry_or_fail(round, mv, attempt, first_started_at);
  });
}

void Rebalancer::retry_or_fail(std::uint64_t round,
                               const placement::PlannedMove& mv, int attempt,
                               double first_started_at) {
  if (attempt > kMaxRetries) {
    finish_move(round, mv, attempt, first_started_at, false);
    return;
  }
  const double delay = util::jittered_backoff(
      kRetryBackoffInitial, kRetryBackoffFactor, attempt, kRetryBackoffMax,
      kRetryJitter, rng_.uniform01());
  queue_.schedule_in(delay, [this, round, mv, attempt, first_started_at] {
    start_move(round, mv, attempt + 1, first_started_at);
  });
}

void Rebalancer::finish_move(std::uint64_t round,
                             const placement::PlannedMove& mv, int attempts,
                             double first_started_at, bool committed) {
  const double now = queue_.now();
  MigrationRecord rec;
  rec.round = round;
  rec.lease = mv.lease;
  rec.from = mv.move.from_node;
  rec.to = mv.move.to_node;
  rec.type = mv.move.type;
  rec.gain = mv.gain;
  rec.cost = mv.cost;
  rec.started_at = first_started_at;
  rec.finished_at = now;
  rec.committed = committed;
  rec.attempts = attempts;
  migrations_.push_back(rec);

  const auto lease_it = inflight_per_lease_.find(mv.lease);
  VCOPT_DCHECK(lease_it != inflight_per_lease_.end());
  if (--lease_it->second <= 0) {
    inflight_per_lease_.erase(lease_it);
  }

  const auto it = open_rounds_.find(round);
  VCOPT_DCHECK(it != open_rounds_.end());
  if (committed) {
    planner_.record_commit(mv, now);
    ++it->second.record.committed;
    it->second.record.net_gain += mv.gain - mv.cost;
  } else {
    counter("rebalance/migrations_failed").add(1);
  }
  resolve_move(round);
}

void Rebalancer::resolve_move(std::uint64_t round) {
  const auto it = open_rounds_.find(round);
  VCOPT_DCHECK(it != open_rounds_.end());
  if (--it->second.outstanding > 0) return;
  RoundRecord rec = it->second.record;
  open_rounds_.erase(it);
  if (rec.committed == rec.planned) {
    rec.status = RoundStatus::kRebalanced;
  } else if (rec.committed > 0) {
    rec.status = RoundStatus::kPartial;
  } else {
    rec.status = RoundStatus::kDeferred;
  }
  finalize_round(rec);
}

void Rebalancer::finalize_round(RoundRecord record) {
  counter("rebalance/rounds").add(1);
  if (record.status == RoundStatus::kDeferred) {
    counter("rebalance/rounds_deferred").add(1);
    ++consecutive_bad_;
  } else {
    consecutive_bad_ = 0;
  }
  recorder_.series("rebalance/round_net_gain")
      .record(queue_.now(), record.net_gain);
  rounds_.push_back(record);

  if (!disabled_ && consecutive_bad_ >= kDisableAfterBadRounds) {
    // Bottom of the degradation ladder: stop making it worse.  A marker
    // round records the transition; reset() re-arms.
    disabled_ = true;
    if (ticker_) ticker_->stop();
    counter("rebalance/disabled").add(1);
    RoundRecord marker;
    marker.round = ++round_counter_;
    marker.time = queue_.now();
    marker.status = RoundStatus::kDisabled;
    rounds_.push_back(marker);
  }
}

std::string Rebalancer::transcript() const {
  std::ostringstream os;
  for (const RoundRecord& r : rounds_) {
    os << "round " << r.round << " t=" << r.time << " status="
       << to_string(r.status) << " candidates=" << r.candidates
       << " planned=" << r.planned << " committed=" << r.committed
       << " rolled_back=" << r.rolled_back << " net_gain=" << r.net_gain
       << "\n";
  }
  for (const MigrationRecord& m : migrations_) {
    os << "move round=" << m.round << " lease=" << m.lease << " " << m.from
       << "->" << m.to << " type=" << m.type << " gain=" << m.gain
       << " cost=" << m.cost << " attempts=" << m.attempts
       << " committed=" << (m.committed ? 1 : 0) << "\n";
  }
  return os.str();
}

}  // namespace vcopt::rebalance
