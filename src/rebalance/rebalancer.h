// vcopt::rebalance — the continuous self-healing rebalancer the ROADMAP
// names: a background actor that closes the loop from lease distance to
// live VM migration.  The shape follows the collect -> decide -> migrate
// cycle of dynamic VM schedulers:
//
//     cluster::Cloud::lease_dc (each live lease's current
//     and lowest DC, kept on the lease record)      --- collect ---.
//                                                                  v
//     drift detection (last/min ratio + SloTracker            [ decide ]
//     objective on DC-per-VM)                                      |
//                                                                  v
//     placement::consolidate_budgeted (Theorem-2 moves       [ migrate ]
//     charged a data-movement cost)                                |
//                                                                  v
//     cluster::Cloud::begin/commit/rollback_migration  (two-phase, with
//     conservation checks) ... which updates the lease's DC record.
//
// Collect and decide are placement::RoundPlanner (placement/migration.h),
// shared with the service's journaled pass; migrate is this file's own.
// The collect step reads the DC record the cloud keeps for every live
// lease, so a decision depends on the allocations alone: not on lease
// ordinal, sample period, or whether a recorder is attached.  The decide
// step treats each migration as an economic decision: a move is planned
// only when its DC gain exceeds a data-movement cost modeled from the VM's
// memory size and the lease's shuffle traffic (VM count as proxy).
//
// Robustness rails (the headline):
//   * two-phase reserve -> move -> commit per migration, rolled back when a
//     node fails mid-copy (Cloud::commit_migration re-validates the world);
//   * a per-round migration budget (max_moves_per_round) and per-lease
//     cooldowns, so the rebalancer is rate-limited by construction;
//   * exponential-backoff retry (capped, deterministic jitter) on transient
//     failures — destination down, slot not yet free;
//   * an explicit degradation ladder per round:
//       kRebalanced -> kPartial -> kDeferred -> kDisabled
//     an unhealthy cluster (failed nodes present) defers instead of making
//     things worse, and too many consecutive bad rounds disable the loop
//     entirely until an operator reset().
//
// Determinism: ticks ride sim::PeriodicTicker on the shared EventQueue,
// retry jitter comes from a seeded util::Rng, and every container iterated
// is ordered — a (trace, profile, seed) triple replays the identical
// migration transcript byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "placement/migration.h"
#include "sim/event_queue.h"
#include "sim/periodic.h"
#include "util/rng.h"

namespace vcopt::rebalance {

/// Retry rail: a transient failure (destination down, slot not yet free)
/// retries up to this many times, after 1 s doubling to at most 30 s, with
/// +-25% deterministic jitter.
inline constexpr int kMaxRetries = 3;
/// Consecutive deferred rounds before the loop disables itself.
inline constexpr int kDisableAfterBadRounds = 8;

/// Degradation ladder of one round.
enum class RoundStatus {
  kRebalanced,  ///< every planned move committed (or nothing needed moving)
  kPartial,     ///< some moves committed, some failed terminally
  kDeferred,    ///< unhealthy cluster, or no planned move survived
  kDisabled,    ///< the loop shut itself off (marker round at transition)
};

const char* to_string(RoundStatus s);

/// One migration attempt chain, finalized when it commits or exhausts its
/// retries.
struct MigrationRecord {
  std::uint64_t round = 0;
  cluster::LeaseId lease = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t type = 0;
  double gain = 0;       ///< DC gain the planner predicted
  double cost = 0;       ///< charged data-movement cost
  double started_at = 0;
  double finished_at = 0;
  bool committed = false;
  int attempts = 1;      ///< begin attempts consumed (1 = first try)
};

/// One collect/decide/migrate round.
struct RoundRecord {
  std::uint64_t round = 0;
  double time = 0;
  RoundStatus status = RoundStatus::kDeferred;
  std::size_t candidates = 0;   ///< drifted leases considered
  std::size_t planned = 0;      ///< moves the decide step produced
  std::size_t committed = 0;
  std::size_t rolled_back = 0;  ///< commit-time rollbacks (incl. retried ones)
  double net_gain = 0;          ///< sum of (gain - cost) over committed moves
};

/// The background rebalancer: one instance per simulation/driver, ticking on
/// the shared event queue.  Its rounds are placement::RoundPlanner's, the
/// decision the service's pass makes too; what is its own is the applier:
/// timed two-phase copies, retries and the breaker.  Not thread-safe — it
/// lives on the sim's single-threaded event loop.
class Rebalancer {
 public:
  /// `recorder` receives the rebalance/* series this writes.  The optional
  /// `slo` gains a "rebalance/dc_per_vm" objective (declared on first use)
  /// fed once per tick with the mean DC per VM over every live lease.  All
  /// references must outlive the rebalancer.
  Rebalancer(cluster::Cloud& cloud, sim::EventQueue& queue,
             obs::Recorder& recorder, placement::RebalancePolicy policy = {},
             std::uint64_t seed = 1, obs::SloTracker* slo = nullptr);

  /// Schedules periodic ticks (first at now + tick_period) until `horizon`.
  void arm(double horizon);

  /// One collect/decide/migrate round, callable directly (tests) or fired
  /// by the armed ticker.
  void tick();

  /// Re-arms a disabled loop (clears the consecutive-bad-round counter).
  void reset();

  bool disabled() const { return disabled_; }
  std::size_t inflight_count() const { return inflight_per_lease_.size(); }
  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  const std::vector<MigrationRecord>& migrations() const { return migrations_; }

  /// One line per finalized migration and round, deterministic — the CI
  /// soak diffs two runs' transcripts to prove replay determinism.
  std::string transcript() const;

 private:
  struct OpenRound {
    RoundRecord record;
    std::size_t outstanding = 0;  ///< moves not yet finalized
  };

  void feed_telemetry(double now);
  void start_move(std::uint64_t round, const placement::PlannedMove& mv,
                  int attempt, double first_started_at);
  void retry_or_fail(std::uint64_t round, const placement::PlannedMove& mv,
                     int attempt, double first_started_at);
  void finish_move(std::uint64_t round, const placement::PlannedMove& mv,
                   int attempts, double first_started_at, bool committed);
  void resolve_move(std::uint64_t round);
  void finalize_round(RoundRecord record);

  cluster::Cloud& cloud_;
  sim::EventQueue& queue_;
  obs::Recorder& recorder_;
  placement::RoundPlanner planner_;
  obs::SloTracker* slo_;
  util::Rng rng_;
  std::optional<sim::PeriodicTicker> ticker_;  ///< built by arm()

  bool disabled_ = false;
  int consecutive_bad_ = 0;
  std::uint64_t round_counter_ = 0;
  std::map<std::uint64_t, OpenRound> open_rounds_;
  std::map<cluster::LeaseId, int> inflight_per_lease_;
  std::vector<RoundRecord> rounds_;
  std::vector<MigrationRecord> migrations_;
};

}  // namespace vcopt::rebalance
