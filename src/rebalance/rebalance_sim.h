// Closed-loop recovery simulation: run_fault_sim's churn-plus-failures
// story with a Rebalancer attached to the same event queue.  The fault
// injector tears placements apart, the recovery ladder puts VMs back
// wherever capacity survives, and the rebalancer then walks the cluster
// back toward tight placements under its migration budget — the full loop
// the ext_rebalance_soak gate measures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_sim.h"
#include "rebalance/rebalancer.h"

namespace vcopt::rebalance {

struct RebalanceSimOptions {
  /// Underlying fault-sim wiring.  `fault.recorder` is REQUIRED: it
  /// receives the rebalancer's rebalance/* series (run_rebalance_sim throws
  /// without one).
  fault::FaultSimOptions fault;
  placement::RebalancePolicy policy;
  /// Seed for the rebalancer's retry jitter (independent of the fault
  /// profile's seed so storm schedule and retry timing decouple).
  std::uint64_t seed = 1;
};

struct RebalanceSimResult {
  fault::FaultSimResult fault;  ///< the churn + failure + repair story
  // The rebalance story, harvested from the attached Rebalancer.
  std::vector<RoundRecord> rounds;
  std::vector<MigrationRecord> migrations;
  std::size_t migrations_committed = 0;
  std::size_t migrations_failed = 0;  ///< terminal failures after retries
  std::size_t rounds_deferred = 0;
  double net_gain = 0;  ///< sum of committed gain - cost
  bool disabled = false;
  /// Deterministic one-line-per-event transcript (CI diffs two runs).
  std::string transcript;
};

/// Runs the fault sim with a rebalancer armed at the profile's resolved
/// horizon.  Throws std::invalid_argument when options.fault.recorder is
/// null.  The cloud is mutated, as in run_fault_sim.
RebalanceSimResult run_rebalance_sim(
    cluster::Cloud& cloud, std::unique_ptr<placement::PlacementPolicy> policy,
    const std::vector<cluster::TimedRequest>& trace,
    const fault::FaultProfile& profile, const RebalanceSimOptions& options);

}  // namespace vcopt::rebalance
