// The churn simulation of the paper's §III.C setting, with optional fault
// injection: requests arrive at given instants, hold their clusters for a
// duration, then release them; requests that do not fit wait in the
// provisioner's queue, which drains one by one in discipline order on every
// release.  A FaultInjector and a RecoveryManager share the same event
// queue: node crashes revoke capacity and lose VMs (repaired by the
// RecoveryManager), rack outages crash every node in the rack, transient
// degradations mask a node's spare capacity (drain semantics: the VMs it
// hosts survive).  With the default (empty) profile no fault fires and the
// run is plain churn.  The run is a pure function of (cloud, policy, trace,
// profile, options): replaying the same inputs reproduces the same grants,
// repairs and timeline byte-for-byte.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cloud.h"
#include "fault/injector.h"
#include "fault/profile.h"
#include "fault/recovery.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "placement/provisioner.h"
#include "sim/event_queue.h"
#include "sim/records.h"

namespace vcopt::fault {

struct FaultSimOptions {
  /// Wait-queue service order.
  placement::QueueDiscipline discipline = placement::QueueDiscipline::kFifo;
  /// Optional time-series recorder: when set, a cluster::ClusterSampler
  /// records per-node load/free, utilization and fragmentation at event
  /// instants (at most once per `sample_period` simulated seconds).
  obs::Recorder* recorder = nullptr;
  double sample_period = 1.0;
  /// Optional SLO sink: every finalized repair feeds a "fault/repair_success"
  /// event (good = fully repaired).  The spec is declared on first use if the
  /// caller has not declared it already (objective 0.25: at most a quarter of
  /// repairs may end short of full repair).
  obs::SloTracker* slo = nullptr;
  /// Invoked once, right before the event loop runs, with the simulation's
  /// queue and the resolved fault horizon: background actors (the
  /// rebalancer, notably) attach here so their ticks interleave
  /// deterministically with grants, faults and repairs on the same queue.
  std::function<void(sim::EventQueue&, double)> attach;
};

struct FaultSimResult {
  // The churn story...
  std::vector<sim::GrantRecord> grants;
  std::uint64_t rejected = 0;   ///< requests that exceeded total capacity
  std::uint64_t unserved = 0;   ///< still queued when the simulation drained
  double makespan = 0;          ///< time of the last event
  double total_distance = 0;    ///< sum of DC over all grants
  double mean_wait = 0;
  double mean_utilization = 0;  ///< time-averaged fraction of VMs allocated
  std::vector<sim::TimelineSample> timeline;  ///< state after each event
  // ...plus the fault/repair story (all zero and empty for a quiet profile).
  std::vector<FaultEvent> schedule;     ///< the injected schedule, as run
  std::vector<RepairRecord> repairs;    ///< one terminal record per hit lease
  int node_crashes = 0;
  int rack_outages = 0;
  int node_recoveries = 0;
  int transients = 0;
  int leases_hit = 0;
  int vms_lost = 0;
  int vms_replaced = 0;
  int repaired = 0;   ///< repairs ending kRepaired
  int partial = 0;    ///< ... kPartial
  int degraded = 0;   ///< ... kDegraded
  int abandoned = 0;  ///< ... kAbandoned
  /// Sum over repaired leases of DC(after) - DC(before): how much cluster
  /// distance the failures cost even after affinity-preserving repair.
  double repair_distance_penalty = 0;
};

/// Runs `trace` to completion against `cloud` under `profile`'s failure
/// schedule (none by default).  A profile horizon of 0 derives the window
/// from the trace (last arrival + hold).  The cloud is mutated: every lease
/// is released by the end, and failed nodes are recovered by their
/// scheduled recovery events (any still down at the end stay down).  Throws
/// std::invalid_argument on a duplicate request id or a negative or
/// non-finite time in the trace.  With metrics enabled, each run records
/// sim/runs, the sim/wait_seconds and sim/hold_seconds histograms (over
/// simulated seconds) and the sim/mean_utilization gauge.
FaultSimResult run_fault_sim(cluster::Cloud& cloud,
                             std::unique_ptr<placement::PlacementPolicy> policy,
                             const std::vector<cluster::TimedRequest>& trace,
                             const FaultProfile& profile = {},
                             const FaultSimOptions& options = {});

}  // namespace vcopt::fault
