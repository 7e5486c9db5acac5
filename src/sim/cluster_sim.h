// Queueing simulation of a cloud serving virtual-cluster requests: requests
// arrive at given instants, hold their clusters for a duration, then release
// them; queued requests are drained on release.  Used to compare placement
// policies under churn (the setting of the paper's global-optimisation
// discussion, §III.C).
#pragma once

#include <memory>
#include <vector>

#include "cluster/cloud.h"
#include "obs/timeseries.h"
#include "placement/provisioner.h"
#include "sim/event_queue.h"

namespace vcopt::sim {

struct GrantRecord {
  std::uint64_t request_id = 0;
  double arrival = 0;
  double granted = 0;   ///< when the lease was created
  double released = 0;  ///< when the lease ended
  double distance = 0;  ///< DC of the granted allocation
  std::size_t central = 0;
  int vms = 0;

  double wait() const { return granted - arrival; }
};

/// One point of the simulation's state timeline, sampled at every grant,
/// release and arrival.
struct TimelineSample {
  double time = 0;
  int allocated_vms = 0;
  std::size_t queue_length = 0;
  std::size_t active_leases = 0;
};

struct ClusterSimResult {
  std::vector<GrantRecord> grants;
  std::uint64_t rejected = 0;   ///< requests that exceeded total capacity
  std::uint64_t unserved = 0;   ///< still queued when the simulation drained
  double makespan = 0;          ///< time of the last release
  double total_distance = 0;    ///< sum of DC over all grants
  double mean_wait = 0;
  double mean_utilization = 0;  ///< time-averaged fraction of VMs allocated
  std::vector<TimelineSample> timeline;  ///< state after each event
};

struct ClusterSimOptions {
  /// If true, queued requests are drained as a batch via Algorithm 2 on
  /// every release instead of one-by-one placement.
  bool batch_drain = false;
  /// Wait-queue service order for one-by-one draining.
  placement::QueueDiscipline discipline = placement::QueueDiscipline::kFifo;
  /// Optional time-series recorder: when set, a cluster::ClusterSampler
  /// records per-node load/free, utilization and fragmentation at event
  /// instants (at most once per `sample_period` simulated seconds).
  obs::Recorder* recorder = nullptr;
  double sample_period = 1.0;
};

/// Runs the full trace to completion.  The cloud is mutated (all leases are
/// released by the end).
ClusterSimResult run_cluster_sim(
    cluster::Cloud& cloud, std::unique_ptr<placement::PlacementPolicy> policy,
    const std::vector<cluster::TimedRequest>& trace,
    const ClusterSimOptions& options = {});

}  // namespace vcopt::sim
