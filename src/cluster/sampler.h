// Periodic cluster sampler: records per-node VM load and free capacity,
// free-capacity fragmentation, utilization and lease count into an
// obs::Recorder as time series over simulated (or service-clock) time.
// Wired into fault::run_fault_sim and vcopt::service via their options.  A
// lease's own DC is not a series: the cloud keeps it on the lease record
// (cluster::Cloud::lease_dc), where the rebalancer reads it.
//
// Series written (labels in braces), each a ring of 512 points:
//   cluster/node/load{node=i}        VMs hosted on node i
//   cluster/node/free{node=i}        free VM slots on node i
//   cluster/utilization              allocated fraction of total capacity
//   cluster/leases                   live lease count
//   cluster/frag/node_concentration  FragmentationStats fields
//   cluster/frag/rack_concentration
//   cluster/frag/largest_node_request
//   cluster/frag/largest_rack_request
//   cluster/frag/free_vms
//
// Cost grows with the rate of change, not with the cluster.  The sampler
// keeps its own aggregates of the inventory's free capacity L (§II): per
// node (load, free, free by type), per rack (free sums by type, the largest
// node free by type and in total) and per type.  The first sample fills
// them in one O(n·m) pass.  Each later sample reads the cloud's change
// stamps (Cloud::change_stamp): it visits only the racks stamped since the
// last sample, refreshes their stamped nodes and that rack's maxima, and
// derives the fragmentation figures from the rack aggregates in
// O(racks·m), bitwise equal to fragmentation(), the full-scan reference;
// checked builds (VCOPT_ENABLE_CHECKS) compare the two on every sample.
// Utilization is Inventory::utilization(), O(1) from its running totals.  The
// sampler registers no capacity listener, so it coexists with whatever
// holds the cloud's single listener slot (the cell directory, or a
// forwarding listener a benchmark installs) and a second sampler on a
// replayed cloud writes the same series.
//
// The seven cluster-wide series get one point per sample.  A per-node
// series gets a point at the first sample and afterwards only at samples
// where its value differs from its previous point, so its last point is
// always the node's current value and an idle node costs no ring write.
//
// Series references are cached at construction, so a sampling tick does no
// map lookups; when the recorder is disabled a tick is one atomic load.
//
// Thread-compatibility: the sampler itself holds no lock — each owner
// (fault::run_fault_sim single-threaded; vcopt::service under its service
// mutex, see the VCOPT_PT_GUARDED_BY on PlacementService::sampler_) serialises
// sample()/maybe_sample() externally, together with the cloud mutations it
// reads.  The TimeSeries it writes through are internally synchronised
// (util::Mutex), so concurrent readers exporting the recorder are safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cloud.h"
#include "cluster/fragmentation.h"
#include "obs/timeseries.h"

namespace vcopt::cluster {

struct ClusterSamplerOptions {
  /// Minimum time between samples for maybe_sample() (same clock as `t`).
  double period = 1.0;
};

class ClusterSampler {
 public:
  /// The cloud and recorder must outlive the sampler.
  ClusterSampler(const Cloud& cloud, obs::Recorder& recorder,
                 ClusterSamplerOptions options = {});

  /// Takes a sample at time `t` unconditionally (no-op while the recorder
  /// is disabled).
  void sample(double t);

  /// Samples only when at least `period` has elapsed since the last sample
  /// (first call always samples).  Returns whether a sample was taken.
  bool maybe_sample(double t);

  std::size_t samples_taken() const { return samples_; }

 private:
  /// Re-reads node `i` (in rack `rack`) from the inventory, folds the
  /// change into the rack and type sums, and records the node's load and
  /// free points that changed (both when `force`).
  void refresh_node(double t, std::size_t i, std::size_t rack, bool force);
  /// Recomputes rack `r`'s largest node free, by type and in total, from
  /// the per-node aggregates.
  void refresh_rack_maxima(std::size_t r);
  /// fragmentation() of the current inventory, from the rack aggregates.
  FragmentationStats fragmentation_stats() const;

  const Cloud& cloud_;
  obs::Recorder& recorder_;
  ClusterSamplerOptions options_;
  std::size_t types_;  ///< m

  // Cached series (stable references into the recorder).
  std::vector<obs::TimeSeries*> node_load_series_;
  std::vector<obs::TimeSeries*> node_free_series_;
  obs::TimeSeries* utilization_;
  obs::TimeSeries* leases_;
  obs::TimeSeries* frag_node_conc_;
  obs::TimeSeries* frag_rack_conc_;
  obs::TimeSeries* frag_largest_node_;
  obs::TimeSeries* frag_largest_rack_;
  obs::TimeSeries* frag_free_vms_;

  // Aggregates as of the last sample (free = the inventory's remaining
  // capacity: zero on failed or drained nodes, migration reservations not
  // netted out).  Row-major `_by_type` arrays hold m entries per row.
  std::vector<int> node_load_;          ///< n: VMs hosted
  std::vector<int> node_free_;          ///< n: free slots
  std::vector<int> node_free_by_type_;  ///< n×m
  std::vector<int> rack_free_by_type_;  ///< R×m: per-type sum over the rack
  std::vector<int> rack_max_by_type_;   ///< R×m: largest node free per type
  std::vector<int> rack_max_node_;      ///< R: largest node free total
  std::vector<int> type_free_;          ///< m: the availability vector A
  /// Cloud::change_stamp() the aggregates reflect.
  std::uint64_t cursor_ = 0;

  bool sampled_once_ = false;
  double last_t_ = 0;
  std::size_t samples_ = 0;
};

}  // namespace vcopt::cluster
