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
// Series references are cached at construction, so a sampling tick does no
// map lookups; when the recorder is disabled a tick is one atomic load.
//
// Thread-compatibility: the sampler itself holds no lock — each owner
// (fault::run_fault_sim single-threaded; vcopt::service under its service
// mutex, see the VCOPT_PT_GUARDED_BY on PlacementService::sampler_) serialises
// sample()/maybe_sample() externally.  The TimeSeries it writes through are
// internally synchronised (util::Mutex), so concurrent readers exporting the
// recorder are safe.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cloud.h"
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
  const Cloud& cloud_;
  obs::Recorder& recorder_;
  ClusterSamplerOptions options_;

  // Cached series (stable references into the recorder).
  std::vector<obs::TimeSeries*> node_load_;
  std::vector<obs::TimeSeries*> node_free_;
  obs::TimeSeries* utilization_;
  obs::TimeSeries* leases_;
  obs::TimeSeries* frag_node_conc_;
  obs::TimeSeries* frag_rack_conc_;
  obs::TimeSeries* frag_largest_node_;
  obs::TimeSeries* frag_largest_rack_;
  obs::TimeSeries* frag_free_vms_;

  bool sampled_once_ = false;
  double last_t_ = 0;
  std::size_t samples_ = 0;
};

}  // namespace vcopt::cluster
