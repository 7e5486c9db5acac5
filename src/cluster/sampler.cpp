#include "cluster/sampler.h"

#include <string>

#include "cluster/fragmentation.h"

namespace vcopt::cluster {

ClusterSampler::ClusterSampler(const Cloud& cloud, obs::Recorder& recorder,
                               ClusterSamplerOptions options)
    : cloud_(cloud), recorder_(recorder), options_(options) {
  constexpr std::size_t cap = 512;  // ring capacity of every series
  node_load_.reserve(cloud_.node_count());
  node_free_.reserve(cloud_.node_count());
  for (std::size_t i = 0; i < cloud_.node_count(); ++i) {
    const obs::Labels labels{{"node", std::to_string(i)}};
    node_load_.push_back(&recorder_.series("cluster/node/load", labels, cap));
    node_free_.push_back(&recorder_.series("cluster/node/free", labels, cap));
  }
  utilization_ = &recorder_.series("cluster/utilization", {}, cap);
  leases_ = &recorder_.series("cluster/leases", {}, cap);
  frag_node_conc_ =
      &recorder_.series("cluster/frag/node_concentration", {}, cap);
  frag_rack_conc_ =
      &recorder_.series("cluster/frag/rack_concentration", {}, cap);
  frag_largest_node_ =
      &recorder_.series("cluster/frag/largest_node_request", {}, cap);
  frag_largest_rack_ =
      &recorder_.series("cluster/frag/largest_rack_request", {}, cap);
  frag_free_vms_ = &recorder_.series("cluster/frag/free_vms", {}, cap);
}

void ClusterSampler::sample(double t) {
  if (!recorder_.enabled()) return;
  const Inventory& inv = cloud_.inventory();
  const util::IntMatrix& alloc = inv.allocated();
  const util::IntMatrix remaining = inv.remaining();
  for (std::size_t i = 0; i < cloud_.node_count(); ++i) {
    int load = 0;
    int free = 0;
    for (std::size_t j = 0; j < cloud_.type_count(); ++j) {
      load += alloc.at(i, j);
      free += remaining.at(i, j);
    }
    node_load_[i]->record(t, load);
    node_free_[i]->record(t, free);
  }
  utilization_->record(t, inv.utilization());
  leases_->record(t, static_cast<double>(cloud_.lease_count()));
  const FragmentationStats frag = fragmentation(inv, cloud_.topology());
  frag_node_conc_->record(t, frag.node_concentration);
  frag_rack_conc_->record(t, frag.rack_concentration);
  frag_largest_node_->record(t, frag.largest_single_node_request);
  frag_largest_rack_->record(t, frag.largest_single_rack_request);
  frag_free_vms_->record(t, frag.free_vms);
  sampled_once_ = true;
  last_t_ = t;
  ++samples_;
}

bool ClusterSampler::maybe_sample(double t) {
  if (!recorder_.enabled()) return false;
  if (sampled_once_ && t < last_t_ + options_.period) return false;
  sample(t);
  return true;
}

}  // namespace vcopt::cluster
