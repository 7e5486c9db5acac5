#include "cluster/sampler.h"

#include <algorithm>
#include <string>

#include "check/check.h"
#include "check/validators.h"

namespace vcopt::cluster {

namespace {

/// The five FragmentationStats fields in a fixed order, for the
/// checked-build cross-check.
std::vector<double> figures(const FragmentationStats& f) {
  return {f.node_concentration, f.rack_concentration,
          static_cast<double>(f.largest_single_node_request),
          static_cast<double>(f.largest_single_rack_request),
          static_cast<double>(f.free_vms)};
}

const std::vector<std::string>& figure_names() {
  static const std::vector<std::string> names{
      "node_concentration", "rack_concentration", "largest_node_request",
      "largest_rack_request", "free_vms"};
  return names;
}

}  // namespace

ClusterSampler::ClusterSampler(const Cloud& cloud, obs::Recorder& recorder,
                               ClusterSamplerOptions options)
    : cloud_(cloud),
      recorder_(recorder),
      options_(options),
      types_(cloud.type_count()) {
  constexpr std::size_t cap = 512;  // ring capacity of every series
  const std::size_t n = cloud_.node_count();
  const std::size_t racks = cloud_.topology().rack_count();
  node_load_series_.reserve(n);
  node_free_series_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const obs::Labels labels{{"node", std::to_string(i)}};
    node_load_series_.push_back(
        &recorder_.series("cluster/node/load", labels, cap));
    node_free_series_.push_back(
        &recorder_.series("cluster/node/free", labels, cap));
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

  node_load_.assign(n, 0);
  node_free_.assign(n, 0);
  node_free_by_type_.assign(n * types_, 0);
  rack_free_by_type_.assign(racks * types_, 0);
  rack_max_by_type_.assign(racks * types_, 0);
  rack_max_node_.assign(racks, 0);
  type_free_.assign(types_, 0);
}

void ClusterSampler::refresh_node(double t, std::size_t i, std::size_t rack,
                                  bool force) {
  const Inventory& inv = cloud_.inventory();
  const util::IntMatrix& alloc = inv.allocated();
  int* node_row = &node_free_by_type_[i * types_];
  int* rack_row = &rack_free_by_type_[rack * types_];
  int load = 0;
  int free = 0;
  for (std::size_t j = 0; j < types_; ++j) {
    const int f = inv.remaining_at(i, j);
    const int delta = f - node_row[j];
    node_row[j] = f;
    rack_row[j] += delta;
    type_free_[j] += delta;
    free += f;
    load += alloc(i, j);
  }
  if (force || load != node_load_[i]) node_load_series_[i]->record(t, load);
  if (force || free != node_free_[i]) node_free_series_[i]->record(t, free);
  node_load_[i] = load;
  node_free_[i] = free;
}

void ClusterSampler::refresh_rack_maxima(std::size_t r) {
  int* max_row = &rack_max_by_type_[r * types_];
  std::fill(max_row, max_row + types_, 0);
  int largest = 0;
  for (const std::size_t i : cloud_.topology().nodes_in_rack(r)) {
    const int* node_row = &node_free_by_type_[i * types_];
    for (std::size_t j = 0; j < types_; ++j) {
      max_row[j] = std::max(max_row[j], node_row[j]);
    }
    largest = std::max(largest, node_free_[i]);
  }
  rack_max_node_[r] = largest;
}

FragmentationStats ClusterSampler::fragmentation_stats() const {
  // The same integers as fragmentation() combined in the same order, so the
  // doubles come out bit for bit equal.
  const std::size_t racks = rack_max_node_.size();
  FragmentationStats out;
  for (const int f : type_free_) out.free_vms += f;
  double node_sum = 0, rack_sum = 0;
  std::size_t types_counted = 0;
  for (std::size_t j = 0; j < types_; ++j) {
    const int total = type_free_[j];
    if (total == 0) continue;
    ++types_counted;
    int best_node = 0;
    int best_rack = 0;
    for (std::size_t r = 0; r < racks; ++r) {
      best_node = std::max(best_node, rack_max_by_type_[r * types_ + j]);
      best_rack = std::max(best_rack, rack_free_by_type_[r * types_ + j]);
    }
    node_sum += static_cast<double>(best_node) / total;
    rack_sum += static_cast<double>(best_rack) / total;
  }
  if (types_counted > 0) {
    out.node_concentration = node_sum / static_cast<double>(types_counted);
    out.rack_concentration = rack_sum / static_cast<double>(types_counted);
  }
  for (std::size_t r = 0; r < racks; ++r) {
    out.largest_single_node_request =
        std::max(out.largest_single_node_request, rack_max_node_[r]);
    int rack_total = 0;
    for (std::size_t j = 0; j < types_; ++j) {
      rack_total += rack_free_by_type_[r * types_ + j];
    }
    out.largest_single_rack_request =
        std::max(out.largest_single_rack_request, rack_total);
  }
  return out;
}

void ClusterSampler::sample(double t) {
  if (!recorder_.enabled()) return;
  const Topology& topo = cloud_.topology();
  if (!sampled_once_) {
    // One full pass fills every aggregate and gives every node its first
    // load and free point.
    for (std::size_t i = 0; i < cloud_.node_count(); ++i) {
      refresh_node(t, i, topo.rack_of(i), /*force=*/true);
    }
    for (std::size_t r = 0; r < topo.rack_count(); ++r) refresh_rack_maxima(r);
  } else if (cloud_.change_stamp() != cursor_) {
    for (std::size_t r = 0; r < topo.rack_count(); ++r) {
      if (cloud_.rack_stamp(r) <= cursor_) continue;
      for (const std::size_t i : topo.nodes_in_rack(r)) {
        if (cloud_.node_stamp(i) > cursor_) {
          refresh_node(t, i, r, /*force=*/false);
        }
      }
      refresh_rack_maxima(r);
    }
  }
  cursor_ = cloud_.change_stamp();

  const FragmentationStats frag = fragmentation_stats();
  VCOPT_VALIDATE(check::validate_bitwise_equal(
      figures(frag), figures(fragmentation(cloud_.inventory(), topo)),
      figure_names(), "ClusterSampler incremental fragmentation"));
  utilization_->record(t, cloud_.inventory().utilization());
  leases_->record(t, static_cast<double>(cloud_.lease_count()));
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
