// Baseline placement policies the paper's approach is compared against:
// affinity-oblivious strategies commonly used for load balancing.
#pragma once

#include "placement/policy.h"
#include "util/rng.h"

namespace vcopt::placement {

/// Places VMs on nodes in index order, packing each node before moving on.
/// Affinity-blind but tends to co-locate by accident on empty clouds.
class FirstFitPolicy : public PlacementPolicy {
 public:
  std::optional<Placement> place(const cluster::Request& request,
                                 const cluster::CapacityView& view,
                                 const cluster::Topology& topology) override;
  std::string name() const override { return "first-fit"; }
};

/// Spreads VMs one at a time onto the node with the most free capacity
/// (classic load-balancing / anti-affinity): the adversarial baseline for
/// cluster distance.
class SpreadPolicy : public PlacementPolicy {
 public:
  std::optional<Placement> place(const cluster::Request& request,
                                 const cluster::CapacityView& view,
                                 const cluster::Topology& topology) override;
  std::string name() const override { return "spread"; }
};

/// Places each VM on a uniformly random node with free capacity of the
/// right type.  Deterministic given the seed.
class RandomPolicy : public PlacementPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 1) : rng_(seed) {}
  std::optional<Placement> place(const cluster::Request& request,
                                 const cluster::CapacityView& view,
                                 const cluster::Topology& topology) override;
  std::string name() const override { return "random"; }

 private:
  util::Rng rng_;
};

/// The exact SD optimum (per-central-node greedy scan), wrapped as a policy.
class SdExactPolicy : public PlacementPolicy {
 public:
  std::optional<Placement> place(const cluster::Request& request,
                                 const cluster::CapacityView& view,
                                 const cluster::Topology& topology) override;
  std::string name() const override { return "sd-exact"; }
};

}  // namespace vcopt::placement
