// Algorithm 2 of the paper: global sub-optimisation for a batch of requests.
//
// Step 1  admit as many queued requests as current capacity allows (FIFO);
// Step 2  run the online heuristic (Algorithm 1) per request, debiting
//         capacity after each;
// Step 3  adjust pairs of allocations with distinct central nodes by the
//         Theorem-2 transfer: if cluster A holds a type-r VM on cluster B's
//         central node y while B holds a type-r VM on some other node q, and
//         D(x,y) + D(y,q) > D(x,q) (x = A's central), swapping the two VMs
//         strictly reduces the summed distance.  Swaps conserve per-node
//         per-type totals, so capacity feasibility is preserved by
//         construction.  We iterate pairs until no improving swap remains
//         (bounded: every swap strictly reduces a lower-bounded sum).
#pragma once

#include <optional>
#include <vector>

#include "placement/online_heuristic.h"
#include "placement/policy.h"

namespace vcopt::placement {

struct BatchPlacement {
  /// One placement per admitted request, in admission order.
  std::vector<Placement> placements;
  /// Indices (into the input batch) of the requests that were admitted.
  std::vector<std::size_t> admitted;
  double total_distance = 0;
  std::size_t transfers_applied = 0;
};

class GlobalSubOpt {
 public:
  struct Options {
    bool apply_transfers = true;     ///< false = Step 1+2 only (ablation)
    std::size_t max_rounds = 100;    ///< outer fixpoint rounds over all pairs
  };

  GlobalSubOpt() = default;
  explicit GlobalSubOpt(Options options) : options_(options) {}

  /// Serves a FIFO batch: admits requests while capacity lasts, places each
  /// with Algorithm 1, then applies Theorem-2 transfers across all pairs.
  /// `remaining` is not modified; the result carries the chosen allocations.
  BatchPlacement place_batch(const std::vector<cluster::Request>& batch,
                             const util::IntMatrix& remaining,
                             const cluster::Topology& topology);

  /// One Theorem-2 adjustment pass between two placements, after which
  /// both re-evaluate Definition 1.  Returns the number of improving swaps
  /// applied (0 when none exists).  Exposed for unit tests of Theorem 2.
  static std::size_t transfer(Placement& a, Placement& b,
                              const cluster::Topology& topology);

 private:
  Options options_;
};

}  // namespace vcopt::placement
