// RoutedPolicy: route-then-place as a drop-in placement::PlacementPolicy.
// The router shortlists k cells off the directory's sketches, then Algorithm
// 1 runs on each shortlisted cell's row-slice of `remaining` against the
// cell's own sub-topology and the lowest-DC result wins (best-of-shortlist;
// ties break toward the router's ranking).  The local allocation is
// scattered back to global node ids — intra-cell distances are preserved by
// construction, so the reported DC needs no correction.  A cell whose fill
// fails simply drops out (spill); when every shortlisted cell fails — or no
// cell admits the request — the policy falls back to the flat scan, so
// routing never refuses a request flat placement would satisfy.
//
// With a single-cell partition the slice is the whole matrix and the cell
// topology is the global one, so the policy is bitwise identical to plain
// OnlineHeuristic — the property the cell_tests seed sweep pins down.
#pragma once

#include <memory>

#include "cell/directory.h"
#include "cell/router.h"
#include "placement/online_heuristic.h"
#include "placement/policy.h"

namespace vcopt::cell {

class RoutedPolicy : public placement::PlacementPolicy {
 public:
  /// The directory must outlive the policy.
  RoutedPolicy(CellDirectory& directory, CellRouterOptions options = {});

  std::optional<placement::Placement> place(
      const cluster::Request& request, const cluster::CapacityView& view,
      const cluster::Topology& topology) override;

  std::string name() const override { return "routed"; }

 private:
  CellDirectory& directory_;
  CellRouter router_;
  placement::OnlineHeuristic inner_;
};

}  // namespace vcopt::cell
