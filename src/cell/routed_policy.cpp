#include "cell/routed_policy.h"

#include <stdexcept>

#include "check/check.h"
#include "obs/metrics.h"

namespace vcopt::cell {

namespace {

struct PolicyMetrics {
  obs::Counter& placed_in_winner;
  obs::Counter& spilled;
  obs::Counter& fallback_flat;

  static PolicyMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static PolicyMetrics m{
        reg.counter("cell/placed_in_winner"),
        reg.counter("cell/spilled"),
        reg.counter("cell/fallback_flat"),
    };
    return m;
  }
};

}  // namespace

RoutedPolicy::RoutedPolicy(CellDirectory& directory,
                           CellRouterOptions options)
    : directory_(directory), router_(options) {}

std::optional<placement::Placement> RoutedPolicy::place(
    const cluster::Request& request, const cluster::CapacityView& view,
    const cluster::Topology& topology) {
  const util::IntMatrix& remaining = view.matrix();
  if (remaining.rows() != directory_.node_count() ||
      topology.node_count() != directory_.node_count()) {
    throw std::invalid_argument(
        "RoutedPolicy::place: remaining/topology shape does not match the "
        "directory's cloud");
  }
  VCOPT_VALIDATE(directory_.validate());

  auto& metrics = PolicyMetrics::get();
  const RouteDecision decision = router_.route(request, directory_);
  const std::size_t m = remaining.cols();

  // Best-of-shortlist: every shortlisted cell is solved and the lowest-DC
  // placement wins (ties break toward the router's ranking, so the result
  // is deterministic).  Solving k small cells is still orders of magnitude
  // cheaper than one flat scan, and it is what holds routed mean DC within
  // a few percent of flat — the router's sketch score is a capacity/affinity
  // signal, not a DC oracle.
  std::optional<placement::Placement> best;  // in the cell's local ids
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < decision.shortlist.size(); ++k) {
    const std::size_t c = decision.shortlist[k];
    const Cell& cl = directory_.partition().cell(c);
    util::IntMatrix local(cl.nodes.size(), m);
    for (std::size_t i = 0; i < cl.nodes.size(); ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        local(i, j) = remaining(cl.nodes[i], j);
      }
    }
    std::optional<placement::Placement> placed = inner_.place(
        request, local, directory_.partition().cell_topology(c));
    if (!placed) continue;
    if (best && placed->distance >= best->distance) continue;
    best = std::move(placed);
    best_k = k;
  }
  if (best) {
    // Relabelled to global ids once, for the winning cell only.
    (best_k == 0 ? metrics.placed_in_winner : metrics.spilled).add();
    const std::size_t c = decision.shortlist[best_k];
    return placement::Placement{
        directory_.partition().to_global(c, best->allocation, remaining.rows()),
        directory_.partition().cell(c).nodes[best->central], best->distance};
  }

  metrics.fallback_flat.add();
  return inner_.place(request, view, topology);
}

}  // namespace vcopt::cell
