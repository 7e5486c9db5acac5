#include "cell/router.h"

#include <algorithm>
#include <tuple>

#include "obs/metrics.h"

namespace vcopt::cell {

namespace {

struct RouterMetrics {
  obs::Counter& routed;
  obs::Counter& pruned;
  obs::Counter& unroutable;

  static RouterMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static RouterMetrics m{
        reg.counter("cell/routed"),
        reg.counter("cell/pruned"),
        reg.counter("cell/unroutable"),
    };
    return m;
  }
};

/// Greedy rack count: how many rack subtrees the fill will plausibly
/// straddle.  Racks are taken in descending capped coverage
/// (sum_j min(rack_free, request)) until the request's VM total is covered;
/// ties break on the lower local rack index.
int racks_needed(const CellSketch& s, const cluster::Request& request) {
  const std::size_t racks = s.rack_free.rows();
  const std::size_t m = s.rack_free.cols();
  int need = request.total_vms();
  if (need <= 0) return 0;
  std::vector<std::pair<int, std::size_t>> coverage;
  coverage.reserve(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    int c = 0;
    for (std::size_t j = 0; j < m; ++j) {
      c += std::min(s.rack_free(r, j), request.count(j));
    }
    if (c > 0) coverage.emplace_back(c, r);
  }
  std::sort(coverage.begin(), coverage.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  int used = 0;
  for (const auto& [c, r] : coverage) {
    ++used;
    need -= c;
    if (need <= 0) break;
  }
  return used;
}

}  // namespace

RouteDecision CellRouter::route(const cluster::Request& request,
                                const CellDirectory& directory) const {
  auto& metrics = RouterMetrics::get();
  RouteDecision decision;

  // (score tuple, cell id) for every admitting cell.
  using Score = std::tuple<int, int, int, std::size_t>;
  std::vector<Score> scored;
  const std::size_t cells = directory.cell_count();
  scored.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const CellSketch& s = directory.sketch(c);
    if (!s.admits(request)) {
      ++decision.pruned;
      continue;
    }
    const int affinity_class = s.rack_admits(request) ? 0 : 1;
    const int racks = affinity_class == 0 ? 1 : racks_needed(s, request);
    const int frag_mille = static_cast<int>(s.fragmentation() * 1000.0);
    scored.emplace_back(affinity_class, racks, frag_mille, c);
  }
  // The k best in order: the cell id makes every score distinct, so partial
  // selection gives the prefix a full sort would.
  const std::size_t k =
      std::min(std::max<std::size_t>(1, options_.shortlist), scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end());
  decision.shortlist.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    decision.shortlist.push_back(std::get<3>(scored[i]));
  }

  metrics.pruned.add(decision.pruned);
  if (decision.shortlist.empty()) {
    metrics.unroutable.add();
  } else {
    metrics.routed.add();
  }
  return decision;
}

}  // namespace vcopt::cell
