#include "placement/online_heuristic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "check/check.h"
#include "check/validators.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vcopt::placement {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Entry = cluster::Allocation::Entry;

// Per-thread scratch for Algorithm 1.  All buffers are sized once per
// (n, m) shape and reused across place() calls, so the scan and the fill
// perform no heap allocation in steady state.  `taken` holds the last
// filled candidate's allocation entries.
struct Workspace {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<int> need;            // outstanding per-type demand
  std::vector<int> lx;              // central node's free-capacity row L[x]
  std::vector<std::int32_t> key;    // per-node com(L[x], L[i]) overlap sums
  std::vector<std::size_t> tier;    // candidate ordering within one tier
  std::vector<std::size_t> far;     // off-rack, other-cloud candidates
  std::vector<Entry> taken;         // current candidate's (node, type, count)
  std::vector<int> rack_free;       // per-rack free sums, racks x m
  std::vector<int> cloud_free;      // per-cloud free sums, clouds x m
  std::vector<double> score;        // tier score per candidate central

  void prepare(std::size_t n_, std::size_t m_) {
    if (n == n_ && m == m_) return;
    n = n_;
    m = m_;
    need.assign(m, 0);
    lx.assign(m, 0);
    key.assign(n, 0);
    tier.reserve(n);
    far.reserve(n);
  }
};

Workspace& local_workspace() {
  thread_local Workspace ws;
  return ws;
}

// The greedy fill of Algorithm 1 for one fixed central node, evaluated into
// ws.taken, sorted by (node, type) on success.  Visits the central node,
// then rack-mates in descending com(L[x], L[i]) overlap (the paper's
// getList ordering), then off-rack nodes nearest-tier-first (same cloud,
// then other clouds) with the same overlap ordering inside each tier.
//
// On success, `final_distance` receives the exact distance from `central`,
// summed in ascending node order — the same FP evaluation order as
// Allocation::distance_from, so reported distances are bit-identical to an
// independent recomputation.
bool fill_candidate(const cluster::Request& request,
                    const util::IntMatrix& remaining,
                    const cluster::Topology& topology, std::size_t central,
                    Workspace& ws, double& final_distance) {
  ws.taken.clear();

  const std::vector<int>& req = request.counts();
  ws.need.assign(req.begin(), req.end());
  int outstanding = 0;
  for (int v : ws.need) outstanding += v;

  // Takes min(remaining[node], need) of each type.
  auto take = [&](std::size_t node) {
    for (std::size_t j = 0; j < ws.m; ++j) {
      const int t = std::min(ws.need[j], remaining(node, j));
      if (t > 0) {
        ws.taken.push_back({static_cast<std::uint32_t>(node),
                            static_cast<std::uint32_t>(j), t});
        ws.need[j] -= t;
        outstanding -= t;
      }
    }
  };

  // Sorts one tier into getList order, descending
  // key[i] = sum_j com(L[x], L[i])[j] with ties by index, and visits it.
  auto fill_tier = [&](std::vector<std::size_t>& nodes) {
    for (std::size_t i : nodes) {
      std::int32_t k = 0;
      for (std::size_t j = 0; j < ws.m; ++j) {
        k += std::min(ws.lx[j], remaining(i, j));
      }
      ws.key[i] = k;
    }
    std::sort(nodes.begin(), nodes.end(), [&](std::size_t a, std::size_t b) {
      if (ws.key[a] != ws.key[b]) return ws.key[a] > ws.key[b];
      return a < b;
    });
    for (std::size_t i : nodes) {
      take(i);
      if (outstanding == 0) return;
    }
  };

  const std::size_t rack = topology.rack_of(central);

  // Step 1: the central node itself (com(L[x], R)).
  take(central);
  for (std::size_t j = 0; j < ws.m; ++j) ws.lx[j] = remaining(central, j);

  // Step 2: rack-mates — getList(D, x, 0).
  if (outstanding > 0) {
    ws.tier.clear();
    for (std::size_t i : topology.nodes_in_rack(rack)) {
      if (i != central) ws.tier.push_back(i);
    }
    fill_tier(ws.tier);
  }

  // Step 3: off-rack nodes — getList(D, x, 1), nearer tiers first (same
  // cloud before cross-cloud) so Theorem 1 keeps applying, then the
  // capacity-overlap ordering inside each tier.  Only reached (and only
  // sorted) when the rack could not complete the request.  One pass splits
  // the two tiers.
  if (outstanding > 0) {
    const std::size_t cloud = topology.cloud_of_rack(rack);
    ws.tier.clear();
    ws.far.clear();
    for (std::size_t i = 0; i < ws.n; ++i) {
      const std::size_t r = topology.rack_of(i);
      if (r == rack) continue;
      (topology.cloud_of_rack(r) == cloud ? ws.tier : ws.far).push_back(i);
    }
    fill_tier(ws.tier);
    if (outstanding > 0) fill_tier(ws.far);
  }

  if (outstanding > 0) return false;  // infeasible from this central

  // Each node is taken at most once, its types ascending: sorting by
  // (node, type) gives the allocation's entries, and the exact distance
  // sums their nodes in ascending order (matches distance_from).
  std::sort(ws.taken.begin(), ws.taken.end(), cluster::Allocation::cell_less);
  double d = 0;
  for (std::size_t e = 0; e < ws.taken.size();) {
    const std::uint32_t node = ws.taken[e].node;
    int vms = 0;
    for (; e < ws.taken.size() && ws.taken[e].node == node; ++e) {
      vms += ws.taken[e].count;
    }
    d += static_cast<double>(vms) * topology.distance(node, central);
  }
  final_distance = d;
  return true;
}

// Per-rack and per-cloud free sums of `remaining`, in one pass over the
// nodes.  Negative cells, which no fill takes from, count as 0.
void build_free_sums(const util::IntMatrix& remaining,
                     const cluster::Topology& topology, Workspace& ws) {
  const std::size_t m = ws.m;
  ws.rack_free.assign(topology.rack_count() * m, 0);
  ws.cloud_free.assign(topology.cloud_count() * m, 0);
  for (std::size_t i = 0; i < ws.n; ++i) {
    int* rack_row = ws.rack_free.data() + topology.rack_of(i) * m;
    for (std::size_t j = 0; j < m; ++j) {
      rack_row[j] += std::max(remaining(i, j), 0);
    }
  }
  for (std::size_t r = 0; r < topology.rack_count(); ++r) {
    int* cloud_row = ws.cloud_free.data() + topology.cloud_of_rack(r) * m;
    for (std::size_t j = 0; j < m; ++j) cloud_row[j] += ws.rack_free[r * m + j];
  }
}

// The distance fill_candidate(central) reaches, without filling.  Whatever
// the getList order inside a tier, once the fill has visited the whole tier
// it has taken min(outstanding, tier free) of each type, so with R the
// request and L the free matrix: a = min(R, L[x]) on the node,
// b = min(R - a, rack free - L[x]) in the rack, c = min(rest, cloud free -
// rack free) in the cloud, and the rest beyond it.  O(m).
double tier_score(const cluster::Request& request,
                  const util::IntMatrix& remaining,
                  const cluster::Topology& topology, std::size_t central,
                  const Workspace& ws) {
  const std::size_t rack = topology.rack_of(central);
  const int* rack_row = ws.rack_free.data() + rack * ws.m;
  const int* cloud_row =
      ws.cloud_free.data() + topology.cloud_of_rack(rack) * ws.m;
  std::int64_t on_node = 0;
  std::int64_t in_rack = 0;
  std::int64_t in_cloud = 0;
  std::int64_t beyond = 0;
  for (std::size_t j = 0; j < ws.m; ++j) {
    int need = request.count(j);
    const int lx = std::max(remaining(central, j), 0);
    const int a = std::min(need, lx);
    need -= a;
    const int b = std::min(need, rack_row[j] - lx);
    need -= b;
    const int c = std::min(need, cloud_row[j] - rack_row[j]);
    on_node += a;
    in_rack += b;
    in_cloud += c;
    beyond += need - c;
  }
  const cluster::DistanceConfig& tiers = topology.distances();
  return tiers.same_node * static_cast<double>(on_node) +
         tiers.same_rack * static_cast<double>(in_rack) +
         tiers.cross_rack * static_cast<double>(in_cloud) +
         tiers.cross_cloud * static_cast<double>(beyond);
}

// How far above the minimum score a candidate may score and still fill to
// the winning distance.  The fill sums at most n nonnegative products in
// node order and the score four, so each lies within a relative
// gamma_n = n·u/(1 - n·u), resp. gamma_4, of the exact distance (u = ε/2).
// A candidate scoring above (1 + 2(n + 4)ε)·min therefore fills strictly
// above the minimum's fill and cannot win.  With integral tiers and
// request·(largest tier) <= 2^53, every product and partial sum of both
// evaluations is an exact integer in double: the score is the fill's
// distance bit for bit and the slack is 0.
double rounding_slack(const cluster::Request& request,
                      const cluster::DistanceConfig& tiers, std::size_t n,
                      double min_score) {
  bool exact =
      static_cast<double>(request.total_vms()) * tiers.cross_cloud <= 0x1p53;
  for (double t : {tiers.same_node, tiers.same_rack, tiers.cross_rack,
                   tiers.cross_cloud}) {
    exact = exact && t == std::trunc(t);
  }
  if (exact) return 0;
  return 2.0 * static_cast<double>(n + 4) *
         std::numeric_limits<double>::epsilon() * min_score;
}

// One flush per place() call; the scan itself stays atomics-free.
void record_place_metrics(std::size_t candidates, std::size_t pruned,
                          bool found) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  static obs::Counter& placements = reg.counter("placement/placements");
  static obs::Counter& infeasible = reg.counter("placement/infeasible");
  static obs::Counter& evaluated = reg.counter("placement/candidates_evaluated");
  static obs::Counter& abandoned = reg.counter("placement/candidates_pruned");
  evaluated.add(candidates);
  abandoned.add(pruned);
  (found ? placements : infeasible).add();
}

}  // namespace

std::optional<cluster::Allocation> OnlineHeuristic::fill_from_central(
    const cluster::Request& request, const util::IntMatrix& remaining,
    const cluster::Topology& topology, std::size_t central) {
  if (topology.node_count() != remaining.rows() ||
      request.type_count() != remaining.cols()) {
    throw std::invalid_argument("fill_from_central: shape mismatch");
  }
  Workspace ws;
  ws.prepare(remaining.rows(), remaining.cols());
  double d = 0;
  if (!fill_candidate(request, remaining, topology, central, ws, d)) {
    return std::nullopt;
  }
  return cluster::Allocation::from_entries(ws.n, ws.m, std::move(ws.taken));
}

double OnlineHeuristic::score_from_central(const cluster::Request& request,
                                           const util::IntMatrix& remaining,
                                           const cluster::Topology& topology,
                                           std::size_t central) {
  if (topology.node_count() != remaining.rows() ||
      request.type_count() != remaining.cols()) {
    throw std::invalid_argument("score_from_central: shape mismatch");
  }
  Workspace ws;
  ws.prepare(remaining.rows(), remaining.cols());
  build_free_sums(remaining, topology, ws);
  return tier_score(request, remaining, topology, central, ws);
}

std::optional<Placement> OnlineHeuristic::place(
    const cluster::Request& request, const util::IntMatrix& remaining,
    const cluster::Topology& topology) {
  VCOPT_TRACE_SPAN("placement/online_place");
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  // Shape check hoisted out of the per-candidate fill: validate once per
  // request instead of once per candidate central node.
  if (topology.node_count() != n || request.type_count() != m) {
    throw std::invalid_argument("OnlineHeuristic::place: shape mismatch");
  }

  // Admission precheck (lines 1-5 of Algorithm 1): total availability.
  for (std::size_t j = 0; j < m; ++j) {
    if (request.count(j) > remaining.col_sum(j)) {
      record_place_metrics(0, 0, false);
      return std::nullopt;
    }
  }

  // Lines 9-14: if one node can host everything, take it.  Its DC is
  // Definition 1 of a one-node allocation, ΣR · same_node, in the bits
  // Allocation::best_central computes.
  for (std::size_t i = 0; i < n; ++i) {
    bool whole = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (remaining(i, j) < request.count(j)) {
        whole = false;
        break;
      }
    }
    if (whole) {
      std::vector<Entry> on_node;
      for (std::size_t j = 0; j < m; ++j) {
        if (request.count(j) > 0) {
          on_node.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j), request.count(j)});
        }
      }
      record_place_metrics(1, 0, true);
      return Placement{
          cluster::Allocation::from_entries(n, m, std::move(on_node)), i,
          static_cast<double>(request.total_vms()) * topology.distance(i, i)};
    }
  }

  // Candidate central nodes: anything with free capacity.
  std::vector<std::size_t> candidates;
  candidates.reserve(n);
  for (std::size_t x = 0; x < n; ++x) {
    if (remaining.row_sum(x) > 0) candidates.push_back(x);
  }

  Workspace& ws = local_workspace();
  ws.prepare(n, m);
  std::optional<Placement> best;

  if (mode_ == Mode::kFirstImprovement) {
    // Literal pseudocode behaviour: stop at the first candidate that
    // completes (the first feasible fill trivially improves on "nothing").
    std::size_t evaluated = 0;
    for (std::size_t x : candidates) {
      ++evaluated;
      double d = 0;
      if (fill_candidate(request, remaining, topology, x, ws, d)) {
        best = Placement{cluster::Allocation::from_entries(n, m, ws.taken), x,
                         d};
        break;
      }
    }
    record_place_metrics(evaluated, 0, best.has_value());
  } else {
    // kBestOfAllStarts: the winner is the lexicographic minimum of
    // (distance, central index) over every candidate.  Past the admission
    // precheck every fill completes (it visits every node), and its
    // distance is the candidate's tier score, so score them all, then fill
    // in index order only those within rounding slack of the minimum — the
    // first minimum alone when scores are exact.
    build_free_sums(remaining, topology, ws);
    ws.score.resize(candidates.size());
    double min_score = kInf;
    for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
      ws.score[idx] = tier_score(request, remaining, topology,
                                 candidates[idx], ws);
      min_score = std::min(min_score, ws.score[idx]);
    }
    const double slack =
        rounding_slack(request, topology.distances(), n, min_score);
    std::size_t filled = 0;
    for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
      if (ws.score[idx] > min_score + slack) continue;
      const std::size_t x = candidates[idx];
      double d = 0;
      fill_candidate(request, remaining, topology, x, ws, d);
      ++filled;
      if (!best || d < best->distance) {
        best = Placement{cluster::Allocation::from_entries(n, m, ws.taken), x,
                         d};
      }
      if (slack == 0) break;
    }
    record_place_metrics(candidates.size(), candidates.size() - filled,
                         best.has_value());
#if VCOPT_ENABLE_CHECKS
    // The exactness claim, checked against filling every candidate: each
    // fill completes within the slack of its score, and the lexicographic
    // minimum of (filled distance, central index) is the scored winner.
    double ref_d = kInf;
    std::size_t ref_x = 0;
    for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
      double d = kInf;  // stays infinite if the fill cannot complete
      fill_candidate(request, remaining, topology, candidates[idx], ws, d);
      VCOPT_INVARIANT(std::abs(d - ws.score[idx]) <= slack)
          << " central " << candidates[idx] << " scored " << ws.score[idx]
          << " but filled to " << d;
      if (d < ref_d) {
        ref_d = d;
        ref_x = candidates[idx];
      }
    }
    VCOPT_INVARIANT(best && best->central == ref_x && best->distance == ref_d)
        << " scored scan disagrees with filling every candidate: central "
        << ref_x << " at " << ref_d;
#endif
  }

  if (best) {
    // Algorithm-1 exit contract: Def. 2 feasibility against the remaining
    // capacity we were given, and a reported distance that matches an
    // independent recomputation for the chosen central node.  Checked
    // builds only: the validators take the dense matrix.
    VCOPT_VALIDATE(check::validate_allocation(
        best->allocation.to_matrix(),  // NOLINT(vcopt-dense-allocation)
        request.counts(), remaining));
    VCOPT_VALIDATE(check::validate_reported_distance(
        best->allocation.to_matrix(),  // NOLINT(vcopt-dense-allocation)
        [&topology](std::size_t a, std::size_t b) {
          return topology.distance(a, b);
        },
        best->central, best->distance));
  }
  return best;
}

}  // namespace vcopt::placement
