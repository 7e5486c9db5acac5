#include "placement/online_heuristic.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "check/check.h"
#include "check/validators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mutex.h"

namespace vcopt::placement {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Below this many candidate centrals the fork/join overhead of the pool
// outweighs the scan itself, so Execution::kAuto stays serial.
constexpr std::size_t kAutoParallelMinCandidates = 64;

// Per-thread scratch for candidate evaluation.  All buffers are sized once
// per (n, m) shape and reused across candidates and place() calls, so the
// fill loop performs no heap allocation in steady state.  `alloc` holds the
// current candidate's partial allocation; the invariant is that every entry
// outside `touched`'s rows is zero (fills clear only the rows they wrote).
struct Workspace {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<int> need;            // outstanding per-type demand
  std::vector<int> lx;              // central node's free-capacity row L[x]
  std::vector<std::int32_t> key;    // per-node com(L[x], L[i]) overlap sums
  std::vector<std::int32_t> soa;    // column-major copy of `remaining`
  std::vector<std::size_t> tier;    // candidate ordering within one tier
  std::vector<std::size_t> far;     // off-rack, other-cloud candidates
  std::vector<int> node_vms;        // VMs taken per node, current candidate
  std::vector<std::size_t> touched; // nodes written by the current candidate
  util::IntMatrix alloc;            // current candidate's allocation
  util::IntMatrix best_alloc;       // snapshot of the chunk's best candidate

  void prepare(std::size_t n_, std::size_t m_) {
    if (n == n_ && m == m_) return;
    n = n_;
    m = m_;
    need.assign(m, 0);
    lx.assign(m, 0);
    key.assign(n, 0);
    soa.assign(n * m, 0);
    node_vms.assign(n, 0);
    touched.clear();
    tier.reserve(n);
    far.reserve(n);
    alloc = util::IntMatrix(n, m, 0);
  }

  // Transposes `remaining` into `soa` (soa[j*n+i] = remaining(i,j)) so the
  // off-rack getList scoring can stream whole columns.  Called once per
  // candidate scan; the matrix is read-only for the scan's duration.
  void build_soa(const util::IntMatrix& remaining) {
    const std::vector<int>& flat = remaining.data();  // row-major
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t row = i * m;
      for (std::size_t j = 0; j < m; ++j) {
        soa[j * n + i] = static_cast<std::int32_t>(flat[row + j]);
      }
    }
  }
};

Workspace& local_workspace() {
  thread_local Workspace ws;
  return ws;
}

// The greedy fill of Algorithm 1 for one fixed central node, evaluated into
// ws.alloc.  Visits the central node, then rack-mates in descending
// com(L[x], L[i]) overlap (the paper's getList ordering), then off-rack
// nodes nearest-tier-first (same cloud, then other clouds) with the same
// overlap ordering inside each tier.
//
// `bound` enables Theorem-1-style pruning: the partial distance only grows
// as farther nodes are taken, so once it reaches `bound` the candidate can
// no longer strictly beat the incumbent (nor win the lowest-index tie-break
// — the incumbent always has a lower candidate index within a chunk) and
// the fill is abandoned.  Pass kInf to disable.
//
// On success, `final_distance` receives the exact distance from `central`,
// summed in ascending node order — the same FP evaluation order as
// Allocation::distance_from, so reported distances are bit-identical to an
// independent recomputation.
bool fill_candidate(const cluster::Request& request,
                    const util::IntMatrix& remaining,
                    const cluster::Topology& topology, std::size_t central,
                    double bound, Workspace& ws, double& final_distance,
                    bool& pruned) {
  pruned = false;

  // O(touched) reset of the previous candidate's writes.
  for (std::size_t i : ws.touched) {
    ws.node_vms[i] = 0;
    for (std::size_t j = 0; j < ws.m; ++j) ws.alloc(i, j) = 0;
  }
  ws.touched.clear();

  const std::vector<int>& req = request.counts();
  ws.need.assign(req.begin(), req.end());
  int outstanding = 0;
  for (int v : ws.need) outstanding += v;

  // Takes min(remaining[node], need) of each type; returns VMs taken.
  auto take = [&](std::size_t node) {
    int took = 0;
    for (std::size_t j = 0; j < ws.m; ++j) {
      const int t = std::min(ws.need[j], remaining(node, j));
      if (t > 0) {
        ws.alloc(node, j) = t;
        ws.need[j] -= t;
        took += t;
      }
    }
    if (took > 0) {
      ws.node_vms[node] = took;
      ws.touched.push_back(node);
      outstanding -= took;
    }
    return took;
  };

  // Computes the getList sort keys for the nodes currently in ws.tier:
  // key[i] = sum_j com(L[x], L[i])[j], against the cached central row.
  // Used for the (small) rack tier, where a per-node scalar loop beats
  // setting up column streams.
  auto compute_tier_keys = [&] {
    for (std::size_t i : ws.tier) {
      std::int32_t k = 0;
      for (std::size_t j = 0; j < ws.m; ++j) {
        k += std::min(ws.lx[j], remaining(i, j));
      }
      ws.key[i] = k;
    }
  };

  // Same keys for ALL nodes at once, streamed column-wise over the SoA copy.
  // Integer arithmetic in both paths, so the values (and hence every
  // downstream sort order) are identical to compute_tier_keys.  Used for the
  // off-rack tier, which is nearly the whole cluster whenever it is needed
  // at all.
  auto compute_all_keys = [&] {
    std::fill(ws.key.begin(), ws.key.end(), 0);
    for (std::size_t j = 0; j < ws.m; ++j) {
      if (ws.lx[j] <= 0) continue;
      const std::int32_t cap = static_cast<std::int32_t>(ws.lx[j]);
      const std::int32_t* col = ws.soa.data() + j * ws.n;
      for (std::size_t i = 0; i < ws.n; ++i) {
        ws.key[i] += col[i] < cap ? col[i] : cap;
      }
    }
  };

  // Visits one tier's nodes in order, all at distance `d` from the central
  // node; false once the partial distance reaches `bound`.
  double running = 0;
  auto fill_tier = [&](const std::vector<std::size_t>& nodes, double d) {
    for (std::size_t i : nodes) {
      const int took = take(i);
      if (took > 0) {
        running += static_cast<double>(took) * d;
        if (outstanding == 0) break;
        if (running >= bound) {
          pruned = true;
          return false;
        }
      }
    }
    return true;
  };
  auto by_key = [&](std::size_t a, std::size_t b) {
    if (ws.key[a] != ws.key[b]) return ws.key[a] > ws.key[b];
    return a < b;
  };

  const cluster::DistanceConfig& tiers = topology.distances();
  const std::size_t rack = topology.rack_of(central);

  // Step 1: the central node itself (com(L[x], R)); contributes distance 0.
  take(central);

  // Step 2: rack-mates — getList(D, x, 0).
  if (outstanding > 0) {
    for (std::size_t j = 0; j < ws.m; ++j) ws.lx[j] = remaining(central, j);
    ws.tier.clear();
    for (std::size_t i : topology.nodes_in_rack(rack)) {
      if (i != central) ws.tier.push_back(i);
    }
    compute_tier_keys();
    std::sort(ws.tier.begin(), ws.tier.end(), by_key);
    if (!fill_tier(ws.tier, tiers.same_rack)) return false;
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
    compute_all_keys();
    std::sort(ws.tier.begin(), ws.tier.end(), by_key);
    if (!fill_tier(ws.tier, tiers.cross_rack)) return false;
    if (outstanding > 0) {
      std::sort(ws.far.begin(), ws.far.end(), by_key);
      if (!fill_tier(ws.far, tiers.cross_cloud)) return false;
    }
  }

  if (outstanding > 0) return false;  // infeasible from this central

  // Exact distance in ascending node order (matches distance_from).
  std::sort(ws.touched.begin(), ws.touched.end());
  double d = 0;
  for (std::size_t i : ws.touched) {
    d += static_cast<double>(ws.node_vms[i]) * topology.distance(i, central);
  }
  final_distance = d;
  return true;
}

// One flush per place() call; the candidate scan itself stays atomics-free.
void record_place_metrics(std::size_t candidates, std::size_t pruned,
                          bool found, bool parallel) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  static obs::Counter& placements = reg.counter("placement/placements");
  static obs::Counter& infeasible = reg.counter("placement/infeasible");
  static obs::Counter& evaluated = reg.counter("placement/candidates_evaluated");
  static obs::Counter& abandoned = reg.counter("placement/candidates_pruned");
  static obs::Counter& par_scans = reg.counter("placement/parallel_scans");
  evaluated.add(candidates);
  abandoned.add(pruned);
  if (parallel) par_scans.add();
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
  ws.build_soa(remaining);
  double d = 0;
  bool was_pruned = false;
  if (!fill_candidate(request, remaining, topology, central, kInf, ws, d,
                      was_pruned)) {
    return std::nullopt;
  }
  return cluster::Allocation(std::move(ws.alloc));
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
  // col_sum also warms `remaining`'s sum cache from this single thread,
  // before any pool worker touches the matrix read-only.
  for (std::size_t j = 0; j < m; ++j) {
    if (request.count(j) > remaining.col_sum(j)) {
      record_place_metrics(0, 0, false, false);
      return std::nullopt;
    }
  }

  // Lines 9-14: if one node can host everything, distance is 0 — take it.
  for (std::size_t i = 0; i < n; ++i) {
    bool whole = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (remaining(i, j) < request.count(j)) {
        whole = false;
        break;
      }
    }
    if (whole) {
      cluster::Allocation alloc(n, m);
      for (std::size_t j = 0; j < m; ++j) {
        alloc.at(i, j) = request.count(j);
      }
      record_place_metrics(1, 0, true, false);
      return Placement{std::move(alloc), i, 0.0};
    }
  }

  // Candidate central nodes: anything with free capacity.
  std::vector<std::size_t> candidates;
  candidates.reserve(n);
  for (std::size_t x = 0; x < n; ++x) {
    if (remaining.row_sum(x) > 0) candidates.push_back(x);
  }

  std::optional<Placement> best;

  if (mode_ == Mode::kFirstImprovement) {
    // Literal pseudocode behaviour: stop at the first candidate that
    // completes (the first feasible fill trivially improves on "nothing").
    Workspace& ws = local_workspace();
    ws.prepare(n, m);
    ws.build_soa(remaining);
    std::size_t evaluated = 0;
    for (std::size_t x : candidates) {
      ++evaluated;
      double d = 0;
      bool was_pruned = false;
      if (fill_candidate(request, remaining, topology, x, kInf, ws, d,
                         was_pruned)) {
        best = Placement{cluster::Allocation(ws.alloc), x, d};
        break;
      }
    }
    record_place_metrics(evaluated, 0, best.has_value(), false);
  } else {
    // kBestOfAllStarts: every candidate is independent and read-only over
    // `remaining`, so scan chunks in parallel.  Each chunk keeps a local
    // incumbent (enabling the distance-bound pruning); chunk results merge
    // commutatively — lexicographic min of (distance, central index) — so
    // the winner is deterministic and bit-identical to the serial scan.
    util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
    const bool parallel =
        execution_ != Execution::kSerial && pool.size() > 1 &&
        !pool.in_worker() &&
        (execution_ == Execution::kParallel ||
         candidates.size() >= kAutoParallelMinCandidates);

    util::Mutex merge_mu;
    bool found = false;
    double best_d = kInf;
    std::size_t best_central = 0;
    util::IntMatrix best_alloc;
    std::size_t evaluated = 0;
    std::size_t pruned = 0;

    auto scan_chunk = [&](std::size_t chunk_begin, std::size_t chunk_end) {
      Workspace& ws = local_workspace();
      ws.prepare(n, m);
      ws.build_soa(remaining);
      bool chunk_found = false;
      double chunk_d = kInf;
      std::size_t chunk_central = 0;
      std::size_t chunk_evaluated = 0;
      std::size_t chunk_pruned = 0;
      for (std::size_t idx = chunk_begin; idx < chunk_end; ++idx) {
        const std::size_t x = candidates[idx];
        ++chunk_evaluated;
        double d = 0;
        bool was_pruned = false;
        if (fill_candidate(request, remaining, topology, x,
                           chunk_found ? chunk_d : kInf, ws, d, was_pruned)) {
          if (!chunk_found || d < chunk_d) {
            chunk_found = true;
            chunk_d = d;
            chunk_central = x;
            ws.best_alloc = ws.alloc;
          }
        } else if (was_pruned) {
          ++chunk_pruned;
        }
      }
      util::MutexLock lock(merge_mu);
      evaluated += chunk_evaluated;
      pruned += chunk_pruned;
      if (chunk_found &&
          (!found || chunk_d < best_d ||
           (chunk_d == best_d && chunk_central < best_central))) {
        found = true;
        best_d = chunk_d;
        best_central = chunk_central;
        best_alloc = ws.best_alloc;
      }
    };

    if (parallel) {
      pool.parallel_for(candidates.size(), scan_chunk);
    } else if (!candidates.empty()) {
      scan_chunk(0, candidates.size());
    }

    record_place_metrics(evaluated, pruned, found, parallel);
    if (found) {
      best = Placement{cluster::Allocation(std::move(best_alloc)), best_central,
                       best_d};
    }
  }

  if (best) {
    // Algorithm-1 exit contract: Def. 2 feasibility against the remaining
    // capacity we were given, and a reported distance that matches an
    // independent recomputation for the chosen central node.
    VCOPT_VALIDATE(check::validate_allocation(best->allocation.counts(),
                                              request.counts(), remaining));
    VCOPT_VALIDATE(check::validate_reported_distance(
        best->allocation.counts(),
        [&topology](std::size_t a, std::size_t b) {
          return topology.distance(a, b);
        },
        best->central, best->distance));
  }
  return best;
}

}  // namespace vcopt::placement
