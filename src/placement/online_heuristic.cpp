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

// A getList tier whose keys span more than this many times its size is
// ordered by comparison sort rather than counting sort.
constexpr std::uint64_t kCountingSortSpan = 4;

// The end of a class query list: by coverage, or the fill's by key.
constexpr std::uint32_t kNoClass = std::numeric_limits<std::uint32_t>::max();

// The terms of a candidate's score that depend only on its rack r (rack
// constancy, docs/algorithms.md).  With R the request, RF_r the rack's and
// CF the cloud's free sums: the node and rack tiers together take
// covered = Σ_j min(R_j, RF_rj) whichever of the rack's nodes is central,
// the rest of the cloud in_cloud = Σ_j min(R_j − min(R_j, RF_rj),
// CF_j − RF_rj), and the other clouds the rest.
struct RackTerms {
  std::int64_t covered = 0;
  std::int64_t in_cloud = 0;
  std::int64_t beyond = 0;
};

// One list of the indexed fill's merge: the next node it gives, the free
// row that node holds, and the list entry (a class, or an overlay row).
struct Cursor {
  std::size_t node = 0;
  const int* row = nullptr;
  std::uint32_t entry = 0;
};

// Per-thread scratch for Algorithm 1.  All buffers are sized once per
// (n, m) shape and reused across place() calls, so the scan and the fill
// perform no heap allocation in steady state.  `taken` holds the last
// filled candidate's allocation entries.
struct Workspace {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<int> need;            // outstanding per-type demand
  std::vector<int> lx;              // central node's free-capacity row L[x]
  std::vector<std::int32_t> key;    // per-node com(L[x], L[i]) overlap sums;
                                    // the class query's class coverages
  std::vector<std::size_t> tier;    // one tier's nodes, ascending
  std::vector<std::size_t> far;     // off-rack, other-cloud nodes, ascending
  std::vector<std::size_t> sorted;  // a tier in getList order
  std::vector<std::uint32_t> bucket;  // counting-sort bucket offsets; the
                                      // class query's list heads by coverage
  std::vector<std::uint32_t> next_class;  // the class query's list links
  std::vector<std::uint32_t> fill_head;   // the indexed fill's list heads by
                                          // key com(L[x], v)
  std::vector<std::uint32_t> fill_next;   // its links: classes, then overlay
                                          // rows
  std::vector<Cursor> cursors;      // one key's lists, merged by node
  std::vector<Entry> taken;         // current candidate's (node, type, count)
  std::vector<int> rack_free;       // per-rack free sums, racks x m
  std::vector<int> cloud_free;      // per-cloud free sums, clouds x m
  std::vector<RackTerms> terms;     // per-rack score terms
  std::vector<std::size_t> candidates;  // nodes with a positive row sum
  std::vector<int> cover;           // A(x) = Σ_j min(R_j, L_xj) per candidate
  std::vector<double> score;        // score per candidate central

  void prepare(std::size_t n_, std::size_t m_) {
    if (n == n_ && m == m_) return;
    n = n_;
    m = m_;
    need.assign(m, 0);
    lx.assign(m, 0);
    key.assign(n, 0);
    tier.reserve(n);
    far.reserve(n);
    sorted.reserve(n);
    candidates.reserve(n);
    cover.reserve(n);
  }
};

Workspace& local_workspace() {
  thread_local Workspace ws;
  return ws;
}

// Puts one tier, given in ascending index order with its keys in ws.key
// spanning [lo, hi], into getList order: key descending, ties by ascending
// index.  A stable counting sort by descending key gives exactly that order
// in O(t + hi − lo); a tier whose keys span much more than its size falls
// back to std::sort with the same comparator.
const std::vector<std::size_t>& get_list(std::vector<std::size_t>& nodes,
                                         std::int32_t lo, std::int32_t hi,
                                         Workspace& ws) {
  const std::size_t t = nodes.size();
  const auto span = static_cast<std::uint64_t>(std::int64_t{hi} - lo);
  if (span > kCountingSortSpan * t) {
    std::sort(nodes.begin(), nodes.end(), [&](std::size_t a, std::size_t b) {
      if (ws.key[a] != ws.key[b]) return ws.key[a] > ws.key[b];
      return a < b;
    });
    return nodes;
  }
  ws.bucket.assign(span + 2, 0);
  for (const std::size_t i : nodes) ++ws.bucket[hi - ws.key[i] + 1];
  for (std::size_t b = 1; b < ws.bucket.size(); ++b) {
    ws.bucket[b] += ws.bucket[b - 1];
  }
  ws.sorted.resize(t);
  for (const std::size_t i : nodes) ws.sorted[ws.bucket[hi - ws.key[i]]++] = i;
  return ws.sorted;
}

// The off-rack tiers of a fill from the class index: the same-cloud tier,
// then, on a topology of several clouds, the rest, each in getList order
// (docs/algorithms.md, "The class query").  A node's key com(L[x], L[i])
// and what it gives the fill depend only on its free row, so a tier's
// getList order — key descending, ties by ascending index — is the
// classes by descending key, each key's members merged in ascending node
// order.  Nodes of `rack` (the central's, filled already) are skipped, and
// so are nodes that can take nothing when the step starts, with no type j
// where need_j > 0 and the node has a free slot: need only falls, so they
// take nothing later either.  Class 0 is always such a class.  Overlay
// rows are read from the matrix and merged in by the key of their current
// row; class walks skip them.  `take(node, row)` returns true once the
// request is complete.
template <typename Take>
void fill_off_rack_from_classes(const cluster::FreeIndex& index,
                                const std::vector<std::uint32_t>& overlay,
                                const util::IntMatrix& remaining,
                                const cluster::Topology& topology,
                                std::size_t rack, Workspace& ws, Take&& take) {
  const std::size_t n = ws.n;
  const std::size_t m = ws.m;
  const int* rows = remaining.data().data();
  const std::size_t* node_rack = topology.node_racks().data();
  const std::vector<std::uint32_t>& classes = index.nonempty();
  const auto useful = [&](const int* row) {
    for (std::size_t j = 0; j < m; ++j) {
      if (ws.need[j] > 0 && row[j] > 0) return true;
    }
    return false;
  };
  const auto key_of = [&](const int* row) {
    std::size_t k = 0;
    for (std::size_t j = 0; j < m; ++j) {
      k += static_cast<std::size_t>(std::min(ws.lx[j], row[j]));
    }
    return k;
  };

  // Lists by key, as class_query buckets by coverage: entries below
  // classes.size() are classes, the rest overlay rows.
  std::size_t hi = 0;
  for (std::size_t j = 0; j < m; ++j) hi += static_cast<std::size_t>(ws.lx[j]);
  ws.fill_head.assign(hi + 1, kNoClass);
  ws.fill_next.resize(classes.size() + overlay.size());
  const auto push = [&](std::size_t entry, const int* row) {
    const std::size_t k = key_of(row);
    ws.fill_next[entry] = ws.fill_head[k];
    ws.fill_head[k] = static_cast<std::uint32_t>(entry);
  };
  for (std::size_t e = 0; e < classes.size(); ++e) {
    const int* row = index.class_free(classes[e]);
    if (classes[e] != 0 && useful(row)) push(e, row);
  }
  for (std::size_t p = 0; p < overlay.size(); ++p) {
    const std::size_t x = overlay[p];
    const int* row = rows + x * m;
    if (node_rack[x] != rack && useful(row)) push(classes.size() + p, row);
  }

  // The same-cloud tier (`near`) or the other clouds' nodes.
  const std::size_t cloud = topology.cloud_of_rack(rack);
  const auto in_tier = [&](std::size_t x, bool near) {
    const std::size_t r = node_rack[x];
    return r != rack && (topology.cloud_of_rack(r) == cloud) == near;
  };
  // The next member of class c at or above `from` in the tier and outside
  // the overlay, or n.
  const auto next_in_tier = [&](std::uint32_t c, std::size_t from, bool near) {
    std::size_t x = index.next_member(c, from);
    while (x < n && (!in_tier(x, near) ||
                     std::binary_search(overlay.begin(), overlay.end(), x))) {
      x = index.next_member(c, x + 1);
    }
    return x;
  };
  // Walks one tier; true once the request is complete.
  const auto walk_tier = [&](bool near) {
    for (std::size_t k = hi + 1; k-- > 0;) {
      ws.cursors.clear();
      for (std::uint32_t e = ws.fill_head[k]; e != kNoClass;
           e = ws.fill_next[e]) {
        if (e < classes.size()) {
          const std::size_t x = next_in_tier(classes[e], 0, near);
          if (x < n) ws.cursors.push_back({x, index.class_free(classes[e]), e});
        } else if (const std::size_t x = overlay[e - classes.size()];
                   in_tier(x, near)) {
          ws.cursors.push_back({x, rows + x * m, e});
        }
      }
      // Lowest node first; a list whose row can take nothing more leaves.
      while (!ws.cursors.empty()) {
        std::size_t low = 0;
        for (std::size_t q = 1; q < ws.cursors.size(); ++q) {
          if (ws.cursors[q].node < ws.cursors[low].node) low = q;
        }
        Cursor& cur = ws.cursors[low];
        if (useful(cur.row)) {
          if (take(cur.node, cur.row)) return true;
          cur.node = cur.entry < classes.size()
                         ? next_in_tier(classes[cur.entry], cur.node + 1, near)
                         : n;
          if (cur.node < n) continue;
        }
        cur = ws.cursors.back();
        ws.cursors.pop_back();
      }
    }
    return false;
  };
  if (!walk_tier(true) && topology.cloud_count() > 1) walk_tier(false);
}

// The greedy fill of Algorithm 1 for one fixed central node, evaluated into
// ws.taken, sorted by (node, type) on success.  Visits the central node,
// then rack-mates in descending com(L[x], L[i]) overlap (the paper's
// getList ordering), then off-rack nodes nearest-tier-first (same cloud,
// then other clouds) with the same overlap ordering inside each tier.  The
// off-rack tiers come from a pass over every node, or, given the class
// index that `remaining` outside `overlay` matches, from its classes.
//
// On success, `final_distance` receives the exact distance from `central`,
// summed in ascending node order — the same FP evaluation order as
// Allocation::distance_from, so reported distances are bit-identical to an
// independent recomputation.
bool fill_candidate(const cluster::Request& request,
                    const util::IntMatrix& remaining,
                    const cluster::Topology& topology, std::size_t central,
                    Workspace& ws, double& final_distance,
                    const cluster::FreeIndex* index = nullptr,
                    const std::vector<std::uint32_t>* overlay = nullptr) {
  ws.taken.clear();

  const std::vector<int>& req = request.counts();
  ws.need.assign(req.begin(), req.end());
  int outstanding = 0;
  for (int v : ws.need) outstanding += v;
  const int* rows = remaining.data().data();

  // Takes min(row, need) of each type from `node`, whose free row is `row`.
  // True once the request is complete.
  auto take = [&](std::size_t node, const int* row) {
    for (std::size_t j = 0; j < ws.m; ++j) {
      const int t = std::min(ws.need[j], row[j]);
      if (t > 0) {
        ws.taken.push_back({static_cast<std::uint32_t>(node),
                            static_cast<std::uint32_t>(j), t});
        ws.need[j] -= t;
        outstanding -= t;
      }
    }
    return outstanding == 0;
  };

  // Keys one tier, key[i] = sum_j com(L[x], L[i]), puts it in getList
  // order and visits it until the request completes.
  auto fill_tier = [&](std::vector<std::size_t>& nodes) {
    if (nodes.empty()) return;
    std::int32_t lo = std::numeric_limits<std::int32_t>::max();
    std::int32_t hi = std::numeric_limits<std::int32_t>::min();
    for (std::size_t i : nodes) {
      std::int32_t k = 0;
      for (std::size_t j = 0; j < ws.m; ++j) {
        k += std::min(ws.lx[j], remaining(i, j));
      }
      ws.key[i] = k;
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
    for (std::size_t i : get_list(nodes, lo, hi, ws)) {
      if (take(i, rows + i * ws.m)) return;
    }
  };

  const std::size_t rack = topology.rack_of(central);

  // Step 1: the central node itself (com(L[x], R)).
  take(central, rows + central * ws.m);
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
  // ordered) when the rack could not complete the request.  From the
  // index, a walk of its classes; otherwise one pass splits the two tiers.
  if (outstanding > 0 && index != nullptr) {
    fill_off_rack_from_classes(*index, *overlay, remaining, topology, rack, ws,
                               take);
  } else if (outstanding > 0) {
    const std::size_t cloud = topology.cloud_of_rack(rack);
    const std::vector<std::size_t>& node_rack = topology.node_racks();
    ws.tier.clear();
    ws.far.clear();
    for (std::size_t i = 0; i < ws.n; ++i) {
      const std::size_t r = node_rack[i];
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

// Lines 9-14's one-node allocation on `node`.  Its DC is Definition 1 of a
// one-node allocation, ΣR · same_node, in the bits
// Allocation::best_central computes.
Placement whole_node_placement(const cluster::Request& request,
                               const cluster::Topology& topology,
                               std::size_t node, std::size_t m) {
  std::vector<Entry> on_node;
  for (std::size_t j = 0; j < m; ++j) {
    if (request.count(j) > 0) {
      on_node.push_back({static_cast<std::uint32_t>(node),
                         static_cast<std::uint32_t>(j), request.count(j)});
    }
  }
  return Placement{cluster::Allocation::from_entries(topology.node_count(), m,
                                                     std::move(on_node)),
                   node,
                   static_cast<double>(request.total_vms()) *
                       topology.distance(node, node)};
}

// One pass over the rows of `remaining`.  Returns the first node that can
// host the whole request (lines 9-14; tested on raw cells, so a negative
// cell is no fit even where the request asks for none of that type), or n
// if none can.  Otherwise leaves in ws the candidates — nodes whose row sum
// is positive — in ascending order with their coverage
// A(x) = Σ_j min(R_j, max(L_xj, 0)), and the per-rack free sums, where a
// negative cell, which no fill takes from, counts as 0.
std::size_t scan_nodes(const cluster::Request& request,
                       const util::IntMatrix& remaining,
                       const cluster::Topology& topology, Workspace& ws) {
  const std::size_t m = ws.m;
  const int* req = request.counts().data();
  const int* row = remaining.data().data();
  const std::size_t* node_rack = topology.node_racks().data();
  ws.rack_free.assign(topology.rack_count() * m, 0);
  ws.candidates.clear();
  ws.cover.clear();
  for (std::size_t i = 0; i < ws.n; ++i, row += m) {
    int* rack_row = ws.rack_free.data() + node_rack[i] * m;
    bool whole = true;
    int sum = 0;
    int cover = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const int v = row[j];
      const int free = std::max(v, 0);
      whole &= v >= req[j];
      sum += v;
      cover += std::min(req[j], free);
      rack_row[j] += free;
    }
    if (whole) return i;
    if (sum > 0) {
      ws.candidates.push_back(i);
      ws.cover.push_back(cover);
    }
  }
  return ws.n;
}

// The score terms of a rack whose free sums are `rack_row`, in a cloud whose
// free sums are `cloud_row`: O(m).  The fill from a central x of the rack
// takes a_j = min(R_j, L_xj) of type j on the node and
// b_j = min(R_j − a_j, RF_j − L_xj) in the rack; since 0 <= L_xj <= RF_j,
// a_j + b_j = min(R_j, RF_j), so the two tiers depend on x only through
// A(x) = Σ_j a_j.
RackTerms rack_terms(const int* req, const int* rack_row, const int* cloud_row,
                     std::size_t m) {
  RackTerms t;
  for (std::size_t j = 0; j < m; ++j) {
    const int covered = std::min(req[j], rack_row[j]);
    const int in_cloud = std::min(req[j] - covered, cloud_row[j] - rack_row[j]);
    t.covered += covered;
    t.in_cloud += in_cloud;
    t.beyond += req[j] - covered - in_cloud;
  }
  return t;
}

// Fills ws.cloud_free and ws.terms from the per-rack free sums in
// ws.rack_free: O(R·m).
void compute_rack_terms(const cluster::Request& request,
                        const cluster::Topology& topology, Workspace& ws) {
  const std::size_t m = ws.m;
  const std::size_t racks = topology.rack_count();
  ws.cloud_free.assign(topology.cloud_count() * m, 0);
  for (std::size_t r = 0; r < racks; ++r) {
    int* cloud_row = ws.cloud_free.data() + topology.cloud_of_rack(r) * m;
    for (std::size_t j = 0; j < m; ++j) cloud_row[j] += ws.rack_free[r * m + j];
  }
  ws.terms.resize(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    ws.terms[r] = rack_terms(request.counts().data(),
                             ws.rack_free.data() + r * m,
                             ws.cloud_free.data() + topology.cloud_of_rack(r) * m,
                             m);
  }
}

// The distance the fill from a central with coverage `cover` in a rack
// with terms `t` reaches: A(x) VMs on the node, covered − A(x) in the rack,
// then the cloud and beyond.  O(1).
double rack_score(const cluster::DistanceConfig& tiers, std::int64_t cover,
                  const RackTerms& t) {
  return tiers.same_node * static_cast<double>(cover) +
         tiers.same_rack * static_cast<double>(t.covered - cover) +
         tiers.cross_rack * static_cast<double>(t.in_cloud) +
         tiers.cross_cloud * static_cast<double>(t.beyond);
}

// True when every score and fill distance is an exact integer in double:
// integral tiers and request·(largest tier) <= 2^53, so every product and
// partial sum of both evaluations is exact, and a candidate's score is its
// fill's distance bit for bit.
bool exact_scores(const cluster::Request& request,
                  const cluster::DistanceConfig& tiers) {
  bool exact =
      static_cast<double>(request.total_vms()) * tiers.cross_cloud <= 0x1p53;
  for (double t : {tiers.same_node, tiers.same_rack, tiers.cross_rack,
                   tiers.cross_cloud}) {
    exact = exact && t == std::trunc(t);
  }
  return exact;
}

// How far above the minimum score a candidate may score and still fill to
// the winning distance.  The fill sums at most n nonnegative products in
// node order and the score four, so each lies within a relative
// gamma_n = n·u/(1 - n·u), resp. gamma_4, of the exact distance (u = ε/2).
// A candidate scoring above (1 + 2(n + 4)ε)·min therefore fills strictly
// above the minimum's fill and cannot win.  With exact scores the slack
// is 0.
double rounding_slack(const cluster::Request& request,
                      const cluster::DistanceConfig& tiers, std::size_t n,
                      double min_score) {
  if (exact_scores(request, tiers)) return 0;
  return 2.0 * static_cast<double>(n + 4) *
         std::numeric_limits<double>::epsilon() * min_score;
}

// What one place() call adds to the placement counters.
struct PlaceCounts {
  std::size_t candidates = 0;  // nodes with free capacity (candidate centrals)
  std::size_t pruned = 0;      // candidates not filled
  std::size_t walked = 0;      // nodes the class query scored
};

// One flush per place() call; the scan itself stays atomics-free.
void record_place_metrics(const PlaceCounts& counts, bool found) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  static obs::Counter& placements = reg.counter("placement/placements");
  static obs::Counter& infeasible = reg.counter("placement/infeasible");
  static obs::Counter& evaluated = reg.counter("placement/candidates_evaluated");
  static obs::Counter& abandoned = reg.counter("placement/candidates_pruned");
  static obs::Counter& walked = reg.counter("placement/index_nodes_walked");
  evaluated.add(counts.candidates);
  abandoned.add(counts.pruned);
  walked.add(counts.walked);
  (found ? placements : infeasible).add();
}

// kBestOfAllStarts over every row of `remaining` once past the precheck:
// the scored scan.  It is the path for bare matrices and fractional tiers,
// and the reference the class query is checked against.
std::optional<Placement> scored_scan(const cluster::Request& request,
                                     const util::IntMatrix& remaining,
                                     const cluster::Topology& topology,
                                     Workspace& ws, PlaceCounts& counts) {
  const std::size_t n = ws.n;
  const std::size_t m = ws.m;
  // Lines 9-14 and the candidate scan, in one pass: a node that can host
  // everything is taken at once.
  if (const std::size_t whole = scan_nodes(request, remaining, topology, ws);
      whole < n) {
    counts.candidates = 1;
    return whole_node_placement(request, topology, whole, m);
  }
  // Past the admission precheck every fill completes (it visits every
  // node), and its distance is the candidate's score, from its coverage and
  // its rack's terms, so score them all, then fill in index order only
  // those within rounding slack of the minimum — the first minimum alone
  // when scores are exact.
  const std::vector<std::size_t>& candidates = ws.candidates;
  compute_rack_terms(request, topology, ws);
  const cluster::DistanceConfig& tiers = topology.distances();
  const std::size_t* node_rack = topology.node_racks().data();
  ws.score.resize(candidates.size());
  double min_score = kInf;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    ws.score[idx] = rack_score(tiers, ws.cover[idx],
                               ws.terms[node_rack[candidates[idx]]]);
    min_score = std::min(min_score, ws.score[idx]);
  }
  const double slack = rounding_slack(request, tiers, n, min_score);
  std::optional<Placement> best;
  std::size_t filled = 0;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    if (ws.score[idx] > min_score + slack) continue;
    const std::size_t x = candidates[idx];
    double d = 0;
    fill_candidate(request, remaining, topology, x, ws, d);
    ++filled;
    if (!best || d < best->distance) {
      best = Placement{cluster::Allocation::from_entries(n, m, ws.taken), x, d};
    }
    if (slack == 0) break;
  }
  counts.candidates = candidates.size();
  counts.pruned = candidates.size() - filled;
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
  return best;
}

// The scored scan's answer from the cloud's free-vector class index, for
// exact scores (docs/algorithms.md, "The class query").  Rows outside the
// overlay are their class's free row; overlay rows are read from the
// matrix.  With K_r the score of coverage 0 in rack r and
// Δ = same_rack − same_node > 0, a central x of rack r with coverage A
// scores K_r − Δ·A exactly, so a class of coverage A scores at least
// K_min − Δ·A, and its first member in a rack at K_min scores that.
std::optional<Placement> class_query(const cluster::Request& request,
                                     const cluster::CapacityView& view,
                                     const cluster::Topology& topology,
                                     Workspace& ws, PlaceCounts& counts) {
  const cluster::FreeIndex& index = *view.index();
  const util::IntMatrix& remaining = view.matrix();
  const std::size_t n = ws.n;
  const std::size_t m = ws.m;
  const int* req = request.counts().data();
  const int total = request.total_vms();
  const int* rows = remaining.data().data();
  const std::size_t* node_rack = topology.node_racks().data();
  static const std::vector<std::uint32_t> kNone;
  const std::vector<std::uint32_t>& overlay =
      view.overlay() != nullptr ? view.overlay()->nodes() : kNone;
  const auto in_overlay = [&](std::size_t x) {
    return std::binary_search(overlay.begin(), overlay.end(), x);
  };
  const auto coverage = [&](const int* row) {
    int a = 0;
    for (std::size_t j = 0; j < m; ++j) a += std::min(req[j], row[j]);
    return a;
  };
  const auto whole_node = [&](std::size_t x) {
    counts.candidates = 1;
    return whole_node_placement(request, topology, x, m);
  };

  // Lines 9-14.  Every row fits the all-zero request, so the scan takes
  // node 0.  Otherwise a row fits iff its coverage is ΣR: the scan's first
  // fit is the lowest first non-overlay member of a class of coverage ΣR,
  // or overlay row of coverage ΣR.  The same pass keeps each class's
  // coverage for the walk.
  if (total == 0) return whole_node(0);
  const std::vector<std::uint32_t>& classes = index.nonempty();
  std::size_t whole = n;
  int hi = 0;
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const std::uint32_t c = classes[k];
    const int a = coverage(index.class_free(c));
    ws.key[k] = a;
    hi = std::max(hi, a);
    if (a < total) continue;
    for (std::size_t x = index.next_member(c, 0); x < whole;
         x = index.next_member(c, x + 1)) {
      if (!in_overlay(x)) {
        whole = x;
        break;
      }
    }
  }
  for (const std::uint32_t x : overlay) {
    if (x >= whole) break;
    if (coverage(rows + static_cast<std::size_t>(x) * m) == total) whole = x;
  }
  if (whole < n) return whole_node(whole);
  ws.bucket.assign(static_cast<std::size_t>(hi) + 1, kNoClass);
  ws.next_class.resize(classes.size());
  for (std::size_t k = 0; k < classes.size(); ++k) {
    if (classes[k] == 0) continue;
    const auto a = static_cast<std::size_t>(ws.key[k]);
    ws.next_class[k] = ws.bucket[a];
    ws.bucket[a] = static_cast<std::uint32_t>(k);
  }

  // The index's rack and cloud sums, plus each overlay row's change, and
  // the candidate count the scan reports (rows with free capacity).
  const int* rack_free = index.rack_sums().data();
  const int* cloud_free = index.cloud_sums().data();
  std::size_t candidates = n - index.member_count(0);
  if (!overlay.empty()) {
    ws.rack_free.assign(index.rack_sums().begin(), index.rack_sums().end());
    ws.cloud_free.assign(index.cloud_sums().begin(), index.cloud_sums().end());
    for (const std::uint32_t x : overlay) {
      const int* now = rows + static_cast<std::size_t>(x) * m;
      const std::uint32_t was_class = index.class_of(x);
      const int* was = index.class_free(was_class);
      const std::size_t r = node_rack[x];
      int* rack_row = ws.rack_free.data() + r * m;
      int* cloud_row = ws.cloud_free.data() + topology.cloud_of_rack(r) * m;
      int sum = 0;
      for (std::size_t j = 0; j < m; ++j) {
        rack_row[j] += now[j] - was[j];
        cloud_row[j] += now[j] - was[j];
        sum += now[j];
      }
      candidates += static_cast<std::size_t>(sum > 0);
      candidates -= static_cast<std::size_t>(was_class != 0);
    }
    rack_free = ws.rack_free.data();
    cloud_free = ws.cloud_free.data();
  }
  counts.candidates = candidates;
  const auto terms_of = [&](std::size_t rack) {
    return rack_terms(req, rack_free + rack * m,
                      cloud_free + topology.cloud_of_rack(rack) * m, m);
  };

  // K_min over every rack.  A rack without free capacity takes nothing
  // itself, so its K is at least that of a rack of its cloud that has some,
  // or is ΣR·cross_cloud, which no rack exceeds: the minimum is a
  // candidate's rack's whenever there is a candidate.
  const cluster::DistanceConfig& tiers = topology.distances();
  const double delta = tiers.same_rack - tiers.same_node;
  double k_min = kInf;
  for (std::size_t r = 0; r < topology.rack_count(); ++r) {
    k_min = std::min(k_min, rack_score(tiers, 0, terms_of(r)));
  }

  // The lexicographic minimum of (score, node), as the scan's first
  // minimum.  Overlay rows first, scored from the matrix; `consider`
  // returns whether x's rack is at K_min.
  double best_score = kInf;
  std::size_t best_x = n;
  const auto consider = [&](std::size_t x, int cover) {
    ++counts.walked;
    const RackTerms t = terms_of(node_rack[x]);
    const double score = rack_score(tiers, cover, t);
    if (score < best_score || (score == best_score && x < best_x)) {
      best_score = score;
      best_x = x;
    }
    return rack_score(tiers, 0, t) == k_min;
  };
  for (const std::uint32_t x : overlay) {
    const int* now = rows + static_cast<std::size_t>(x) * m;
    int sum = 0;
    for (std::size_t j = 0; j < m; ++j) sum += now[j];
    if (sum > 0) consider(x, coverage(now));
  }

  // The members of the non-zero classes, by descending coverage: each
  // class's members ascending, stopping the class at its first member in a
  // rack at K_min, and stopping the walk once a class's bound K_min − Δ·A
  // exceeds the best score.  At equality a lower index may still tie, so
  // the walk goes on.
  for (int a = hi; a >= 0; --a) {
    if (ws.bucket[static_cast<std::size_t>(a)] == kNoClass) continue;
    if (k_min - delta * a > best_score) break;
    for (std::uint32_t k = ws.bucket[static_cast<std::size_t>(a)];
         k != kNoClass; k = ws.next_class[k]) {
      const std::uint32_t c = classes[k];
      for (std::size_t x = index.next_member(c, 0); x < n;
           x = index.next_member(c, x + 1)) {
        if (in_overlay(x)) continue;
        if (consider(x, a)) break;
      }
    }
  }

  if (best_x == n) return std::nullopt;
  double d = 0;
  fill_candidate(request, remaining, topology, best_x, ws, d, &index,
                 &overlay);
  VCOPT_INVARIANT(d == best_score)
      << " class query scored central " << best_x << " at " << best_score
      << " but it filled to " << d;
  counts.pruned = candidates - 1;
  return Placement{cluster::Allocation::from_entries(n, m, ws.taken), best_x,
                   d};
}

#if VCOPT_ENABLE_CHECKS
// Same answer, bit for bit: the whole-node node, or the central, the
// distance and the entries.
bool same_placement(const std::optional<Placement>& a,
                    const std::optional<Placement>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->central == b->central && a->distance == b->distance &&
                a->allocation == b->allocation);
}
#endif

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
  const std::size_t m = remaining.cols();
  Workspace ws;
  ws.prepare(remaining.rows(), m);
  ws.rack_free.assign(topology.rack_count() * m, 0);
  for (std::size_t i = 0; i < ws.n; ++i) {
    int* rack_row = ws.rack_free.data() + topology.rack_of(i) * m;
    for (std::size_t j = 0; j < m; ++j) {
      rack_row[j] += std::max(remaining(i, j), 0);
    }
  }
  compute_rack_terms(request, topology, ws);
  std::int64_t cover = 0;
  for (std::size_t j = 0; j < m; ++j) {
    cover += std::min(request.count(j), std::max(remaining(central, j), 0));
  }
  return rack_score(topology.distances(), cover,
                    ws.terms[topology.rack_of(central)]);
}

std::optional<Placement> OnlineHeuristic::place(
    const cluster::Request& request, const cluster::CapacityView& view,
    const cluster::Topology& topology) {
  VCOPT_TRACE_SPAN("placement/online_place");
  const util::IntMatrix& remaining = view.matrix();
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  // Shape check hoisted out of the per-candidate fill: validate once per
  // request instead of once per candidate central node.
  if (topology.node_count() != n || request.type_count() != m) {
    throw std::invalid_argument("OnlineHeuristic::place: shape mismatch");
  }

  // Admission precheck (lines 1-5 of Algorithm 1): total availability, in
  // O(m) from the view's warm column sums.  A spilled cell member fails it
  // against the whole flat view; keep this rejection ahead of the pass.
  for (std::size_t j = 0; j < m; ++j) {
    if (request.count(j) > remaining.col_sum(j)) {
      record_place_metrics({}, false);
      return std::nullopt;
    }
  }

  Workspace& ws = local_workspace();
  ws.prepare(n, m);
  PlaceCounts counts;
  std::optional<Placement> best;
  if (mode_ == Mode::kFirstImprovement) {
    // Literal pseudocode behaviour: the first node that hosts everything,
    // else stop at the first candidate that completes (the first feasible
    // fill trivially improves on "nothing").
    if (const std::size_t whole = scan_nodes(request, remaining, topology, ws);
        whole < n) {
      record_place_metrics({1, 0, 0}, true);
      return whole_node_placement(request, topology, whole, m);
    }
    for (std::size_t x : ws.candidates) {
      ++counts.candidates;
      double d = 0;
      if (fill_candidate(request, remaining, topology, x, ws, d)) {
        best = Placement{cluster::Allocation::from_entries(n, m, ws.taken), x,
                         d};
        break;
      }
    }
  } else if (const cluster::FreeIndex* index = view.index();
             index != nullptr && index->has_classes() &&
             exact_scores(request, topology.distances())) {
    // kBestOfAllStarts, the winner of the scored scan below read from the
    // class index.
    VCOPT_DCHECK(index->node_count() == n && index->type_count() == m)
        << " class index shape differs from the view's";
    best = class_query(request, view, topology, ws, counts);
#if VCOPT_ENABLE_CHECKS
    PlaceCounts scan_counts;
    const std::optional<Placement> ref =
        scored_scan(request, remaining, topology, ws, scan_counts);
    VCOPT_INVARIANT(same_placement(best, ref) &&
                    counts.candidates == scan_counts.candidates &&
                    counts.pruned == scan_counts.pruned)
        << " class query disagrees with the scored scan: central "
        << (best ? best->central : n) << " against "
        << (ref ? ref->central : n);
#endif
  } else {
    best = scored_scan(request, remaining, topology, ws, counts);
  }
  record_place_metrics(counts, best.has_value());

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
