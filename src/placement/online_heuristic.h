// Algorithm 1 of the paper: the online greedy VM placement heuristic.
//
// For each candidate central node x:
//   1. take com(L[x], R) from x itself,
//   2. fill the rest from x's rack-mates, visited in descending
//      co-provisionable capacity (the paper's getList(D, x, 0) ordering),
//   3. then from off-rack nodes in the same ordering (getList(D, x, 1)),
// and keep the candidate whose completed allocation has the smallest
// distance.  Theorem 1 (moving one VM from a farther to a nearer node
// shrinks DC) justifies the nearest-first fill.
//
// The pseudocode's outer loop breaks on the first candidate that improves on
// the incumbent; `Mode::kBestOfAllStarts` (default) evaluates every start
// instead, which matches the text's stated intent of picking "the most
// appropriate central node" and is never worse.  kFirstImprovement
// reproduces the literal break-on-improvement behaviour.
//
// Performance (see docs/performance.md): by rack constancy
// (docs/algorithms.md) the node and rack tiers of a fill from x take
// min(R_j, rack free_j) of each type whichever node of x's rack is central,
// so a candidate's score is its coverage A(x) = Σ_j min(R_j, L_xj) plus its
// rack's terms, O(1), and only the winner is filled.  On a bare matrix,
// kBestOfAllStarts makes one pass over the nodes — the whole-node test of
// lines 9-14, the candidates, their coverage and the per-rack free sums —
// then O(racks·m) arithmetic: the scored scan.  On a view that carries a
// Cloud's class index (cluster::CapacityView), with exact scores (integral
// tiers), it reads the same winner from the index instead: the non-empty
// classes and a few of their members, not every row (the class query).
// The winner is the lexicographic minimum of (distance, central index) over
// every candidate's fill, bit for bit, either way; with tiers whose
// products round, the scan fills the candidates within a proven rounding
// slack of the minimum score and compares them.  A fill orders each tier by
// getList's key with a counting sort (comparison sort only for a tier whose
// keys span far more than its size); the class query's fill takes its
// off-rack tiers from the index instead, visiting classes by descending key
// and merging each key's members in node order, the same order without a
// pass over every node.  A per-thread Workspace makes the scan, the query
// and the fill allocation-free in steady state.
#pragma once

#include "placement/policy.h"

namespace vcopt::placement {

class OnlineHeuristic : public PlacementPolicy {
 public:
  enum class Mode { kBestOfAllStarts, kFirstImprovement };

  explicit OnlineHeuristic(Mode mode = Mode::kBestOfAllStarts)
      : mode_(mode) {}

  std::optional<Placement> place(const cluster::Request& request,
                                 const cluster::CapacityView& view,
                                 const cluster::Topology& topology) override;

  std::string name() const override { return "online-heuristic"; }

  /// The greedy fill for one fixed candidate central node; exposed for
  /// tests.  Returns nullopt if the request cannot be completed.
  static std::optional<cluster::Allocation> fill_from_central(
      const cluster::Request& request, const util::IntMatrix& remaining,
      const cluster::Topology& topology, std::size_t central);

  /// The distance fill_from_central(central) reaches, computed from the
  /// central's coverage and its rack's free sums without filling: the score
  /// place() ranks candidates by; exposed for tests.  Equal to the fill's distance when
  /// the request fits the total free capacity, exactly for integral tiers
  /// and up to rounding otherwise.
  static double score_from_central(const cluster::Request& request,
                                   const util::IntMatrix& remaining,
                                   const cluster::Topology& topology,
                                   std::size_t central);

 private:
  Mode mode_;
};

}  // namespace vcopt::placement
