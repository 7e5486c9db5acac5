#include "placement/global_subopt.h"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/check.h"
#include "check/validators.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vcopt::placement {

namespace {
constexpr double kEps = 1e-9;

#if VCOPT_ENABLE_CHECKS
// The pair's per-node, per-type totals, which a transfer conserves.  Checked
// builds only: the invariant compares dense matrices.
util::IntMatrix pair_totals(const Placement& a, const Placement& b) {
  return a.allocation.to_matrix() +  // NOLINT(vcopt-dense-allocation)
         b.allocation.to_matrix();   // NOLINT(vcopt-dense-allocation)
}
#endif

// Per-swap distance improvement distribution (seconds of DC, really metres
// of the paper's distance metric) plus attempt/apply counters.
void record_transfer_metrics(std::size_t attempts, std::size_t applied,
                             double total_gain) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  static obs::Counter& attempted = reg.counter("placement/transfers_attempted");
  static obs::Counter& swaps = reg.counter("placement/transfers_applied");
  static obs::HistogramMetric& gain = reg.histogram(
      "placement/transfer_gain",
      obs::MetricsRegistry::exponential_buckets(0.25, 2.0, 12));
  attempted.add(attempts);
  swaps.add(applied);
  if (applied > 0) gain.observe(total_gain);
}

// One directional scan: move a VM that `a` parked on b's central node to a
// node where `b` holds a VM of the same type, and vice versa, whenever the
// triangle condition of Theorem 2 says the summed distance drops.
std::size_t transfer_directed(Placement& a, Placement& b,
                              const cluster::Topology& topology,
                              double& gain_sum) {
  const std::size_t x = a.central;
  const std::size_t y = b.central;
  if (x == y) return 0;
  // Const views for all reads: the non-const at() is a write proxy.
  const cluster::Allocation& ca = a.allocation;
  const cluster::Allocation& cb = b.allocation;
  const std::size_t n = ca.node_count();
  const std::size_t m = ca.type_count();
  // D(x, y) is invariant across the whole scan — hoisted out of the loops.
  const double dxy = topology.distance(x, y);
  std::size_t swaps = 0;
  for (std::size_t r = 0; r < m; ++r) {
    if (ca.at(y, r) == 0) continue;  // a parked nothing of type r on y
    // Skip type rows where b holds no VM outside y: the inner scan could
    // never find a swap partner.
    if (cb.vms_of_type(r) - cb.at(y, r) == 0) continue;
    while (ca.at(y, r) > 0) {
      // Find b's VM of type r on the node q (!= y) farthest from y: that is
      // the swap with the largest gain D(x,y) + D(y,q) - D(x,q).  b's
      // entries of type r are its nodes holding one, ascending, as the
      // dense scan over all n nodes visited them.
      std::size_t best_q = n;
      double best_gain = kEps;
      for (const cluster::Allocation::Entry& e : cb.entries()) {
        const std::size_t q = e.node;
        if (e.type != r || q == y) continue;
        const double gain =
            dxy + topology.distance(y, q) - topology.distance(x, q);
        if (gain > best_gain) {
          best_gain = gain;
          best_q = q;
        }
      }
      if (best_q == n) break;
      // Swap the two VMs (conserves per-node/type totals across a+b).
      a.allocation.add(y, r, -1);
      a.allocation.add(best_q, r, 1);
      b.allocation.add(best_q, r, -1);
      b.allocation.add(y, r, 1);
      a.distance += topology.distance(x, best_q) - dxy;
      b.distance += topology.distance(y, y) - topology.distance(y, best_q);
      gain_sum += best_gain;
      ++swaps;
    }
  }
  return swaps;
}

}  // namespace

std::size_t GlobalSubOpt::transfer(Placement& a, Placement& b,
                                   const cluster::Topology& topology) {
#if VCOPT_ENABLE_CHECKS
  // Theorem 2 promises every swap strictly reduces the summed distance and
  // conserves per-node/per-type totals across the pair; capture the state
  // the promise is checked against.
  const double distance_before = a.distance + b.distance;
  const util::IntMatrix combined_before = pair_totals(a, b);
#endif
  double gain_sum = 0;
  std::size_t swaps = transfer_directed(a, b, topology, gain_sum);
  swaps += transfer_directed(b, a, topology, gain_sum);
  record_transfer_metrics(1, swaps, gain_sum);
  if (swaps > 0) {
    // Allocations changed; the optimal central may have moved.
    const cluster::CentralNode ca = a.allocation.best_central(topology);
    a.central = ca.node;
    a.distance = ca.distance;
    const cluster::CentralNode cb = b.allocation.best_central(topology);
    b.central = cb.node;
    b.distance = cb.distance;
  }
#if VCOPT_ENABLE_CHECKS
  VCOPT_INVARIANT(gain_sum >= 0)
      << " Theorem-2 transfer applied a negative total gain " << gain_sum;
  VCOPT_INVARIANT(a.distance + b.distance <= distance_before + 1e-6)
      << " Theorem-2 transfer increased the summed distance: "
      << distance_before << " -> " << a.distance + b.distance;
  VCOPT_INVARIANT(pair_totals(a, b) == combined_before)
      << " Theorem-2 transfer did not conserve per-node/per-type totals:\n"
      << "before:\n" << combined_before << "\nafter:\n"
      << pair_totals(a, b);
  const auto dist = [&topology](std::size_t p, std::size_t q) {
    return topology.distance(p, q);
  };
  // The validators take the dense matrix.
  VCOPT_VALIDATE(check::validate_reported_distance(
      a.allocation.to_matrix(),  // NOLINT(vcopt-dense-allocation)
      dist, a.central, a.distance));
  VCOPT_VALIDATE(check::validate_reported_distance(
      b.allocation.to_matrix(),  // NOLINT(vcopt-dense-allocation)
      dist, b.central, b.distance));
#endif
  return swaps;
}

BatchPlacement GlobalSubOpt::place_batch(
    const std::vector<cluster::Request>& batch, const util::IntMatrix& remaining,
    const cluster::Topology& topology) {
  VCOPT_TRACE_SPAN("placement/batch_place");
  BatchPlacement out;
  util::IntMatrix avail = remaining;
  OnlineHeuristic online;

  // Steps 1+2: FIFO admission + per-request online placement, debiting
  // capacity after each grant.
  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    auto placed = online.place(batch[idx], avail, topology);
    if (!placed) continue;  // not enough capacity left: stays queued
    // O(k) debit through add_at with const read-backs, so avail's sum
    // cache stays warm for the next place().
    if (!placed->allocation.debit_from(avail)) {
      throw std::logic_error("GlobalSubOpt: policy oversubscribed capacity");
    }
    out.placements.push_back(std::move(*placed));
    out.admitted.push_back(idx);
  }

  // Step 3: pairwise Theorem-2 adjustment until a full pass applies no swap.
  //
  // Dirty-pair worklist: transfer() is a pure function of the two
  // placements, so a pair whose members are both unchanged since its last
  // scan would apply zero swaps again — skip it.  Each placement carries a
  // version bumped whenever a transfer mutates it; a pair is rescanned only
  // when at least one member's version moved past what the pair last saw.
  // Scan order within a round is unchanged (lexicographic i < j), so the
  // sequence of applied swaps — and the final placements — are identical
  // to the full O(P^2)-per-round sweep, minus the converged rescans.
  if (options_.apply_transfers && out.placements.size() > 1) {
    const std::size_t num_placed = out.placements.size();
    std::vector<std::uint64_t> version(num_placed, 1);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> last_scanned(
        num_placed * num_placed, {0, 0});
    std::size_t pairs_scanned = 0;
    std::size_t pairs_skipped = 0;
    for (std::size_t round = 0; round < options_.max_rounds; ++round) {
      std::size_t swaps = 0;
      for (std::size_t i = 0; i < num_placed; ++i) {
        for (std::size_t j = i + 1; j < num_placed; ++j) {
          auto& seen = last_scanned[i * num_placed + j];
          if (seen.first == version[i] && seen.second == version[j]) {
            ++pairs_skipped;
            continue;  // converged pair: both sides unchanged since last scan
          }
          ++pairs_scanned;
          // Record what this scan saw BEFORE bumping: a pair that applied
          // swaps changed its own members (centrals may have moved), so it
          // must stay dirty and be rescanned next round, exactly as the
          // full sweep would.
          seen = {version[i], version[j]};
          const std::size_t s =
              transfer(out.placements[i], out.placements[j], topology);
          if (s > 0) {
            ++version[i];
            ++version[j];
          }
          swaps += s;
        }
      }
      out.transfers_applied += swaps;
      if (swaps == 0) break;
    }
    auto& reg = obs::MetricsRegistry::global();
    if (reg.enabled()) {
      static obs::Counter& scanned =
          reg.counter("placement/transfer_pairs_scanned");
      static obs::Counter& skipped =
          reg.counter("placement/transfer_pairs_skipped");
      scanned.add(pairs_scanned);
      skipped.add(pairs_skipped);
    }
  }

  out.total_distance = 0;
  for (const Placement& pl : out.placements) out.total_distance += pl.distance;
  return out;
}

}  // namespace vcopt::placement
