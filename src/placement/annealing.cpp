#include "placement/annealing.h"

#include <cmath>

#include "util/rng.h"

namespace vcopt::placement {

namespace {

// Re-evaluates one placement's best central after its allocation changed.
void refresh(Placement& p, const cluster::Topology& topology) {
  const cluster::CentralNode c = p.allocation.best_central(topology);
  p.central = c.node;
  p.distance = c.distance;
}

double total_distance(const std::vector<Placement>& ps) {
  double sum = 0;
  for (const Placement& p : ps) sum += p.distance;
  return sum;
}

}  // namespace

BatchPlacement anneal_batch(const std::vector<cluster::Request>& batch,
                            const util::IntMatrix& remaining,
                            const cluster::Topology& topology,
                            const AnnealOptions& options) {
  // Start from Algorithm 2 (same admission decisions).
  GlobalSubOpt algo2;
  BatchPlacement state = algo2.place_batch(batch, remaining, topology);
  if (state.placements.size() < 1) return state;

  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();

  // Free capacity = remaining minus everything the batch holds.
  util::IntMatrix free = remaining;
  for (const Placement& p : state.placements) p.allocation.debit_from(free);

  std::vector<Placement> best = state.placements;
  double best_total = total_distance(best);
  double current_total = best_total;

  util::Rng rng(options.seed);
  double temperature = options.initial_temperature;

  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bound) - 1));
  };

  for (std::size_t it = 0; it < options.iterations; ++it) {
    temperature *= options.cooling;
    const std::size_t ci = pick(state.placements.size());
    Placement& a = state.placements[ci];

    // Choose a random occupied (node, type) cell of cluster a.
    const auto used = a.allocation.used_nodes();
    if (used.empty()) continue;
    const std::size_t from = used[pick(used.size())];
    std::size_t type = m;
    for (std::size_t tries = 0; tries < m; ++tries) {
      const std::size_t j = pick(m);
      if (a.allocation.at(from, j) > 0) {
        type = j;
        break;
      }
    }
    if (type == m) {
      for (std::size_t j = 0; j < m; ++j) {
        if (a.allocation.at(from, j) > 0) type = j;
      }
    }
    if (type == m) continue;

    const double before = a.distance;
    if (rng.bernoulli(0.5)) {
      // Relocate into free capacity on a random other node.
      const std::size_t to = pick(n);
      if (to == from || free(to, type) <= 0) continue;
      a.allocation.at(from, type) -= 1;
      a.allocation.at(to, type) += 1;
      refresh(a, topology);
      const double delta = a.distance - before;
      if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
        free(from, type) += 1;
        free(to, type) -= 1;
        current_total += delta;
      } else {  // reject: undo
        a.allocation.at(to, type) -= 1;
        a.allocation.at(from, type) += 1;
        refresh(a, topology);
      }
    } else {
      // Exchange same-type VMs with another cluster.
      if (state.placements.size() < 2) continue;
      std::size_t cj = pick(state.placements.size());
      if (cj == ci) continue;
      Placement& b = state.placements[cj];
      const auto b_used = b.allocation.used_nodes();
      std::size_t other = n;
      for (std::size_t tries = 0; tries < b_used.size(); ++tries) {
        const std::size_t cand = b_used[pick(b_used.size())];
        if (cand != from && b.allocation.at(cand, type) > 0) {
          other = cand;
          break;
        }
      }
      if (other == n) continue;
      const double before_pair = a.distance + b.distance;
      a.allocation.at(from, type) -= 1;
      a.allocation.at(other, type) += 1;
      b.allocation.at(other, type) -= 1;
      b.allocation.at(from, type) += 1;
      refresh(a, topology);
      refresh(b, topology);
      const double delta = a.distance + b.distance - before_pair;
      if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
        current_total += delta;  // free capacity unchanged by swaps
      } else {  // reject: undo
        a.allocation.at(other, type) -= 1;
        a.allocation.at(from, type) += 1;
        b.allocation.at(from, type) -= 1;
        b.allocation.at(other, type) += 1;
        refresh(a, topology);
        refresh(b, topology);
      }
    }

    if (current_total < best_total - 1e-12) {
      best_total = current_total;
      best = state.placements;
    }
  }

  state.placements = std::move(best);
  state.total_distance = total_distance(state.placements);
  return state;
}

}  // namespace vcopt::placement
