#include "placement/baselines.h"

#include <algorithm>
#include <numeric>

#include "solver/sd_solver.h"

namespace vcopt::placement {

namespace {
bool availability_ok(const cluster::Request& request,
                     const util::IntMatrix& remaining) {
  for (std::size_t j = 0; j < remaining.cols(); ++j) {
    if (request.count(j) > remaining.col_sum(j)) return false;
  }
  return true;
}
}  // namespace

std::optional<Placement> FirstFitPolicy::place(const cluster::Request& request,
                                               const cluster::CapacityView& view,
                                               const cluster::Topology& topology) {
  const util::IntMatrix& remaining = view.matrix();
  if (!availability_ok(request, remaining)) return std::nullopt;
  cluster::Allocation alloc(remaining.rows(), remaining.cols());
  std::vector<int> need = request.counts();
  for (std::size_t i = 0; i < remaining.rows(); ++i) {
    for (std::size_t j = 0; j < remaining.cols(); ++j) {
      const int take = std::min(need[j], remaining(i, j));
      if (take > 0) {
        alloc.at(i, j) = take;
        need[j] -= take;
      }
    }
  }
  return evaluate(std::move(alloc), topology);
}

std::optional<Placement> SpreadPolicy::place(const cluster::Request& request,
                                             const cluster::CapacityView& view,
                                             const cluster::Topology& topology) {
  const util::IntMatrix& remaining = view.matrix();
  if (!availability_ok(request, remaining)) return std::nullopt;
  cluster::Allocation alloc(remaining.rows(), remaining.cols());
  util::IntMatrix left = remaining;
  for (std::size_t j = 0; j < remaining.cols(); ++j) {
    for (int v = 0; v < request.count(j); ++v) {
      // Node with the most total free capacity that still has a type-j slot.
      std::size_t best = remaining.rows();
      int best_free = -1;
      for (std::size_t i = 0; i < remaining.rows(); ++i) {
        if (left(i, j) <= 0) continue;
        const int free = left.row_sum(i);
        if (free > best_free) {
          best_free = free;
          best = i;
        }
      }
      if (best == remaining.rows()) return std::nullopt;
      alloc.at(best, j) += 1;
      left(best, j) -= 1;
    }
  }
  return evaluate(std::move(alloc), topology);
}

std::optional<Placement> RandomPolicy::place(const cluster::Request& request,
                                             const cluster::CapacityView& view,
                                             const cluster::Topology& topology) {
  const util::IntMatrix& remaining = view.matrix();
  if (!availability_ok(request, remaining)) return std::nullopt;
  cluster::Allocation alloc(remaining.rows(), remaining.cols());
  util::IntMatrix left = remaining;
  for (std::size_t j = 0; j < remaining.cols(); ++j) {
    for (int v = 0; v < request.count(j); ++v) {
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < remaining.rows(); ++i) {
        if (left(i, j) > 0) candidates.push_back(i);
      }
      if (candidates.empty()) return std::nullopt;
      const std::size_t pick = candidates[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
      alloc.at(pick, j) += 1;
      left(pick, j) -= 1;
    }
  }
  return evaluate(std::move(alloc), topology);
}

std::optional<Placement> SdExactPolicy::place(const cluster::Request& request,
                                              const cluster::CapacityView& view,
                                              const cluster::Topology& topology) {
  const util::IntMatrix& remaining = view.matrix();
  // The exact scan takes an arbitrary metric, so it gets a dense D, built
  // once per call.
  const util::DoubleMatrix dist =
      topology.distance_matrix();  // NOLINT(vcopt-dense-distance)
  const solver::SdResult res = solver::solve_sd_exact(request, remaining, dist);
  if (!res.feasible) return std::nullopt;
  return Placement{res.allocation, res.central, res.distance};
}

}  // namespace vcopt::placement
