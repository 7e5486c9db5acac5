#include "solver/sd_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "check/check.h"
#include "check/validators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vcopt::solver {

namespace {

// Accepts proven optima and budget-truncated incumbents; the latter are
// surfaced (warn-once + counter) so a silently suboptimal answer cannot
// masquerade as exact.
bool usable_ilp_solution(const IlpSolution& sol, const char* where) {
  if (sol.status == SolveStatus::kOptimal) return true;
  if (sol.status == SolveStatus::kFeasibleBudget) {
    obs::MetricsRegistry::global()
        .counter("solver/budget_truncated_solves")
        .add();
    util::log_warn_once(std::string("sd_solver/budget/") + where)
        << where << ": B&B node budget truncated the search after "
        << sol.nodes_explored
        << " nodes; using the best incumbent (NOT proven optimal)";
    return true;
  }
  return false;
}

void check_shapes(const cluster::Request& request,
                  const util::IntMatrix& remaining,
                  const util::DoubleMatrix& dist) {
  const std::size_t n = remaining.rows();
  if (dist.rows() != n || dist.cols() != n) {
    throw std::invalid_argument("sd_solver: distance matrix shape mismatch");
  }
  if (request.type_count() != remaining.cols()) {
    throw std::invalid_argument("sd_solver: request type count mismatch");
  }
}

}  // namespace

std::optional<cluster::Allocation> fill_for_central(
    const cluster::Request& request, const util::IntMatrix& remaining,
    const util::DoubleMatrix& dist, std::size_t central) {
  check_shapes(request, remaining, dist);
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  if (central >= n) throw std::out_of_range("fill_for_central: central");

  // Nodes sorted by distance from the central node (nearest first); ties by
  // index for determinism.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return dist(a, central) < dist(b, central);
  });

  cluster::Allocation alloc(n, m);
  std::vector<int> need = request.counts();
  for (std::size_t idx : order) {
    bool done = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (need[j] > 0) {
        const int take = std::min(need[j], remaining(idx, j));
        if (take > 0) {
          alloc.at(idx, j) = take;
          need[j] -= take;
        }
      }
      if (need[j] > 0) done = false;
    }
    if (done) break;
  }
  for (int rest : need) {
    if (rest > 0) return std::nullopt;  // insufficient capacity
  }
  return alloc;
}

SdResult solve_sd_exact(const cluster::Request& request,
                        const util::IntMatrix& remaining,
                        const util::DoubleMatrix& dist) {
  VCOPT_TRACE_SPAN("solver/sd_exact");
  check_shapes(request, remaining, dist);
  SdResult best;
  best.distance = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < remaining.rows(); ++k) {
    const auto alloc = fill_for_central(request, remaining, dist, k);
    if (!alloc) return SdResult{};  // same capacity for every k: infeasible
    const double d = alloc->distance_from(k, dist);
    if (!best.feasible || d < best.distance) {
      best.feasible = true;
      best.allocation = *alloc;
      best.central = k;
      best.distance = d;
    }
  }
  if (best.feasible) {
    // Def. 2 feasibility + Def. 1 cross-check: the reported distance must be
    // DC(C) under an independent recomputation (Theorem 1 guarantees the
    // scan's minimum is also the allocation's optimal central).
    VCOPT_VALIDATE(check::validate_allocation(best.allocation.to_matrix(),
                                              request.counts(), remaining));
    VCOPT_VALIDATE(
        check::validate_dc_optimal(best.allocation.to_matrix(), dist,
                                   best.distance));
  }
  return best;
}

SdResult solve_sd_exact_weighted(const cluster::Request& request,
                                 const util::IntMatrix& remaining,
                                 const util::DoubleMatrix& dist,
                                 const std::vector<double>& weights) {
  check_shapes(request, remaining, dist);
  SdResult best;
  best.distance = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < remaining.rows(); ++k) {
    // For fixed k the optimal per-type fill is weight-independent (positive
    // weights scale each type's cost uniformly), so the unweighted fill is
    // reused and only the objective changes.
    const auto alloc = fill_for_central(request, remaining, dist, k);
    if (!alloc) return SdResult{};
    const double d = alloc->weighted_distance_from(k, dist, weights);
    if (!best.feasible || d < best.distance) {
      best.feasible = true;
      best.allocation = *alloc;
      best.central = k;
      best.distance = d;
    }
  }
  if (best.feasible) {
    VCOPT_VALIDATE(check::validate_allocation(best.allocation.to_matrix(),
                                              request.counts(), remaining));
  }
  return best;
}

LpModel build_sd_model(const cluster::Request& request,
                       const util::IntMatrix& remaining,
                       const util::DoubleMatrix& dist, std::size_t central) {
  check_shapes(request, remaining, dist);
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  if (central >= n) throw std::out_of_range("build_sd_model: central");

  LpModel model;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      model.add_variable(0, remaining(i, j), dist(i, central), /*integral=*/true,
                         "x_" + std::to_string(i) + "_" + std::to_string(j));
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    Constraint c;
    c.relation = Relation::kEqual;
    c.rhs = request.count(j);
    c.name = "demand_" + std::to_string(j);
    for (std::size_t i = 0; i < n; ++i) {
      c.vars.push_back(i * m + j);
      c.coeffs.push_back(1.0);
    }
    model.add_constraint(std::move(c));
  }
  return model;
}

SdResult solve_sd_ilp(const cluster::Request& request,
                      const util::IntMatrix& remaining,
                      const util::DoubleMatrix& dist, const IlpOptions& options) {
  VCOPT_TRACE_SPAN("solver/sd_ilp");
  check_shapes(request, remaining, dist);
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  SdResult best;
  best.distance = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    const LpModel model = build_sd_model(request, remaining, dist, k);
    const IlpSolution sol = solve_ilp(model, options);
    if (!usable_ilp_solution(sol, "solve_sd_ilp")) continue;
    if (!best.feasible || sol.objective < best.distance) {
      cluster::Allocation alloc(n, m);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          alloc.at(i, j) = static_cast<int>(std::lround(sol.x[i * m + j]));
        }
      }
      best.feasible = true;
      best.allocation = std::move(alloc);
      best.central = k;
      best.distance = sol.objective;
    }
  }
  if (best.feasible) {
    // Budget-truncated incumbents may not be DC-optimal, so only the forced-
    // central distance is cross-checked here (it must match the ILP
    // objective exactly).
    VCOPT_VALIDATE(check::validate_allocation(best.allocation.to_matrix(),
                                              request.counts(), remaining));
    VCOPT_VALIDATE(check::validate_reported_distance(
        best.allocation.to_matrix(), dist, best.central, best.distance, 1e-6));
  }
  return best;
}

LpModel build_gsd_model(const std::vector<cluster::Request>& requests,
                        const util::IntMatrix& remaining,
                        const util::DoubleMatrix& dist,
                        const std::vector<std::size_t>& centrals) {
  if (requests.empty()) throw std::invalid_argument("build_gsd_model: no requests");
  if (centrals.size() != requests.size()) {
    throw std::invalid_argument("build_gsd_model: one central per request needed");
  }
  for (const auto& r : requests) check_shapes(r, remaining, dist);
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  const std::size_t p = requests.size();

  LpModel model;
  for (std::size_t k = 0; k < p; ++k) {
    if (centrals[k] >= n) throw std::out_of_range("build_gsd_model: central");
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        // Per-variable upper bound is the shared capacity; the shared-cap
        // constraint below enforces the coupling across requests.
        model.add_variable(0, remaining(i, j), dist(i, centrals[k]),
                           /*integral=*/true,
                           "x_" + std::to_string(k) + "_" + std::to_string(i) +
                               "_" + std::to_string(j));
      }
    }
  }
  // Demand: sum_i x^k_ij = R^k_j.
  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      Constraint c;
      c.relation = Relation::kEqual;
      c.rhs = requests[k].count(j);
      c.name = "demand_" + std::to_string(k) + "_" + std::to_string(j);
      for (std::size_t i = 0; i < n; ++i) {
        c.vars.push_back((k * n + i) * m + j);
        c.coeffs.push_back(1.0);
      }
      model.add_constraint(std::move(c));
    }
  }
  // Shared capacity: sum_k x^k_ij <= L_ij.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      Constraint c;
      c.relation = Relation::kLessEqual;
      c.rhs = remaining(i, j);
      c.name = "cap_" + std::to_string(i) + "_" + std::to_string(j);
      for (std::size_t k = 0; k < p; ++k) {
        c.vars.push_back((k * n + i) * m + j);
        c.coeffs.push_back(1.0);
      }
      model.add_constraint(std::move(c));
    }
  }
  return model;
}

GsdResult solve_gsd_exact(const std::vector<cluster::Request>& requests,
                          const util::IntMatrix& remaining,
                          const util::DoubleMatrix& dist,
                          std::size_t max_tuples, const IlpOptions& options) {
  VCOPT_TRACE_SPAN("solver/gsd_exact");
  if (requests.empty()) throw std::invalid_argument("solve_gsd_exact: no requests");
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  const std::size_t p = requests.size();

  // Guard the n^p enumeration.
  double tuples = 1;
  for (std::size_t k = 0; k < p; ++k) tuples *= static_cast<double>(n);
  if (tuples > static_cast<double>(max_tuples)) {
    throw std::invalid_argument(
        "solve_gsd_exact: n^p exceeds max_tuples; instance too large for "
        "exact enumeration");
  }

  GsdResult best;
  best.total_distance = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> centrals(p, 0);
  while (true) {
    const LpModel model = build_gsd_model(requests, remaining, dist, centrals);
    const IlpSolution sol = solve_ilp(model, options);
    if (usable_ilp_solution(sol, "solve_gsd_exact") &&
        sol.objective < best.total_distance) {
      best.feasible = true;
      best.total_distance = sol.objective;
      best.centrals = centrals;
      best.allocations.assign(p, cluster::Allocation(n, m));
      for (std::size_t k = 0; k < p; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            best.allocations[k].at(i, j) =
                static_cast<int>(std::lround(sol.x[(k * n + i) * m + j]));
          }
        }
      }
    }
    // Advance the central-node tuple (odometer).
    std::size_t pos = 0;
    while (pos < p && ++centrals[pos] == n) {
      centrals[pos] = 0;
      ++pos;
    }
    if (pos == p) break;
  }
#if VCOPT_ENABLE_CHECKS
  if (best.feasible) {
    // Definition 4: per-request demand is met and the COMBINED allocation
    // respects the shared capacity (per-request fit alone is not enough).
    util::IntMatrix combined(n, m);
    for (std::size_t k = 0; k < p; ++k) {
      VCOPT_VALIDATE(check::validate_allocation(best.allocations[k].to_matrix(),
                                                requests[k].counts(),
                                                remaining));
      combined += best.allocations[k].to_matrix();
    }
    VCOPT_VALIDATE(check::validate_fits(combined, remaining));
  }
#endif
  return best;
}

}  // namespace vcopt::solver
