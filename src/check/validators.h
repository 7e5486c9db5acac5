// Domain validators for the paper's feasibility constraints (Def. 1/2/4) and
// the bookkeeping invariants of the surrounding system.  Each validator
// returns a ValidationResult whose message, on failure, names the violated
// constraint and dumps the offending matrices/state, so a VCOPT_VALIDATE
// failure is diagnosable from the abort message alone.
//
// Validators are plain functions over matrices/vectors (no dependency on the
// cluster/solver layers), so every subsystem can call them; they are also
// unit-tested directly, independent of whether checks are compiled in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/check.h"
#include "util/matrix.h"

namespace vcopt::check {

/// Outcome of a validator: `ok` plus a multi-line diagnostic when not.
struct ValidationResult {
  bool ok = true;
  std::string message;
  explicit operator bool() const { return ok; }
};

ValidationResult valid();
ValidationResult invalid(std::string message);

/// Non-owning view of a pairwise node distance D(a, b): the exact solvers
/// pass their matrix, placement passes a lambda over Topology::distance.
/// The validators recompute from it without knowing which, so this layer
/// needs neither the cluster library nor a dense D.  Bind it only for the
/// duration of a call.
class DistanceFn {
 public:
  template <typename F>
  DistanceFn(const F& f)  // NOLINT(google-explicit-constructor)
      : fn_(&f), call_([](const void* fn, std::size_t a, std::size_t b) {
          return static_cast<double>((*static_cast<const F*>(fn))(a, b));
        }) {}

  double operator()(std::size_t a, std::size_t b) const {
    return call_(fn_, a, b);
  }

 private:
  const void* fn_;
  double (*call_)(const void*, std::size_t, std::size_t);
};

/// Definition 2 feasibility of an allocation C against a request R and
/// remaining capacity L:  sum_i C_ij == R_j,  0 <= C_ij <= L_ij.
ValidationResult validate_allocation(const util::IntMatrix& counts,
                                     const std::vector<int>& requested,
                                     const util::IntMatrix& remaining);

/// Capacity-fit half of Definition 2 on its own: 0 <= C_ij <= L_ij.  Used
/// where C aggregates several requests (GSD's shared-capacity coupling).
ValidationResult validate_fits(const util::IntMatrix& counts,
                               const util::IntMatrix& limit);

/// Distance of C when `central` is forced as the central node:
/// sum_i (sum_j C_ij) * D(i, central).  Independent of cluster::Allocation
/// so it can cross-check it.
double recompute_distance_from(const util::IntMatrix& counts,
                               std::size_t central, DistanceFn dist);

/// Definition 1: DC(C) = min_k recompute_distance_from(C, k, D), over every
/// node (one per row of C).
double recompute_dc(const util::IntMatrix& counts, DistanceFn dist);

/// The solver-reported (central, distance) pair must match an independent
/// recomputation of the forced-central distance.
ValidationResult validate_reported_distance(const util::IntMatrix& counts,
                                            DistanceFn dist,
                                            std::size_t central,
                                            double reported,
                                            double tol = 1e-6);

/// Stronger form for exact solvers: the reported distance must equal DC(C),
/// i.e. the reported central node must be optimal for the allocation.
ValidationResult validate_dc_optimal(const util::IntMatrix& counts,
                                     DistanceFn dist, double reported,
                                     double tol = 1e-6);

/// No NaN/Inf anywhere (simplex tableaus, solution vectors, distances).
ValidationResult validate_finite(const std::vector<double>& values,
                                 const std::string& what);
ValidationResult validate_finite(const util::DoubleMatrix& m,
                                 const std::string& what);

/// Inventory conservation: allocated + remaining == max and
/// 0 <= allocated_ij <= max_ij everywhere.  (A drained node reports less
/// remaining than max - allocated, so pass the undrained remaining matrix.)
ValidationResult validate_capacity_conservation(
    const util::IntMatrix& allocated, const util::IntMatrix& remaining,
    const util::IntMatrix& max_capacity);

/// Event/timeline timestamps must be non-decreasing.
ValidationResult validate_nondecreasing(const std::vector<double>& timestamps,
                                        const std::string& what);

/// Exact-cover reconciliation: `got` must contain every id in `expected`
/// exactly once and nothing else (order-insensitive).  On failure the
/// diagnostic lists the missing, duplicated and unexpected ids.  Used for
/// the service's journal/grant reconciliation: every accepted seq ends in
/// exactly one outcome — no lost requests, no duplicated decisions.
ValidationResult validate_exact_cover(const std::vector<std::uint64_t>& expected,
                                      const std::vector<std::uint64_t>& got,
                                      const std::string& what);

/// Repair conservation after a node failure: `lost` must be the slice of
/// `original` hosted on failed nodes (lost <= original entrywise, with
/// lost(i,j) > 0 only where failed[i]); `replacement` may only land on live
/// nodes; and per VM type the replacement never exceeds what was lost —
/// with exact equality when `full_repair`, so the repaired allocation
/// original - lost + replacement conserves the per-type totals of the lease.
ValidationResult validate_repair_conservation(const util::IntMatrix& original,
                                              const util::IntMatrix& lost,
                                              const util::IntMatrix& replacement,
                                              const std::vector<bool>& failed,
                                              bool full_repair);

/// Live-migration conservation: committing one VM move must change the
/// lease allocation by exactly -1 at (from, type) and +1 at (to, type),
/// leave every other entry untouched, keep all entries non-negative, and
/// preserve the per-type totals (a migration relocates a VM, it never
/// creates or destroys one).
ValidationResult validate_migration_conservation(const util::IntMatrix& before,
                                                 const util::IntMatrix& after,
                                                 std::size_t from,
                                                 std::size_t to,
                                                 std::size_t type);

/// Incrementally maintained figures against their full recomputation:
/// every `got[k]` must equal `want[k]` bit for bit (no tolerance; -0.0 and
/// 0.0 differ), where `names[k]` names field k in the diagnostic.  The
/// cluster sampler checks its rack-aggregate fragmentation figures against
/// fragmentation() with it.
ValidationResult validate_bitwise_equal(const std::vector<double>& got,
                                        const std::vector<double>& want,
                                        const std::vector<std::string>& names,
                                        const std::string& what);

}  // namespace vcopt::check
