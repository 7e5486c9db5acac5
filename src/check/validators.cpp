#include "check/validators.h"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

namespace vcopt::check {

namespace {

std::string dump_matrix(const char* name, const util::IntMatrix& m) {
  std::ostringstream os;
  os << name << " (" << m.rows() << "x" << m.cols() << "):\n" << m;
  return os.str();
}

}  // namespace

ValidationResult valid() { return ValidationResult{}; }

ValidationResult invalid(std::string message) {
  return ValidationResult{false, std::move(message)};
}

ValidationResult validate_allocation(const util::IntMatrix& counts,
                                     const std::vector<int>& requested,
                                     const util::IntMatrix& remaining) {
  if (counts.rows() != remaining.rows() || counts.cols() != remaining.cols()) {
    std::ostringstream os;
    os << "allocation shape " << counts.rows() << "x" << counts.cols()
       << " does not match capacity shape " << remaining.rows() << "x"
       << remaining.cols();
    return invalid(os.str());
  }
  if (requested.size() != counts.cols()) {
    std::ostringstream os;
    os << "request has " << requested.size() << " types but allocation has "
       << counts.cols() << " columns";
    return invalid(os.str());
  }
  ValidationResult fits = validate_fits(counts, remaining);
  if (!fits.ok) return fits;
  for (std::size_t j = 0; j < counts.cols(); ++j) {
    const int supplied = counts.col_sum(j);
    if (supplied != requested[j]) {
      std::ostringstream os;
      os << "demand violated for type " << j << ": sum_i C_ij = " << supplied
         << " but R_j = " << requested[j] << "\n"
         << dump_matrix("C", counts);
      return invalid(os.str());
    }
  }
  return valid();
}

ValidationResult validate_fits(const util::IntMatrix& counts,
                               const util::IntMatrix& limit) {
  if (counts.rows() != limit.rows() || counts.cols() != limit.cols()) {
    std::ostringstream os;
    os << "shape mismatch: " << counts.rows() << "x" << counts.cols()
       << " vs limit " << limit.rows() << "x" << limit.cols();
    return invalid(os.str());
  }
  for (std::size_t i = 0; i < counts.rows(); ++i) {
    for (std::size_t j = 0; j < counts.cols(); ++j) {
      const int c = counts(i, j);
      if (c < 0) {
        std::ostringstream os;
        os << "negative entry C(" << i << "," << j << ") = " << c << "\n"
           << dump_matrix("C", counts);
        return invalid(os.str());
      }
      if (c > limit(i, j)) {
        std::ostringstream os;
        os << "capacity exceeded at (" << i << "," << j << "): C_ij = " << c
           << " > L_ij = " << limit(i, j) << "\n"
           << dump_matrix("C", counts) << "\n"
           << dump_matrix("L", limit);
        return invalid(os.str());
      }
    }
  }
  return valid();
}

double recompute_distance_from(const util::IntMatrix& counts,
                               std::size_t central, DistanceFn dist) {
  double total = 0;
  for (std::size_t i = 0; i < counts.rows(); ++i) {
    total += static_cast<double>(counts.row_sum(i)) * dist(i, central);
  }
  return total;
}

double recompute_dc(const util::IntMatrix& counts, DistanceFn dist) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < counts.rows(); ++k) {
    const double d = recompute_distance_from(counts, k, dist);
    if (d < best) best = d;
  }
  return best;
}

ValidationResult validate_reported_distance(const util::IntMatrix& counts,
                                            DistanceFn dist,
                                            std::size_t central,
                                            double reported, double tol) {
  if (central >= counts.rows()) {
    std::ostringstream os;
    os << "reported central " << central << " out of range (n = "
       << counts.rows() << ")";
    return invalid(os.str());
  }
  const double actual = recompute_distance_from(counts, central, dist);
  if (std::abs(actual - reported) > tol) {
    std::ostringstream os;
    os << "reported distance " << reported << " for central " << central
       << " disagrees with independent recomputation " << actual
       << " (|diff| = " << std::abs(actual - reported) << " > tol = " << tol
       << ")\n"
       << dump_matrix("C", counts);
    return invalid(os.str());
  }
  return valid();
}

ValidationResult validate_dc_optimal(const util::IntMatrix& counts,
                                     DistanceFn dist, double reported,
                                     double tol) {
  const double dc = recompute_dc(counts, dist);
  if (std::abs(dc - reported) > tol) {
    std::ostringstream os;
    os << "reported distance " << reported
       << " is not DC(C): independent minimisation over all central nodes "
          "gives "
       << dc << " (|diff| = " << std::abs(dc - reported) << " > tol = " << tol
       << ")\n"
       << dump_matrix("C", counts);
    return invalid(os.str());
  }
  return valid();
}

ValidationResult validate_finite(const std::vector<double>& values,
                                 const std::string& what) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      std::ostringstream os;
      os << what << "[" << i << "] = " << values[i] << " is not finite";
      return invalid(os.str());
    }
  }
  return valid();
}

ValidationResult validate_finite(const util::DoubleMatrix& m,
                                 const std::string& what) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(m(r, c))) {
        std::ostringstream os;
        os << what << "(" << r << "," << c << ") = " << m(r, c)
           << " is not finite";
        return invalid(os.str());
      }
    }
  }
  return valid();
}

ValidationResult validate_capacity_conservation(
    const util::IntMatrix& allocated, const util::IntMatrix& remaining,
    const util::IntMatrix& max_capacity) {
  if (allocated.rows() != max_capacity.rows() ||
      allocated.cols() != max_capacity.cols() ||
      remaining.rows() != max_capacity.rows() ||
      remaining.cols() != max_capacity.cols()) {
    return invalid("capacity matrices disagree in shape");
  }
  for (std::size_t i = 0; i < allocated.rows(); ++i) {
    for (std::size_t j = 0; j < allocated.cols(); ++j) {
      const int a = allocated(i, j);
      const int l = remaining(i, j);
      const int m = max_capacity(i, j);
      if (a < 0 || a > m || a + l != m) {
        std::ostringstream os;
        os << "capacity conservation violated at (" << i << "," << j
           << "): allocated = " << a << ", remaining = " << l
           << ", max = " << m << " (want 0 <= allocated <= max and "
           << "allocated + remaining == max)\n"
           << dump_matrix("allocated", allocated) << "\n"
           << dump_matrix("remaining", remaining) << "\n"
           << dump_matrix("max", max_capacity);
        return invalid(os.str());
      }
    }
  }
  return valid();
}

ValidationResult validate_repair_conservation(const util::IntMatrix& original,
                                              const util::IntMatrix& lost,
                                              const util::IntMatrix& replacement,
                                              const std::vector<bool>& failed,
                                              bool full_repair) {
  if (lost.rows() != original.rows() || lost.cols() != original.cols() ||
      replacement.rows() != original.rows() ||
      replacement.cols() != original.cols() ||
      failed.size() != original.rows()) {
    return invalid("repair matrices/mask disagree in shape");
  }
  for (std::size_t i = 0; i < original.rows(); ++i) {
    for (std::size_t j = 0; j < original.cols(); ++j) {
      if (lost(i, j) < 0 || replacement(i, j) < 0) {
        std::ostringstream os;
        os << "negative repair entry at (" << i << "," << j
           << "): lost = " << lost(i, j)
           << ", replacement = " << replacement(i, j);
        return invalid(os.str());
      }
      if (lost(i, j) > original(i, j)) {
        std::ostringstream os;
        os << "lost(" << i << "," << j << ") = " << lost(i, j)
           << " exceeds the lease's " << original(i, j) << " VMs there\n"
           << dump_matrix("original", original) << "\n"
           << dump_matrix("lost", lost);
        return invalid(os.str());
      }
      if (lost(i, j) > 0 && !failed[i]) {
        std::ostringstream os;
        os << "lost VMs reported on live node " << i << " (type " << j << ")";
        return invalid(os.str());
      }
      if (replacement(i, j) > 0 && failed[i]) {
        std::ostringstream os;
        os << "replacement VMs placed on failed node " << i << " (type " << j
           << ")";
        return invalid(os.str());
      }
    }
  }
  for (std::size_t j = 0; j < original.cols(); ++j) {
    int lost_j = 0;
    int repl_j = 0;
    for (std::size_t i = 0; i < original.rows(); ++i) {
      lost_j += lost(i, j);
      repl_j += replacement(i, j);
    }
    if (repl_j > lost_j || (full_repair && repl_j != lost_j)) {
      std::ostringstream os;
      os << "repair of type " << j << " replaces " << repl_j << " of " << lost_j
         << " lost VMs (" << (full_repair ? "full" : "partial")
         << " repair wants " << (full_repair ? "==" : "<=") << ")\n"
         << dump_matrix("lost", lost) << "\n"
         << dump_matrix("replacement", replacement);
      return invalid(os.str());
    }
  }
  return valid();
}

ValidationResult validate_exact_cover(
    const std::vector<std::uint64_t>& expected,
    const std::vector<std::uint64_t>& got, const std::string& what) {
  std::map<std::uint64_t, int> balance;  // +1 per expected, -1 per got
  for (std::uint64_t id : expected) ++balance[id];
  for (std::uint64_t id : got) --balance[id];
  std::vector<std::uint64_t> missing;
  std::vector<std::uint64_t> extra;
  for (const auto& [id, count] : balance) {
    for (int k = 0; k < count; ++k) missing.push_back(id);
    for (int k = 0; k < -count; ++k) extra.push_back(id);
  }
  if (missing.empty() && extra.empty()) return valid();
  std::ostringstream os;
  os << what << ": not an exact cover (" << expected.size() << " expected, "
     << got.size() << " got)";
  auto dump_ids = [&os](const char* label,
                        const std::vector<std::uint64_t>& ids) {
    if (ids.empty()) return;
    os << "\n  " << label << ":";
    for (std::uint64_t id : ids) os << " " << id;
  };
  dump_ids("missing", missing);
  dump_ids("duplicated or unexpected", extra);
  return invalid(os.str());
}

ValidationResult validate_nondecreasing(const std::vector<double>& timestamps,
                                        const std::string& what) {
  for (std::size_t i = 1; i < timestamps.size(); ++i) {
    if (timestamps[i] < timestamps[i - 1]) {
      std::ostringstream os;
      os << what << " went backwards at index " << i << ": "
         << timestamps[i - 1] << " -> " << timestamps[i];
      return invalid(os.str());
    }
  }
  return valid();
}

ValidationResult validate_migration_conservation(const util::IntMatrix& before,
                                                 const util::IntMatrix& after,
                                                 std::size_t from,
                                                 std::size_t to,
                                                 std::size_t type) {
  if (after.rows() != before.rows() || after.cols() != before.cols()) {
    return invalid("migration matrices disagree in shape");
  }
  if (from >= before.rows() || to >= before.rows() || type >= before.cols()) {
    std::ostringstream os;
    os << "migration endpoints out of range: from = " << from << ", to = "
       << to << ", type = " << type << " on a " << before.rows() << "x"
       << before.cols() << " allocation";
    return invalid(os.str());
  }
  if (from == to) {
    std::ostringstream os;
    os << "migration moves a VM from node " << from << " to itself";
    return invalid(os.str());
  }
  for (std::size_t i = 0; i < before.rows(); ++i) {
    for (std::size_t j = 0; j < before.cols(); ++j) {
      int expected = before(i, j);
      if (i == from && j == type) expected -= 1;
      if (i == to && j == type) expected += 1;
      if (after(i, j) != expected) {
        std::ostringstream os;
        os << "migration of one type-" << type << " VM " << from << " -> "
           << to << " changed (" << i << "," << j << ") from " << before(i, j)
           << " to " << after(i, j) << " (expected " << expected << ")\n"
           << dump_matrix("before", before) << "\n"
           << dump_matrix("after", after);
        return invalid(os.str());
      }
      if (after(i, j) < 0) {
        std::ostringstream os;
        os << "migration left a negative count at (" << i << "," << j
           << "): " << after(i, j) << "\n" << dump_matrix("after", after);
        return invalid(os.str());
      }
    }
  }
  return valid();
}

}  // namespace vcopt::check
