// Small statistics toolkit used by the benchmarks: running summary stats
// (Welford), percentiles over retained samples, and fixed-width histograms.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vcopt::util {

/// Online mean/variance via Welford's algorithm plus min/max.
/// Does not retain samples; O(1) memory.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

/// Retains all samples; supports exact percentiles.
class Samples {
 public:
  void add(double x);
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const;
  /// Exact percentile by linear interpolation, p in [0,100].
  double percentile(double p) const;
  double median() const { return percentile(50); }
  const std::vector<double>& values() const { return xs_; }

 private:
  void sort_if_needed() const;
  std::vector<double> xs_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = false;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bucket so totals are conserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);
  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t count(std::size_t bucket) const;
  std::size_t total() const { return total_; }
  double bucket_lo(std::size_t bucket) const;
  double bucket_hi(std::size_t bucket) const;
  /// Simple ASCII rendering for terminal reports.
  std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Retry delay for `attempt` (1-based): the exponential backoff
/// min(max_delay, initial * factor^(attempt-1)) times the jitter
/// (1 + jitter * (2u - 1)), clamped to [0, max_delay].  `u` is the caller's
/// draw in [0, 1), so the delay is as deterministic as the caller's Rng
/// stream.  Overflow-safe: the geometric growth stops multiplying the moment
/// it crosses the clamp, so arbitrarily high attempt counts never reach
/// pow()'s overflow-to-infinity range — the result is always finite (callers
/// schedule it on an event queue, where an infinite delay would wedge the
/// run).  `initial <= 0`, `attempt <= 0` or `max_delay <= 0` yield 0;
/// `factor < 1` is treated as 1 (backoff never shrinks).
double jittered_backoff(double initial, double factor, int attempt,
                        double max_delay, double jitter, double u);

}  // namespace vcopt::util
