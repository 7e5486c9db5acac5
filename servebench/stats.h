// Arithmetic of the served-path benchmark: order statistics and the
// host-speed correction.  Header-only so the self-test exercises exactly the
// code the driver runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace servebench {

/// Quantile q in [0, 1] of `xs` by linear interpolation between the two
/// closest ranks (the "R-7" / numpy default rule).  0 for an empty series.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

/// Interquartile range divided by the median: the run-to-run spread the
/// benchmark reports for every timing.  0 when the median is 0.
inline double iqr_share(const std::vector<double>& xs) {
  const double m = median(xs);
  if (m == 0) return 0;
  return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m;
}

/// Number of samples strictly above the q-quantile: a percentile is
/// reported only when at least ten samples lie beyond it.
inline std::size_t count_beyond(const std::vector<double>& xs, double q) {
  const double cut = quantile(xs, q);
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double x) { return x > cut; }));
}

/// Host-speed correction.  The driver runs a fixed reference kernel (the
/// probe) between service calls; every timing taken between probe k and
/// probe k+1 is divided by the local probe time and multiplied by a fixed
/// reference, so a host that runs the probe 20% slower has its timings
/// scaled down by the same 20% and units stay seconds.
///
/// The local probe time of segment k is the mean of the smoothed probes that
/// bracket it, where each probe is first replaced by the median of itself
/// and its two neighbours: one probe preempted by the scheduler then moves
/// no segment's factor.  Timings taken before the first probe use the first
/// smoothed probe, timings after the last one the last.
class ProbeCorrector {
 public:
  explicit ProbeCorrector(double reference) : reference_(reference) {}

  double reference() const { return reference_; }

  /// Appends the duration of one probe run (any time unit, used
  /// consistently with `reference`).
  void add_probe(double duration) { probes_.push_back(duration); }
  std::size_t probe_count() const { return probes_.size(); }
  const std::vector<double>& probes() const { return probes_; }

  /// Median-of-three smoothed probe k.
  double smoothed(std::size_t k) const {
    const std::size_t n = probes_.size();
    if (n < 3) return probes_.at(k);
    const std::size_t a = k == 0 ? 0 : k - 1;
    const std::size_t b = std::min(k + 1, n - 1);
    double v[3] = {probes_[a], probes_[k], probes_[b]};
    std::sort(v, v + 3);
    return v[1];
  }

  /// Multiplier for a timing taken after `probes_before` probes had run
  /// (0 = before the first).  Requires at least one probe.
  double factor(std::size_t probes_before) const {
    const std::size_t n = probes_.size();
    if (probes_before == 0) return reference_ / smoothed(0);
    if (probes_before >= n) return reference_ / smoothed(n - 1);
    const double local =
        0.5 * (smoothed(probes_before - 1) + smoothed(probes_before));
    return reference_ / local;
  }

  double correct(double raw, std::size_t probes_before) const {
    return raw * factor(probes_before);
  }

 private:
  double reference_;
  std::vector<double> probes_;
};

}  // namespace servebench
