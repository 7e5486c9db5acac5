#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace vcopt::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  if (n_ == 0) throw std::logic_error("RunningStats::mean: no samples");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  if (n_ == 0) throw std::logic_error("RunningStats::min: no samples");
  return min_;
}

double RunningStats::max() const {
  if (n_ == 0) throw std::logic_error("RunningStats::max: no samples");
  return max_;
}

void Samples::add(double x) {
  xs_.push_back(x);
  dirty_ = true;
}

double Samples::mean() const {
  if (xs_.empty()) throw std::logic_error("Samples::mean: no samples");
  return sum() / static_cast<double>(xs_.size());
}

double Samples::sum() const { return std::accumulate(xs_.begin(), xs_.end(), 0.0); }

double Samples::stddev() const {
  if (xs_.size() < 2) return 0;
  const double m = mean();
  double acc = 0;
  for (double x : xs_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
}

double Samples::min() const {
  if (xs_.empty()) throw std::logic_error("Samples::min: no samples");
  return *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const {
  if (xs_.empty()) throw std::logic_error("Samples::max: no samples");
  return *std::max_element(xs_.begin(), xs_.end());
}

void Samples::sort_if_needed() const {
  if (dirty_) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }
}

double Samples::percentile(double p) const {
  if (xs_.empty()) throw std::logic_error("Samples::percentile: no samples");
  if (p < 0 || p > 100) throw std::invalid_argument("percentile: p out of [0,100]");
  sort_if_needed();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1 - frac) + sorted_[lo + 1] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
  if (buckets == 0) throw std::invalid_argument("Histogram: need >= 1 bucket");
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<long>((x - lo_) / width);
  idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bucket) const {
  if (bucket >= counts_.size()) throw std::out_of_range("Histogram::count");
  return counts_[bucket];
}

double Histogram::bucket_lo(std::size_t bucket) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bucket);
}

double Histogram::bucket_hi(std::size_t bucket) const {
  return bucket_lo(bucket + 1);
}

std::string Histogram::render(std::size_t width) const {
  std::ostringstream os;
  const std::size_t peak = counts_.empty()
                               ? 0
                               : *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t bar =
        peak == 0 ? 0 : counts_[b] * width / peak;
    os << "[" << bucket_lo(b) << ", " << bucket_hi(b) << ") "
       << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return os.str();
}

double jittered_backoff(double initial, double factor, int attempt,
                        double max_delay, double jitter, double u) {
  if (initial <= 0 || attempt <= 0 || max_delay <= 0) return 0;
  if (factor < 1) factor = 1;
  double delay = initial;
  for (int k = 1; k < attempt; ++k) {
    if (delay >= max_delay) break;  // already clamped; stop before overflow
    delay *= factor;
  }
  delay = std::min(delay, max_delay);
  return std::clamp(delay * (1.0 + jitter * (2.0 * u - 1.0)), 0.0, max_delay);
}

}  // namespace vcopt::util
