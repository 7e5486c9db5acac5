#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vcopt::obs {

void SloTracker::declare(const SloSpec& spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("SloTracker::declare: empty name");
  }
  if (spec.objective <= 0 || spec.objective > 1) {
    throw std::invalid_argument("SloTracker::declare: objective must be in (0,1]: " +
                                spec.name);
  }
  if (!(spec.short_window > 0) || !std::isfinite(spec.long_window) ||
      spec.long_window < spec.short_window) {
    throw std::invalid_argument(
        "SloTracker::declare: need 0 < short_window <= long_window < inf: " +
        spec.name);
  }
  if (spec.long_window / spec.short_window > 0x1p25) {
    // Keeps a long window's slice span (and so its window starts) in range.
    throw std::invalid_argument(
        "SloTracker::declare: long_window may span at most 2^25 short "
        "windows: " + spec.name);
  }
  util::MutexLock lock(mu_);
  auto it = slos_.find(spec.name);
  if (it != slos_.end()) return;  // find-or-create: first declaration wins
  Series s;
  s.spec = spec;
  slos_.emplace(spec.name, std::move(s));
}

bool SloTracker::declared(const std::string& name) const {
  util::MutexLock lock(mu_);
  return slos_.count(name) > 0;
}

std::vector<std::string> SloTracker::names() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(slos_.size());
  for (const auto& [name, s] : slos_) out.push_back(name);
  return out;
}

namespace {

double slice_width(const SloSpec& spec) {
  return spec.short_window / SloTracker::kSlicesPerShortWindow;
}

/// The slice `t` falls in.  Guards the double -> integer conversion: a time
/// that is not finite, or whose index would not fit in 62 bits, is a caller
/// bug and throws rather than reaching an undefined cast.
std::int64_t slice_of(double t, double width) {
  const double k = std::floor(t / width);
  if (!std::isfinite(k) || std::abs(k) >= 0x1p62) {
    throw std::invalid_argument("SloTracker: time " + std::to_string(t) +
                                " is not finite or out of slice range");
  }
  return static_cast<std::int64_t>(k);
}

}  // namespace

SloTracker::Series& SloTracker::series_locked(const std::string& name) {
  auto it = slos_.find(name);
  if (it == slos_.end()) {
    throw std::invalid_argument("SloTracker: undeclared SLO: " + name);
  }
  return it->second;
}

void SloTracker::add(Series& s, double t, bool good) {
  // Every slice index is computed before the series changes, so a time out
  // of range throws with the series untouched.
  const double width = slice_width(s.spec);
  const std::int64_t k = slice_of(t, width);
  const double max_t = std::max(s.max_t, t);
  const std::int64_t horizon = slice_of(max_t - s.spec.long_window, width);
  auto it = s.slices.end();
  if (s.slices.empty() || s.slices.back().index < k) {
    it = s.slices.insert(it, Slice{k, 0, 0});
  } else if (s.slices.back().index == k) {
    --it;
  } else {
    // Out of order: count it in its own slice, not the newest one.
    it = std::lower_bound(
        s.slices.begin(), s.slices.end(), k,
        [](const Slice& sl, std::int64_t index) { return sl.index < index; });
    if (it->index != k) it = s.slices.insert(it, Slice{k, 0, 0});
  }
  ++it->total;
  ++s.total;
  if (!good) {
    ++it->bad;
    ++s.bad;
  }
  // Drop slices wholly older than the long window behind the newest event,
  // so a long-running service holds a bounded number of slices.
  s.max_t = max_t;
  while (!s.slices.empty() && s.slices.front().index < horizon) {
    s.slices.pop_front();
  }
}

void SloTracker::record_event(const std::string& name, double t, bool good) {
  util::MutexLock lock(mu_);
  add(series_locked(name), t, good);
}

void SloTracker::record_value(const std::string& name, double t, double value) {
  // Threshold lookup needs the spec; do it under the same lock as the add.
  util::MutexLock lock(mu_);
  Series& s = series_locked(name);
  add(s, t, value <= s.spec.threshold);
}

SloStatus SloTracker::evaluate_locked(const Series& s, double now) const {
  SloStatus st;
  st.spec = s.spec;
  st.total = s.total;
  st.bad = s.bad;
  const double width = slice_width(s.spec);
  const std::int64_t now_slice = slice_of(now, width);
  const std::int64_t short_start = slice_of(now - s.spec.short_window, width);
  const std::int64_t long_start = slice_of(now - s.spec.long_window, width);
  for (auto it = s.slices.rbegin(); it != s.slices.rend(); ++it) {
    if (it->index > now_slice) continue;  // future slices don't count yet
    if (it->index < long_start) break;
    st.long_total += it->total;
    st.long_bad += it->bad;
    if (it->index >= short_start) {
      st.short_total += it->total;
      st.short_bad += it->bad;
    }
  }
  if (st.short_total > 0) {
    st.short_burn = (static_cast<double>(st.short_bad) /
                     static_cast<double>(st.short_total)) /
                    s.spec.objective;
  }
  if (st.long_total > 0) {
    st.long_burn = (static_cast<double>(st.long_bad) /
                    static_cast<double>(st.long_total)) /
                   s.spec.objective;
  }
  st.alerting = st.short_total >= s.spec.min_events &&
                st.short_burn >= s.spec.burn_alert &&
                st.long_burn >= s.spec.burn_alert;
  return st;
}

std::vector<SloStatus> SloTracker::evaluate(double now) const {
  util::MutexLock lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const auto& [name, s] : slos_) {
    out.push_back(evaluate_locked(s, now));
  }
  return out;
}

bool SloTracker::any_alerting(double now) const {
  util::MutexLock lock(mu_);
  for (const auto& [name, s] : slos_) {
    if (evaluate_locked(s, now).alerting) return true;
  }
  return false;
}

std::size_t SloTracker::slice_count(const std::string& name) const {
  util::MutexLock lock(mu_);
  const auto it = slos_.find(name);
  return it == slos_.end() ? 0 : it->second.slices.size();
}

util::Json SloTracker::snapshot_json(double now) const {
  util::MutexLock lock(mu_);
  util::JsonArray arr;
  for (const auto& [name, s] : slos_) {
    const SloStatus st = evaluate_locked(s, now);
    util::JsonObject o;
    o["name"] = st.spec.name;
    o["description"] = st.spec.description;
    o["objective"] = st.spec.objective;
    o["threshold"] = st.spec.threshold;
    o["short_window"] = st.spec.short_window;
    o["long_window"] = st.spec.long_window;
    o["burn_alert"] = st.spec.burn_alert;
    o["total"] = static_cast<double>(st.total);
    o["bad"] = static_cast<double>(st.bad);
    o["short_total"] = static_cast<double>(st.short_total);
    o["short_bad"] = static_cast<double>(st.short_bad);
    o["long_total"] = static_cast<double>(st.long_total);
    o["long_bad"] = static_cast<double>(st.long_bad);
    o["short_burn"] = st.short_burn;
    o["long_burn"] = st.long_burn;
    o["alerting"] = st.alerting;
    arr.push_back(util::Json(std::move(o)));
  }
  return util::Json(util::JsonObject{{"schema", "vcopt-slo/1"},
                                     {"now", now},
                                     {"slos", std::move(arr)}});
}

void SloTracker::reset() {
  util::MutexLock lock(mu_);
  for (auto& [name, s] : slos_) {
    s.slices.clear();
    s.total = 0;
    s.bad = 0;
    s.max_t = 0;
  }
}

}  // namespace vcopt::obs
