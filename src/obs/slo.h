// Service-level-objective tracking with multi-window burn-rate alerts.
//
// Every SLO is an error-budget objective: out of the events recorded in a
// rolling window, at most `objective` fraction may be bad.  Value-style
// objectives (latency p99, DC-per-VM) reduce to the same form through a
// threshold: record_value() marks a sample bad when it exceeds
// `spec.threshold`, so "p99 latency below T" becomes "at most 1% of
// decisions slower than T" — the standard error-budget formulation.
//
// Burn rate is the classic SRE ratio: (bad fraction in window) / objective.
// Burn 1.0 spends the budget exactly at the sustainable pace; burn >= alert
// threshold over BOTH a short and a long rolling window raises the alert —
// the multi-window scheme that ignores one-sample blips (short window alone)
// without missing slow leaks (long window alone).
//
// Time is whatever clock the caller feeds in (simulated seconds for the
// sims, service-clock seconds for vcopt::service) — the tracker never reads
// a wall clock, so SLO evaluation is as deterministic as the run itself.
//
// Events are not kept one by one.  Each objective's clock is cut into
// slices of width short_window / kSlicesPerShortWindow (0.94 s for the
// service's 60 s window), and the tracker keeps the good/bad counts of every
// slice that holds an event, in ascending slice order.  So a window resolves
// to whole slices at both edges: [now - W, now] counts every event in the
// slice holding now - W and in the slice holding now, and nothing in the
// slices after it.  Slices older than long_window behind the newest event
// are dropped, so an objective holds at most
// ceil(long_window / width) + 1 slices (641 for 60 s / 600 s) whatever the
// event rate, and evaluation costs O(slices), not O(events).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vcopt::obs {

/// One declared objective.
struct SloSpec {
  std::string name;         ///< e.g. "service/shed_rate"
  std::string description;  ///< one line for dashboards
  /// Error budget: max allowed bad fraction of events in a window.
  double objective = 0.01;
  /// record_value() marks samples bad when value > threshold.  Unused by
  /// record_event() feeds.
  double threshold = 0;
  double short_window = 60;   ///< seconds (caller's clock)
  double long_window = 600;   ///< seconds; also the retention horizon
  double burn_alert = 2.0;    ///< alert when BOTH window burn rates >= this
  std::size_t min_events = 10;  ///< no alert below this many short-window events
};

/// Evaluated state of one SLO at an instant.
struct SloStatus {
  SloSpec spec;
  std::uint64_t total = 0;  ///< lifetime events
  std::uint64_t bad = 0;    ///< lifetime bad events
  std::uint64_t short_total = 0;
  std::uint64_t short_bad = 0;
  std::uint64_t long_total = 0;
  std::uint64_t long_bad = 0;
  double short_burn = 0;
  double long_burn = 0;
  bool alerting = false;
};

/// Tracker for a set of declared SLOs.  Thread-safe; cheap enough to stay
/// always-on (one mutex and one slice increment per event).  Each
/// vcopt::service owns one; the sims feed one passed through their options.
class SloTracker {
 public:
  /// Slices per short window; the slice width is short_window divided by
  /// this, so a window's edges are resolved to 1/64 of the short window.
  static constexpr int kSlicesPerShortWindow = 64;

  SloTracker() = default;
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Registers an objective.  Re-declaring an existing name keeps the
  /// original spec (find-or-create, like the metrics registry).
  void declare(const SloSpec& spec);
  bool declared(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Records one good/bad event at time `t` on the caller's clock.  Unknown
  /// names throw std::invalid_argument (an undeclared SLO is a wiring bug),
  /// and so does a `t` that is not finite or whose slice index does not fit
  /// in 62 bits.  An event older than the newest slice is counted in the
  /// slice its own time falls in.
  void record_event(const std::string& name, double t, bool good);
  /// Value feed: bad when value > spec.threshold.
  void record_value(const std::string& name, double t, double value);

  /// Evaluates every declared SLO over [now - window, now], resolved to
  /// whole slices (see the file comment).  A `now` that is not finite or
  /// out of slice range throws std::invalid_argument.
  std::vector<SloStatus> evaluate(double now) const;
  /// True when any SLO is alerting at `now`.
  bool any_alerting(double now) const;
  /// Slices `name` currently holds (at most ceil(long/width) + 1); 0 for an
  /// undeclared name.
  std::size_t slice_count(const std::string& name) const;

  /// {"schema":"vcopt-slo/1","now":T,"slos":[{name,objective,...,alerting}]}
  util::Json snapshot_json(double now) const;

  void reset();

 private:
  /// The events whose time falls in [index * width, (index + 1) * width).
  struct Slice {
    std::int64_t index = 0;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };
  struct Series {
    SloSpec spec;
    std::deque<Slice> slices;  ///< ascending index, pruned to the long window
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
    double max_t = 0;  ///< latest event time seen (prune horizon)
  };

  /// The declared series `name`; throws std::invalid_argument otherwise.
  Series& series_locked(const std::string& name) VCOPT_REQUIRES(mu_);
  static void add(Series& s, double t, bool good);
  SloStatus evaluate_locked(const Series& s, double now) const
      VCOPT_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::map<std::string, Series> slos_ VCOPT_GUARDED_BY(mu_);
};

}  // namespace vcopt::obs
