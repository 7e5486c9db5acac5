// Time-series collection: bounded ring-buffer series keyed by
// (name, labels), sampled on simulated-time or wall-clock ticks, with
// windowed summaries (count/min/max/mean/p50/p99) and CSV / JSON /
// Prometheus export.  This is the history layer the point-in-time
// MetricsRegistry lacks — cluster telemetry is recorded here: per-node load
// and free capacity, utilization and fragmentation (see
// cluster::ClusterSampler).  A series holds the points its writer chose to
// record, not one per tick: the sampler writes a per-node point only when
// the node's value changed, so read those series as step functions whose
// last point is the current value.  A lease's own DC is not a series; the
// cloud keeps it on the lease record (cluster::Cloud::lease_dc).
//
// Like the metrics registry, a disabled Recorder makes every record() a
// single relaxed atomic load, so samplers can stay wired unconditionally;
// the global instance is switched on by VCOPT_TIMESERIES=1 or
// programmatically (vcopt_cli --telemetry-out).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vcopt::obs {

/// Label set attached to a series ("node" -> "17", "lease" -> "3").  Sorted
/// map so the canonical key (and every export) is deterministic.
using Labels = std::map<std::string, std::string>;

/// Canonical series key: `name` for label-free series, `name{k=v,...}` with
/// the labels in sorted order otherwise.
std::string series_key(const std::string& name, const Labels& labels);

class Recorder;

/// One bounded series of (time, value) points.  The ring buffer keeps the
/// most recent `capacity` points; older points are dropped (and counted), so
/// long-running services hold a sliding window of history at O(1) memory.
class TimeSeries {
 public:
  /// Standalone series (always enabled) — tests and ad-hoc use.
  TimeSeries(std::string name, Labels labels, std::size_t capacity = 256);

  struct Point {
    double t = 0;
    double v = 0;
  };

  /// Windowed summary over the retained points (optionally only those with
  /// t >= since).  Percentiles are exact over the retained window.
  struct Summary {
    std::size_t count = 0;
    double min = 0;
    double max = 0;
    double mean = 0;
    double p50 = 0;
    double p99 = 0;
    double first_t = 0;
    double last_t = 0;
    double last = 0;  ///< most recent value
  };

  void record(double t, double v);

  const std::string& name() const { return name_; }
  const Labels& labels() const { return labels_; }
  std::string key() const { return series_key(name_, labels_); }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Points overwritten because the ring was full.
  std::uint64_t dropped() const;

  /// Retained points in time order (oldest first).
  std::vector<Point> points() const;
  Summary summarize() const;
  Summary summarize_since(double since) const;

  /// {"name":..,"labels":{..},"capacity":..,"dropped":..,"summary":{..},
  ///  "points":[[t,v],..]} — points included only when `include_points`.
  util::Json to_json(bool include_points = true) const;

 private:
  friend class Recorder;
  TimeSeries(const std::atomic<bool>* enabled, std::string name, Labels labels,
             std::size_t capacity);
  Summary summarize_locked(double since) const VCOPT_REQUIRES(mu_);

  const std::atomic<bool>* enabled_;  ///< null = always on (standalone)
  const std::string name_;
  const Labels labels_;
  const std::size_t capacity_;
  mutable util::Mutex mu_;
  /// Grows to capacity_, then wraps.
  std::vector<Point> ring_ VCOPT_GUARDED_BY(mu_);
  /// Next write slot once the ring is full.
  std::size_t head_ VCOPT_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ VCOPT_GUARDED_BY(mu_) = 0;
};

/// Registry of time series.  series() returns stable references, so hot
/// samplers can cache them and skip the map lookup on every tick.  The
/// process-wide instance is Recorder::global(); separate instances can be
/// constructed for tests or per-service isolation.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Process-wide recorder; enabled at startup when VCOPT_TIMESERIES=1.
  static Recorder& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create by (name, labels).  Re-registering keeps the original
  /// capacity.
  TimeSeries& series(const std::string& name, const Labels& labels = {},
                     std::size_t capacity = 256);
  /// Convenience one-shot record (does the map lookup each call).
  void record(const std::string& name, const Labels& labels, double t,
              double v);

  std::size_t series_count() const;
  /// Drops every series (unlike MetricsRegistry::reset, which keeps the
  /// instruments registered — series identity is (name, labels) anyway).
  void reset();

  /// {"schema":"vcopt-timeseries/1","series":[<TimeSeries::to_json>...]},
  /// sorted by series key.
  util::Json export_json(bool include_points = true) const;
  /// One `series,labels,t,value` row per retained point, sorted by key.
  void write_csv(std::ostream& out) const;
  bool write_csv_file(const std::string& path) const;
  /// Prometheus text format: each series' most recent value as a gauge,
  /// with sanitised metric names and escaped label values.
  std::string prometheus_text() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<TimeSeries>> series_
      VCOPT_GUARDED_BY(mu_);
};

}  // namespace vcopt::obs
