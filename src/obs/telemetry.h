// Telemetry bundle: one JSON document tying together the three obs layers —
// point-in-time metrics (MetricsRegistry), history (Recorder time series)
// and objectives (SloTracker) — written by `vcopt_cli serve/sim
// --telemetry-out` and rendered by `vcopt_cli stats`.  The bundle is the
// hand-off format between a run and later analysis: the stats dashboard,
// CI smoke checks and (eventually) the Rebalancer's collect step all read
// the same document.
#pragma once

#include <iosfwd>
#include <string>

#include "util/json.h"

namespace vcopt::obs {

class MetricsRegistry;
class Recorder;
class SloTracker;

/// {"schema":"vcopt-telemetry/1","now":T,"metrics":{...},
///  "timeseries":{...},"slo":{...}} — slo omitted when `slo` is null.
util::Json telemetry_bundle(const MetricsRegistry& metrics,
                            const Recorder& recorder, const SloTracker* slo,
                            double now, bool include_points = true);

bool write_telemetry_file(const std::string& path,
                          const MetricsRegistry& metrics,
                          const Recorder& recorder, const SloTracker* slo,
                          double now, bool include_points = true);

/// Renders the text dashboard from a telemetry bundle: per-stage service
/// latency (admit/queue/batch/solve/commit), time-series summaries
/// (per-node load, fragmentation, ...) and SLO burn-rate status.  Tolerates
/// bundles with missing sections (renders what is present).  Throws
/// std::invalid_argument when `bundle` is not a vcopt-telemetry/1 document.
void render_stats(const util::Json& bundle, std::ostream& out);

}  // namespace vcopt::obs
