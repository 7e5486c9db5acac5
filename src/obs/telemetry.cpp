#include "obs/telemetry.h"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "util/table.h"

namespace vcopt::obs {

util::Json telemetry_bundle(const MetricsRegistry& metrics,
                            const Recorder& recorder, const SloTracker* slo,
                            double now, bool include_points) {
  util::JsonObject o;
  o["schema"] = "vcopt-telemetry/1";
  o["now"] = now;
  o["metrics"] = metrics.snapshot_json();
  o["timeseries"] = recorder.export_json(include_points);
  if (slo != nullptr) o["slo"] = slo->snapshot_json(now);
  return util::Json(std::move(o));
}

bool write_telemetry_file(const std::string& path,
                          const MetricsRegistry& metrics,
                          const Recorder& recorder, const SloTracker* slo,
                          double now, bool include_points) {
  std::ofstream out(path);
  if (!out) return false;
  out << telemetry_bundle(metrics, recorder, slo, now, include_points).dump(2)
      << "\n";
  return bool(out);
}

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

void render_stage_latency(const util::Json& metrics, std::ostream& out) {
  if (!metrics.is_object() || !metrics.contains("histograms")) return;
  const util::JsonObject& hists = metrics.at("histograms").as_object();
  util::TableWriter t({"Stage", "Count", "Mean(ms)", "P50(ms)", "P90(ms)",
                       "P99(ms)", "Max(ms)"});
  const std::string prefix = "service/stage/";
  for (const auto& [name, h] : hists) {
    if (!starts_with(name, prefix)) continue;
    const double count = h.number_or("count", 0);
    if (count == 0) {
      t.row().cell(name.substr(prefix.size())).cell(0).cell("-").cell("-")
          .cell("-").cell("-").cell("-");
      continue;
    }
    // Stage histograms record seconds; the dashboard reads better in ms.
    const double ms = 1e3;
    t.row()
        .cell(name.substr(prefix.size()))
        .cell(static_cast<std::size_t>(count))
        .cell(h.number_or("mean", 0) * ms)
        .cell(h.number_or("p50", 0) * ms)
        .cell(h.number_or("p90", 0) * ms)
        .cell(h.number_or("p99", 0) * ms)
        .cell(h.number_or("max", 0) * ms);
  }
  if (t.row_count() == 0) return;
  out << "== Service stage latency ==\n";
  t.print(out);
  out << "\n";
}

void render_cells(const util::Json& metrics, std::ostream& out) {
  // cell/* counters: the route-then-place sharding layer (docs/cells.md;
  // absent until a routed run records).
  if (!metrics.is_object() || !metrics.contains("counters")) return;
  const util::Json& counters = metrics.at("counters");
  const double routed = counters.number_or("cell/routed", 0);
  const double updates = counters.number_or("cell/sketch_updates", 0);
  if (routed == 0 && updates == 0) return;
  util::TableWriter t({"Routed", "Pruned", "Unroutable", "Winner", "Spilled",
                       "FlatFallback", "WindowSpills"});
  t.row()
      .cell(static_cast<std::size_t>(routed))
      .cell(static_cast<std::size_t>(counters.number_or("cell/pruned", 0)))
      .cell(static_cast<std::size_t>(counters.number_or("cell/unroutable", 0)))
      .cell(static_cast<std::size_t>(
          counters.number_or("cell/placed_in_winner", 0)))
      .cell(static_cast<std::size_t>(counters.number_or("cell/spilled", 0)))
      .cell(static_cast<std::size_t>(
          counters.number_or("cell/fallback_flat", 0)))
      .cell(static_cast<std::size_t>(
          counters.number_or("cell/window_spills", 0)));
  out << "== Cells ==\n";
  t.print(out);
  util::TableWriter s({"Sketch updates", "Rebuilds"});
  s.row()
      .cell(static_cast<std::size_t>(updates))
      .cell(static_cast<std::size_t>(
          counters.number_or("cell/sketch_rebuilds", 0)));
  s.print(out);
  out << "\n";
}

void render_rebalancer(const util::Json& metrics, std::ostream& out) {
  // rebalance/* counters + the migration-gain histogram: the self-healing
  // rebalancer's round/migration ledger (absent until a rebalancer runs).
  if (!metrics.is_object() || !metrics.contains("counters")) return;
  const util::Json& counters = metrics.at("counters");
  const double rounds = counters.number_or("rebalance/rounds", 0);
  const double attempted =
      counters.number_or("rebalance/migrations_attempted", 0);
  if (rounds == 0 && attempted == 0) return;
  util::TableWriter t({"Rounds", "Deferred", "Attempted", "Committed",
                       "RolledBack", "Failed", "Disabled"});
  t.row()
      .cell(static_cast<std::size_t>(rounds))
      .cell(static_cast<std::size_t>(
          counters.number_or("rebalance/rounds_deferred", 0)))
      .cell(static_cast<std::size_t>(attempted))
      .cell(static_cast<std::size_t>(
          counters.number_or("rebalance/migrations_committed", 0)))
      .cell(static_cast<std::size_t>(
          counters.number_or("rebalance/migrations_rolled_back", 0)))
      .cell(static_cast<std::size_t>(
          counters.number_or("rebalance/migrations_failed", 0)))
      .cell(counters.number_or("rebalance/disabled", 0) > 0 ? "YES" : "no");
  out << "== Rebalancer ==\n";
  t.print(out);
  if (metrics.contains("histograms")) {
    const util::Json& hists = metrics.at("histograms");
    if (hists.is_object() && hists.contains("rebalance/migration_gain")) {
      const util::Json& h = hists.at("rebalance/migration_gain");
      const double count = h.number_or("count", 0);
      if (count > 0) {
        util::TableWriter g(
            {"Gain samples", "Mean", "P50", "P90", "P99", "Max"});
        g.row()
            .cell(static_cast<std::size_t>(count))
            .cell(h.number_or("mean", 0), 4)
            .cell(h.number_or("p50", 0), 4)
            .cell(h.number_or("p90", 0), 4)
            .cell(h.number_or("p99", 0), 4)
            .cell(h.number_or("max", 0), 4);
        g.print(out);
      }
    }
  }
  out << "\n";
}

void render_timeseries(const util::Json& ts, std::ostream& out) {
  if (!ts.is_object() || !ts.contains("series")) return;
  const util::JsonArray& series = ts.at("series").as_array();
  if (series.empty()) return;
  util::TableWriter t(
      {"Series", "Points", "Last", "Mean", "Min", "Max", "P50", "P99"});
  constexpr std::size_t kMaxRows = 64;
  std::size_t shown = 0;
  for (const util::Json& s : series) {
    if (shown >= kMaxRows) break;
    std::string label = s.at("name").as_string();
    if (s.contains("labels")) {
      const util::JsonObject& labels = s.at("labels").as_object();
      if (!labels.empty()) {
        label += '{';
        bool first = true;
        for (const auto& [k, v] : labels) {
          if (!first) label += ',';
          first = false;
          label += k + "=" + v.as_string();
        }
        label += '}';
      }
    }
    const util::Json& sum = s.at("summary");
    const double count = sum.number_or("count", 0);
    if (count == 0) {
      t.row().cell(label).cell(0).cell("-").cell("-").cell("-").cell("-")
          .cell("-").cell("-");
    } else {
      t.row()
          .cell(label)
          .cell(static_cast<std::size_t>(count))
          .cell(sum.number_or("last", 0))
          .cell(sum.number_or("mean", 0))
          .cell(sum.number_or("min", 0))
          .cell(sum.number_or("max", 0))
          .cell(sum.number_or("p50", 0))
          .cell(sum.number_or("p99", 0));
    }
    ++shown;
  }
  out << "== Time series (" << series.size() << " series";
  if (series.size() > shown) out << ", showing " << shown;
  out << ") ==\n";
  t.print(out);
  out << "\n";
}

void render_slo(const util::Json& slo, std::ostream& out) {
  if (!slo.is_object() || !slo.contains("slos")) return;
  const util::JsonArray& slos = slo.at("slos").as_array();
  if (slos.empty()) return;
  util::TableWriter t({"SLO", "Objective", "Bad/Total", "Short burn",
                       "Long burn", "Status"});
  bool any_alert = false;
  for (const util::Json& s : slos) {
    const bool alerting = s.contains("alerting") && s.at("alerting").as_bool();
    any_alert = any_alert || alerting;
    t.row()
        .cell(s.at("name").as_string())
        .cell(s.number_or("objective", 0), 4)
        .cell(util::format_double(s.number_or("bad", 0), 0) + "/" +
              util::format_double(s.number_or("total", 0), 0))
        .cell(s.number_or("short_burn", 0), 2)
        .cell(s.number_or("long_burn", 0), 2)
        .cell(alerting ? "ALERT" : "ok");
  }
  out << "== SLO status (t=" << util::format_double(slo.number_or("now", 0), 3)
      << ") ==\n";
  t.print(out);
  out << (any_alert ? "** burn-rate alert active **\n" : "all objectives ok\n");
  out << "\n";
}

}  // namespace

void render_stats(const util::Json& bundle, std::ostream& out) {
  if (!bundle.is_object() || !bundle.contains("schema") ||
      !bundle.at("schema").is_string() ||
      bundle.at("schema").as_string() != "vcopt-telemetry/1") {
    throw std::invalid_argument(
        "render_stats: not a vcopt-telemetry/1 bundle");
  }
  out << "vcopt telemetry @ t="
      << util::format_double(bundle.number_or("now", 0), 3) << "\n\n";
  if (bundle.contains("metrics")) {
    render_stage_latency(bundle.at("metrics"), out);
    render_cells(bundle.at("metrics"), out);
    render_rebalancer(bundle.at("metrics"), out);
  }
  if (bundle.contains("timeseries")) render_timeseries(bundle.at("timeseries"), out);
  if (bundle.contains("slo")) render_slo(bundle.at("slo"), out);
}

}  // namespace vcopt::obs
