#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/mutex.h"
#include "util/table.h"

namespace vcopt::obs {

void Gauge::set(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  util::MutexLock lock(mu_);
  value_ = v;
  max_ = touched_ ? std::max(max_, v) : v;
  touched_ = true;
}

void Gauge::add(double delta) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  util::MutexLock lock(mu_);
  value_ += delta;
  max_ = touched_ ? std::max(max_, value_) : value_;
  touched_ = true;
}

double Gauge::value() const {
  util::MutexLock lock(mu_);
  return value_;
}

double Gauge::max() const {
  util::MutexLock lock(mu_);
  return max_;
}

HistogramMetric::HistogramMetric(const std::atomic<bool>* enabled,
                                 std::vector<double> bounds)
    : enabled_(enabled), bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("HistogramMetric: no bucket bounds");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("HistogramMetric: bounds must be ascending");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void HistogramMetric::observe(double x) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  util::MutexLock lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  stats_.add(x);
}

std::size_t HistogramMetric::count() const {
  util::MutexLock lock(mu_);
  return stats_.count();
}

double HistogramMetric::quantile_locked(double p) const {
  const std::size_t n = stats_.count();
  if (n == 0) return 0;
  p = std::min(1.0, std::max(0.0, p));
  // Rank of the target sample (1-based), Prometheus-style: the smallest
  // cumulative count that covers fraction p of the population.
  const double target = p * static_cast<double>(n);
  double cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double prev = cumulative;
    cumulative += static_cast<double>(counts_[i]);
    if (cumulative < target || counts_[i] == 0) continue;
    // Bucket i spans (lower, upper]; interpolate linearly within it.  The
    // first bucket's lower edge and the overflow bucket's upper edge are
    // unknown, so substitute the observed min/max.
    const double lower = (i == 0) ? stats_.min() : bounds_[i - 1];
    const double upper = (i < bounds_.size()) ? bounds_[i] : stats_.max();
    const double frac = (target - prev) / static_cast<double>(counts_[i]);
    const double est = lower + (upper - lower) * frac;
    // Clamp to the observed range: bucket edges can lie outside the data.
    return std::min(stats_.max(), std::max(stats_.min(), est));
  }
  return stats_.max();
}

double HistogramMetric::quantile(double p) const {
  util::MutexLock lock(mu_);
  return quantile_locked(p);
}

double HistogramMetric::sum() const {
  util::MutexLock lock(mu_);
  return stats_.sum();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = [] {
    // Intentionally leaked process-lifetime singleton.
    auto* r = new MetricsRegistry();  // NOLINT(vcopt-raw-new)
    const char* env = std::getenv("VCOPT_METRICS");
    if (env != nullptr && env[0] != '\0' && std::string(env) != "0") {
      r->set_enabled(true);
    }
    return r;
  }();
  return *reg;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = counters_[name];
  // Private ctor: make_unique cannot be used here.
  if (!slot) slot.reset(new Counter(&enabled_));  // NOLINT(vcopt-raw-new)
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge(&enabled_));  // NOLINT(vcopt-raw-new)
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            std::vector<double> bounds) {
  util::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    auto* h = new HistogramMetric(  // NOLINT(vcopt-raw-new)
        &enabled_, std::move(bounds));
    slot.reset(h);
  }
  return *slot;
}

std::vector<double> MetricsRegistry::linear_buckets(double lo, double hi,
                                                    std::size_t n) {
  if (n == 0 || hi <= lo) {
    throw std::invalid_argument("linear_buckets: need n > 0 and hi > lo");
  }
  std::vector<double> out(n);
  const double width = (hi - lo) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + width * static_cast<double>(i + 1);
  }
  return out;
}

std::vector<double> MetricsRegistry::exponential_buckets(double start,
                                                         double factor,
                                                         std::size_t n) {
  if (n == 0 || start <= 0 || factor <= 1) {
    throw std::invalid_argument(
        "exponential_buckets: need n > 0, start > 0, factor > 1");
  }
  std::vector<double> out(n);
  double b = start;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = b;
    b *= factor;
  }
  return out;
}

void MetricsRegistry::reset() {
  util::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    Gauge* gp = g.get();  // raw alias: the analysis sees through locals
    util::MutexLock glock(gp->mu_);
    gp->value_ = 0;
    gp->max_ = 0;
    gp->touched_ = false;
  }
  for (auto& [name, h] : histograms_) {
    HistogramMetric* hp = h.get();
    util::MutexLock hlock(hp->mu_);
    std::fill(hp->counts_.begin(), hp->counts_.end(), 0);
    hp->stats_ = util::RunningStats{};
  }
}

util::Json MetricsRegistry::snapshot_json() const {
  util::MutexLock lock(mu_);
  util::JsonObject counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = util::Json(c->value());
  }
  util::JsonObject gauges;
  for (const auto& [name, g] : gauges_) {
    const Gauge* gp = g.get();
    util::MutexLock glock(gp->mu_);
    gauges[name] = util::Json(
        util::JsonObject{{"value", gp->value_}, {"max", gp->max_}});
  }
  util::JsonObject histograms;
  for (const auto& [name, h] : histograms_) {
    const HistogramMetric* hp = h.get();
    util::MutexLock hlock(hp->mu_);
    util::JsonArray buckets;
    for (std::size_t i = 0; i < hp->bounds_.size(); ++i) {
      buckets.push_back(util::Json(util::JsonObject{
          {"le", hp->bounds_[i]}, {"count", hp->counts_[i]}}));
    }
    buckets.push_back(util::Json(util::JsonObject{
        {"le", "inf"}, {"count", hp->counts_.back()}}));
    util::JsonObject entry{{"count", hp->stats_.count()},
                           {"sum", hp->stats_.sum()},
                           {"buckets", std::move(buckets)}};
    if (hp->stats_.count() > 0) {
      entry["mean"] = hp->stats_.mean();
      entry["min"] = hp->stats_.min();
      entry["max"] = hp->stats_.max();
      entry["stddev"] = hp->stats_.stddev();
      entry["p50"] = hp->quantile_locked(0.50);
      entry["p90"] = hp->quantile_locked(0.90);
      entry["p99"] = hp->quantile_locked(0.99);
    }
    histograms[name] = util::Json(std::move(entry));
  }
  return util::Json(util::JsonObject{{"counters", std::move(counters)},
                                     {"gauges", std::move(gauges)},
                                     {"histograms", std::move(histograms)}});
}

namespace {
// Histogram detail in significant digits rather than fixed decimals: stage
// histograms record seconds, and a 20 us stage must not print as 0.000.
std::string format_sig(double v) {
  std::ostringstream os;
  os << std::setprecision(4) << v;
  return os.str();
}
}  // namespace

std::string MetricsRegistry::render_table() const {
  util::TableWriter t({"Metric", "Kind", "Value", "Detail"});
  util::MutexLock lock(mu_);
  for (const auto& [name, c] : counters_) {
    t.row().cell(name).cell("counter").cell(c->value()).cell("");
  }
  for (const auto& [name, g] : gauges_) {
    const Gauge* gp = g.get();
    util::MutexLock glock(gp->mu_);
    t.row().cell(name).cell("gauge").cell(gp->value_, 3).cell(
        "max=" + util::format_double(gp->max_, 3));
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramMetric* hp = h.get();
    util::MutexLock hlock(hp->mu_);
    std::string detail;
    if (hp->stats_.count() > 0) {
      detail = "mean=" + format_sig(hp->stats_.mean()) +
               " min=" + format_sig(hp->stats_.min()) +
               " max=" + format_sig(hp->stats_.max());
    }
    t.row().cell(name).cell("histogram").cell(hp->stats_.count()).cell(detail);
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << snapshot_json().dump(2) << "\n";
  return bool(out);
}

std::string prometheus_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

std::string prometheus_label_key(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

std::string prometheus_escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {
// Prometheus sample value: JSON number formatting is deterministic and
// round-trips doubles, which is what the golden-file test pins down.
std::string prom_num(double v) { return util::Json(v).dump(0); }
}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  util::MutexLock lock(mu_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    const std::string metric = prometheus_metric_name(name);
    out << "# TYPE " << metric << " counter\n";
    out << metric << ' ' << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const Gauge* gp = g.get();
    util::MutexLock glock(gp->mu_);
    const std::string metric = prometheus_metric_name(name);
    out << "# TYPE " << metric << " gauge\n";
    out << metric << ' ' << prom_num(gp->value_) << "\n";
    out << "# TYPE " << metric << "_max gauge\n";
    out << metric << "_max " << prom_num(gp->max_) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramMetric* hp = h.get();
    util::MutexLock hlock(hp->mu_);
    const std::string metric = prometheus_metric_name(name);
    out << "# TYPE " << metric << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < hp->bounds_.size(); ++i) {
      cumulative += hp->counts_[i];
      out << metric << "_bucket{le=\"" << prom_num(hp->bounds_[i]) << "\"} "
          << cumulative << "\n";
    }
    cumulative += hp->counts_.back();
    out << metric << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    out << metric << "_sum " << prom_num(hp->stats_.sum()) << "\n";
    out << metric << "_count " << hp->stats_.count() << "\n";
  }
  return out.str();
}

namespace {
std::string g_sidecar_path;  // set once by register_metrics_sidecar
std::string g_sidecar_name;
}

bool write_metrics_sidecar_file(const MetricsRegistry& registry,
                                const std::string& path,
                                const std::string& bench_name) {
  std::ofstream out(path);
  if (!out) return false;
  util::JsonObject o;
  o["schema"] = "vcopt-metrics-sidecar/1";
  o["bench"] = bench_name;
  o["metrics"] = registry.snapshot_json();
  out << util::Json(std::move(o)).dump(2) << "\n";
  return bool(out);
}

void register_metrics_sidecar(const std::string& id) {
  if (!MetricsRegistry::global().enabled() || !g_sidecar_path.empty()) return;
  std::string slug;
  for (const char ch : id) {
    slug += (std::isalnum(static_cast<unsigned char>(ch)) != 0) ? ch : '_';
  }
  if (slug.empty()) slug = "bench";
  g_sidecar_path = slug + ".metrics.json";
  g_sidecar_name = id;
  std::atexit([] {
    write_metrics_sidecar_file(MetricsRegistry::global(), g_sidecar_path,
                               g_sidecar_name);
  });
}

}  // namespace vcopt::obs
