// Served-path benchmark driver.  Serves an open-loop churn stream through
// service::PlacementService on the virtual clock, from one thread, as fast
// as the service accepts it, and reports what a user of the service sees.
//
//   servebench_driver serve --workload W --seed S --seconds T
//       Set-up (repeated), warm-up, then the timed phase.  Prints the
//       end-to-end metrics, raw and host-corrected, with failure accounting.
//   servebench_driver check --workload W --seed S --requests N
//                           --journal-bytes B --journal-hash H
//                           [--trace 1 --untraced-us U --spans-out FILE]
//       Serves the same N requests again with every correctness gate on,
//       replays the journal, and with --trace 1 replays it once more through
//       the layers' public functions with spans around each call.
//
// Each mode prints one JSON object as its last line of standard output.
// NOTES.md explains the workloads, the probe and the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/directory.h"
#include "cell/router.h"
#include "cluster/cloud.h"
#include "cluster/sampler.h"
#include "cluster/snapshot.h"
#include "gates.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "stats.h"
#include "traffic.h"
#include "util/json.h"
#include "util/thread_pool.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SERVEBENCH_COMPILER
#define SERVEBENCH_COMPILER "unknown"
#endif

namespace servebench {
namespace {

using vcopt::cluster::Cloud;
using vcopt::cluster::LeaseId;
using vcopt::service::Outcome;
using vcopt::service::OutcomeKind;
using vcopt::util::Json;
using vcopt::util::JsonArray;
using vcopt::util::JsonObject;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Host-speed probe

/// Operations per probe run: about 0.3 ms on the reference host.
constexpr int kProbeOps = 1250;
/// The probe's median duration on the reference host (4-vCPU VM, GCC 12,
/// Release).  Corrected timings are raw * kProbeReferenceUs / local probe,
/// so they read in that host's microseconds.
constexpr double kProbeReferenceUs = 300.0;
/// A probe runs once at least this many service calls and this much wall
/// time have passed since the previous one.
constexpr std::size_t kProbeEveryCalls = 32;
constexpr std::int64_t kProbeMinGapNs = 2'000'000;

volatile std::uint64_t g_probe_sink = 0;

/// The reference kernel: allocator churn of small vectors plus ordered-map
/// insert/erase, the same mix of work the service's hot paths do.  Fixed
/// work on every run.
std::uint64_t probe_kernel() {
  std::map<std::uint32_t, std::vector<std::uint32_t>> m;
  Rng rng(0x70726f6265ULL);
  std::uint64_t acc = 0;
  for (int i = 0; i < kProbeOps; ++i) {
    const std::uint64_t x = rng.next();
    std::vector<std::uint32_t> v(4 + (x & 15), static_cast<std::uint32_t>(x));
    m.insert_or_assign(static_cast<std::uint32_t>(x >> 32) & 1023u,
                       std::move(v));
    auto it = m.lower_bound(static_cast<std::uint32_t>(x >> 20) & 1023u);
    if (it != m.end()) {
      acc += it->second.size();
      m.erase(it);
    }
  }
  return acc + m.size();
}

double run_probe_us() {
  const std::int64_t t0 = now_ns();
  g_probe_sink = g_probe_sink + probe_kernel();
  return static_cast<double>(now_ns() - t0) * 1e-3;
}

/// Service-call timings of one phase, attributed to probe segments.
class Timeline {
 public:
  struct DecidingCall {
    float raw_us = 0;
    std::uint32_t segment = 0;
    std::uint32_t outcomes = 0;
  };

  /// `deciding_capacity` slots for calls that produced outcomes are touched
  /// up front, so the process's RSS does not depend on how many calls a
  /// run makes.
  explicit Timeline(std::size_t deciding_capacity)
      : corr_(kProbeReferenceUs), deciding_(deciding_capacity) {
    seg_raw_us_.reserve(1 << 16);
    seg_raw_us_.push_back(0);
    last_probe_ns_ = now_ns();
  }

  void record(std::int64_t raw_ns, std::size_t outcomes) {
    const double us = static_cast<double>(raw_ns) * 1e-3;
    seg_raw_us_.back() += us;
    if (outcomes > 0) {
      if (n_deciding_ < deciding_.size()) {
        deciding_[n_deciding_++] = {static_cast<float>(us), segment(),
                                    static_cast<std::uint32_t>(outcomes)};
      }
      decisions_ += outcomes;
    }
    ++calls_;
    if (++since_probe_ >= kProbeEveryCalls &&
        now_ns() - last_probe_ns_ >= kProbeMinGapNs) {
      probe();
    }
  }

  void probe() {
    corr_.add_probe(run_probe_us());
    seg_raw_us_.push_back(0);
    since_probe_ = 0;
    last_probe_ns_ = now_ns();
  }

  bool full() const {
    return !deciding_.empty() && n_deciding_ == deciding_.size();
  }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t calls() const { return calls_; }
  const ProbeCorrector& corrector() const { return corr_; }

  double raw_total_us() const {
    double s = 0;
    for (double x : seg_raw_us_) s += x;
    return s;
  }
  double corrected_total_us() const {
    double s = 0;
    for (std::size_t k = 0; k < seg_raw_us_.size(); ++k) {
      s += corr_.correct(seg_raw_us_[k], k);
    }
    return s;
  }
  /// Per-decision latency: each outcome gets the time of the call that
  /// produced it.
  std::vector<double> latencies_us(bool corrected) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < n_deciding_; ++i) {
      const DecidingCall& c = deciding_[i];
      const double v = corrected ? corr_.correct(c.raw_us, c.segment)
                                 : static_cast<double>(c.raw_us);
      out.insert(out.end(), c.outcomes, v);
    }
    return out;
  }
  /// Calls that produced at least one outcome.
  std::size_t deciding_calls() const { return n_deciding_; }

 private:
  std::uint32_t segment() const {
    return static_cast<std::uint32_t>(corr_.probe_count());
  }

  ProbeCorrector corr_;
  std::vector<double> seg_raw_us_;
  std::vector<DecidingCall> deciding_;
  std::size_t n_deciding_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t calls_ = 0;
  std::size_t since_probe_ = 0;
  std::int64_t last_probe_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Serving

vcopt::service::ServiceOptions service_options(const WorkloadSpec& spec) {
  vcopt::service::ServiceOptions o;
  o.max_batch = spec.max_batch;
  o.max_wait = spec.max_wait_arrivals * kMeanInterarrival;
  o.queue_capacity = std::size_t{1} << 20;  // admission never refuses
  o.sample_period = 0.5 * kMeanInterarrival;  // fires at every window close
  o.cells = spec.cells;
  return o;
}

/// Request counts of one phase, by what happened to them.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_full = 0;
  std::array<std::uint64_t, 7> outcomes{};  // indexed by OutcomeKind
  std::uint64_t harness_errors = 0;

  std::uint64_t failed() const {
    return shed + queue_full + harness_errors;
  }
  Json to_json() const {
    JsonObject kinds;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      kinds[vcopt::service::to_string(static_cast<OutcomeKind>(k))] =
          Json(static_cast<double>(outcomes[k]));
    }
    JsonObject o;
    o["sent"] = static_cast<double>(sent);
    o["admission"] = JsonObject{{"accepted", static_cast<double>(accepted)},
                                {"shed", static_cast<double>(shed)},
                                {"queue-full", static_cast<double>(queue_full)}};
    o["outcomes"] = std::move(kinds);
    o["harness_errors"] = static_cast<double>(harness_errors);
    return o;
  }
};

bool fully_granted(OutcomeKind k) {
  return k == OutcomeKind::kGranted || k == OutcomeKind::kDegraded;
}

/// Warm-up / timed-phase bookkeeping every serving pass shares: tallies,
/// the exact-cover gate and the quality window.
class Accounting {
 public:
  explicit Accounting(const WorkloadSpec& spec)
      : warmup_(spec.warmup_requests),
        quality_end_(spec.warmup_requests + spec.quality_requests) {}

  void submitted(const vcopt::cluster::Request& r,
                 const vcopt::service::SubmitReceipt& rc) {
    Tally& t = phase(r.id());
    ++t.sent;
    switch (rc.admission) {
      case vcopt::service::AdmissionStatus::kAccepted:
        ++t.accepted;
        cover_.accepted(rc.seq);
        break;
      case vcopt::service::AdmissionStatus::kShed: ++t.shed; break;
      case vcopt::service::AdmissionStatus::kQueueFull: ++t.queue_full; break;
    }
  }
  void outcome(const Outcome& o) {
    ++phase(o.request_id).outcomes[static_cast<std::size_t>(o.kind)];
    cover_.outcome(o.seq);
    if (o.request_id > warmup_ && o.request_id <= quality_end_) {
      ++quality_decided_;
      if (fully_granted(o.kind)) {
        ++quality_granted_;
        quality_dc_ += o.distance;
      }
    }
  }
  void harness_error(std::uint64_t request_id) {
    ++phase(request_id).harness_errors;
  }

  const Tally& warmup() const { return warm_; }
  const Tally& timed() const { return timed_; }
  std::size_t cover_violations() const { return cover_.violations(); }
  std::uint64_t quality_decided() const { return quality_decided_; }
  double granted_share() const {
    const std::uint64_t n = quality_end_ - warmup_;
    return n == 0 ? 0 : static_cast<double>(quality_granted_) / n;
  }
  double mean_dc() const {
    return quality_granted_ == 0 ? 0 : quality_dc_ / quality_granted_;
  }

 private:
  Tally& phase(std::uint64_t request_id) {
    return request_id <= warmup_ ? warm_ : timed_;
  }
  std::uint64_t warmup_;
  std::uint64_t quality_end_;
  Tally warm_;
  Tally timed_;
  ExactCover cover_;
  std::uint64_t quality_decided_ = 0;
  std::uint64_t quality_granted_ = 0;
  double quality_dc_ = 0;
};

/// One cloud + service fed by the arrival stream.  Releases are due at
/// decide time + hold and are issued, in time order, before any later
/// arrival.  Every service call goes through `hook.call`, which runs it and
/// returns the outcomes the call produced.
class Session {
 public:
  Session(const Inputs& in, bool keep_journal)
      : sink_(keep_journal),
        journal_(&sink_),
        stream_(in) {
    if (in.spec().recorder) recorder_.set_enabled(true);
    options_ = service_options(in.spec());
    options_.journal = &journal_;
    options_.recorder = in.spec().recorder ? &recorder_ : nullptr;
    cloud_ = std::make_unique<Cloud>(in.make_cloud());
    service_ =
        std::make_unique<vcopt::service::PlacementService>(*cloud_, options_);
  }

  template <class Hook>
  void serve_next(Hook& hook) {
    const Arrival a = stream_.next();
    while (!releases_.empty() && releases_.top().t <= a.time) {
      const Due due = releases_.top();
      releases_.pop();
      advance(due.t, hook);
      hook.before_release(due.lease, *cloud_);
      hook.call([&] {
        service_->release(due.lease);
        return std::vector<Outcome>{};
      });
    }
    advance(a.time, hook);
    holds_.emplace(a.request.id(), a.hold);
    vcopt::service::SubmitReceipt rc;
    std::vector<Outcome> outs = hook.call([&] {
      rc = service_->submit(a.request);
      return service_->take_outcomes();
    });
    hook.submitted(a.request, rc);
    if (rc.admission != vcopt::service::AdmissionStatus::kAccepted) {
      holds_.erase(a.request.id());
    }
    handle(outs, hook);
  }

  /// stop(): flushes every pending window.
  template <class Hook>
  void finish(Hook& hook) {
    handle(hook.call([&] {
      service_->stop();
      return service_->take_outcomes();
    }),
           hook);
  }

  std::uint64_t issued() const { return stream_.issued(); }
  const Cloud& cloud() const { return *cloud_; }
  const HashingSink& journal() const { return sink_; }
  const vcopt::obs::Recorder& recorder() const { return recorder_; }
  const vcopt::service::ServiceOptions& options() const { return options_; }

 private:
  struct Due {
    double t = 0;
    LeaseId lease = 0;
    bool operator>(const Due& o) const {
      return t != o.t ? t > o.t : lease > o.lease;
    }
  };

  template <class Hook>
  void advance(double t, Hook& hook) {
    handle(hook.call([&] {
      service_->advance_to(t);
      return service_->take_outcomes();
    }),
           hook);
  }

  template <class Hook>
  void handle(const std::vector<Outcome>& outs, Hook& hook) {
    for (const Outcome& o : outs) {
      hook.outcome(o, *cloud_);
      const auto it = holds_.find(o.request_id);
      if (it == holds_.end()) {
        throw std::logic_error("outcome for request " +
                               std::to_string(o.request_id) +
                               " that is not pending");
      }
      if (vcopt::service::has_lease(o.kind)) {
        releases_.push({o.decide_time + it->second, o.lease});
      }
      holds_.erase(it);
    }
  }

  HashingSink sink_;
  std::ostream journal_;
  vcopt::obs::Recorder recorder_;
  vcopt::service::ServiceOptions options_;
  std::unique_ptr<Cloud> cloud_;
  std::unique_ptr<vcopt::service::PlacementService> service_;
  Inputs::Stream stream_;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> releases_;
  std::unordered_map<std::uint64_t, double> holds_;
};

/// Hook for the untraced passes: times every call into a Timeline.
struct TimedHook {
  Timeline* timeline = nullptr;  // null = untimed
  Accounting* acct = nullptr;

  template <class F>
  std::vector<Outcome> call(F&& f) {
    if (timeline == nullptr) return f();
    const std::int64_t t0 = now_ns();
    std::vector<Outcome> outs = f();
    timeline->record(now_ns() - t0, outs.size());
    return outs;
  }
  void before_release(LeaseId, const Cloud&) {}
  void submitted(const vcopt::cluster::Request& r,
                 const vcopt::service::SubmitReceipt& rc) {
    acct->submitted(r, rc);
  }
  void outcome(const Outcome& o, const Cloud&) { acct->outcome(o); }
};

/// Serves the next arrival.  An exception escaping the service or the
/// harness counts as a harness error of the request's phase and ends the
/// pass (the run is then incorrect).
template <class Hook>
bool serve_guarded(Session& s, Hook& hook, Accounting& acct,
                   std::string& error) {
  try {
    s.serve_next(hook);
    return true;
  } catch (const std::exception& e) {
    acct.harness_error(s.issued());
    error = e.what();
    return false;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Json metric(double value, const char* unit) {
  return JsonObject{{"value", value}, {"unit", unit}};
}

Json probe_json(const ProbeCorrector& c) {
  return JsonObject{{"runs", static_cast<double>(c.probe_count())},
                    {"median_us", median(c.probes())},
                    {"iqr_share", iqr_share(c.probes())},
                    {"reference_us", c.reference()}};
}

// ---------------------------------------------------------------------------
// serve: the untraced, timed pass

int run_serve(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  const Inputs in(spec, seed);
  int peak_threads = thread_count();
  std::vector<double> setup_s, setup_raw_s;
  std::vector<double> setup_probes;
  std::unique_ptr<Session> session;
  std::unique_ptr<Accounting> acct;
  std::string error;

  // Set-up: construct cloud, cells and service, then warm up.  Repeated;
  // the last set-up's session carries on into the timed phase.
  for (int r = 0; r < spec.setup_repeats && error.empty(); ++r) {
    session.reset();
    acct = std::make_unique<Accounting>(spec);
    Timeline tl(0);
    tl.probe();
    const std::int64_t t0 = now_ns();
    session = std::make_unique<Session>(in, /*keep_journal=*/false);
    tl.record(now_ns() - t0, 0);
    TimedHook hook{&tl, acct.get()};
    while (session->issued() < spec.warmup_requests &&
           serve_guarded(*session, hook, *acct, error)) {
    }
    tl.probe();
    setup_s.push_back(tl.corrected_total_us() * 1e-6);
    setup_raw_s.push_back(tl.raw_total_us() * 1e-6);
    for (double p : tl.corrector().probes()) setup_probes.push_back(p);
    peak_threads = std::max(peak_threads, thread_count());
  }

  // Timed phase: at least `seconds` of wall time and the quality window.
  Timeline timed(std::size_t{1} << 19);
  TimedHook hook{&timed, acct.get()};
  timed.probe();
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t quality_end = spec.warmup_requests + spec.quality_requests;
  while (error.empty() && !timed.full() &&
         (now_ns() - start < budget || session->issued() < quality_end) &&
         serve_guarded(*session, hook, *acct, error)) {
  }
  timed.probe();
  const double wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  const std::uint64_t served = session->issued();
  TimedHook untimed{nullptr, acct.get()};
  if (error.empty()) {
    try {
      session->finish(untimed);
    } catch (const std::exception& e) {
      acct->harness_error(session->issued());
      error = e.what();
    }
  }
  peak_threads = std::max(peak_threads, thread_count());
  const double rss_mb = peak_rss_mb();
  if (!error.empty() || timed.decisions() == 0) {
    JsonObject out;
    out["mode"] = "serve";
    out["correct"] = false;
    out["error"] = error.empty() ? "no decisions in the timed phase" : error;
    out["phases"] = JsonObject{{"warmup", acct->warmup().to_json()},
                               {"timed", acct->timed().to_json()}};
    std::cout << Json(std::move(out)).dump(0) << "\n";
    return 1;
  }

  const std::vector<double> lat = timed.latencies_us(true);
  const std::vector<double> lat_raw = timed.latencies_us(false);
  const double total_us = timed.corrected_total_us();
  const double raw_us = timed.raw_total_us();
  const double decisions = static_cast<double>(timed.decisions());

  // Capacity and latency over the whole timed phase.
  JsonObject metrics;
  metrics["capacity_dps"] = metric(decisions / (total_us * 1e-6), "1/s");
  metrics["decide_us_p50"] = metric(quantile(lat, 0.50), "us");
  metrics["decide_us_p99"] = metric(quantile(lat, 0.99), "us");
  metrics["mean_dc"] = metric(acct->mean_dc(), "distance");
  metrics["granted_share"] = metric(acct->granted_share(), "share");
  metrics["peak_rss_mb"] = metric(rss_mb, "MB");
  metrics["setup_s"] = metric(median(setup_s), "s");
  JsonObject raw;
  raw["capacity_dps"] = metric(decisions / (raw_us * 1e-6), "1/s");
  raw["decide_us_p50"] = metric(quantile(lat_raw, 0.50), "us");
  raw["decide_us_p99"] = metric(quantile(lat_raw, 0.99), "us");
  raw["setup_s"] = metric(median(setup_raw_s), "s");

  JsonObject gates;
  gates["exact_cover"] = acct->cover_violations() == 0;
  gates["quality_window_decided"] =
      acct->quality_decided() == spec.quality_requests;
  const bool ok = acct->cover_violations() == 0 &&
                  acct->quality_decided() == spec.quality_requests &&
                  acct->timed().failed() == 0 && acct->warmup().failed() == 0;

  JsonObject out;
  out["mode"] = "serve";
  out["workload"] = spec.name;
  out["seed"] = static_cast<double>(seed);
  out["correct"] = ok;
  out["metrics"] = std::move(metrics);
  out["raw"] = std::move(raw);
  out["setup_s_runs"] = JsonArray(setup_s.begin(), setup_s.end());
  out["setup_s_raw_runs"] = JsonArray(setup_raw_s.begin(), setup_raw_s.end());
  out["setup_probe"] = JsonObject{{"median_us", median(setup_probes)},
                                  {"iqr_share", iqr_share(setup_probes)},
                                  {"runs", static_cast<double>(setup_probes.size())}};
  out["probe"] = probe_json(timed.corrector());
  out["decide_samples"] = static_cast<double>(lat.size());
  out["beyond_p99"] = static_cast<double>(count_beyond(lat, 0.99));
  out["deciding_calls"] = static_cast<double>(timed.deciding_calls());
  out["timed_calls"] = static_cast<double>(timed.calls());
  out["timed_wall_s"] = wall_s;
  out["timed_service_s"] = total_us * 1e-6;
  out["timed_service_raw_s"] = raw_us * 1e-6;
  out["untraced_us_per_decision"] = total_us / decisions;
  out["untraced_us_per_decision_raw"] = raw_us / decisions;
  out["requests_served"] = static_cast<double>(served);
  out["phases"] = JsonObject{{"warmup", acct->warmup().to_json()},
                             {"timed", acct->timed().to_json()}};
  out["attempted"] = static_cast<double>(acct->timed().sent);
  out["failed"] = static_cast<double>(acct->timed().failed());
  out["journal"] =
      JsonObject{{"bytes", static_cast<double>(session->journal().bytes())},
                 {"hash", hex64(session->journal().hash())}};
  out["gates"] = std::move(gates);
  out["threads_peak"] = peak_threads;
  out["pool_workers"] =
      static_cast<double>(vcopt::util::ThreadPool::global().size());
  out["build_type"] = SERVEBENCH_BUILD_TYPE;
  out["compiler"] = SERVEBENCH_COMPILER;
  std::cout << Json(std::move(out)).dump(0) << "\n";
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// check: the same stream again, with every correctness gate on

/// Hook for the check pass: no timing; checks every grant against the
/// benchmark's own capacity books and Definition 1, and keeps the outcomes.
struct CheckHook {
  Accounting* acct = nullptr;
  CapacityLedger* ledger = nullptr;
  std::vector<Outcome>* served = nullptr;
  std::uint64_t over_capacity = 0;
  std::uint64_t dc_mismatch = 0;
  std::uint64_t size_mismatch = 0;

  template <class F>
  std::vector<Outcome> call(F&& f) {
    return f();
  }
  void before_release(LeaseId lease, const Cloud& cloud) {
    ledger->give(cloud.lease_allocation(lease));
  }
  void submitted(const vcopt::cluster::Request& r,
                 const vcopt::service::SubmitReceipt& rc) {
    acct->submitted(r, rc);
  }
  void outcome(const Outcome& o, const Cloud& cloud) {
    acct->outcome(o);
    served->push_back(o);
    if (!vcopt::service::has_lease(o.kind)) return;
    const vcopt::cluster::Allocation& a = cloud.lease_allocation(o.lease);
    if (!ledger->take(a)) ++over_capacity;
    const int expect = fully_granted(o.kind) ? o.requested_vms : o.granted_vms;
    if (a.total_vms() != o.granted_vms || a.total_vms() != expect) {
      ++size_mismatch;
    }
    if (definition1(a, cloud.topology()) != o.distance) ++dc_mismatch;
  }
};

enum Layer {
  kRoute,
  kSketch,
  kSnapshot,
  kPlan,
  kGrant,
  kRelease,
  kSample,
  kJournal,
  kLayerCount
};
constexpr const char* kLayerName[kLayerCount] = {
    "cell.route",    "cell.sketch",     "cluster.snapshot", "service.plan",
    "cluster.grant", "cluster.release", "cluster.sample",   "service.journal"};

/// In-memory spans of the traced replay, attributed to probe segments the
/// same way service calls are in the untraced pass.  Only records of the
/// timed phase are kept.
class LayerClock {
 public:
  struct Span {
    std::uint64_t trace = 0;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    Layer layer = kRoute;
  };

  LayerClock() : corr_(kProbeReferenceUs) {
    seg_us_.push_back({});
    spans_.reserve(std::size_t{1} << 20);
  }

  bool active() const { return active_; }
  void start() {
    active_ = true;
    probe();
  }

  /// One timed region; `op` says whether it counts as one operation of the
  /// layer (a maybe_sample that took no sample costs time but is no sample).
  void add(Layer layer, std::uint64_t trace, std::int64_t t0,
           std::int64_t dur_ns, bool op = true) {
    if (!active_) return;
    seg_us_.back()[layer] += static_cast<double>(dur_ns) * 1e-3;
    if (op) ++ops_[layer];
    ++regions_;
    spans_.push_back({trace, t0, dur_ns, layer});
  }
  void between_records() {
    if (active_ && ++since_probe_ >= kProbeEveryCalls &&
        now_ns() - last_probe_ns_ >= kProbeMinGapNs) {
      probe();
    }
  }
  void probe() {
    corr_.add_probe(run_probe_us());
    seg_us_.push_back({});
    since_probe_ = 0;
    last_probe_ns_ = now_ns();
  }

  double corrected_us(Layer layer) const {
    double s = 0;
    for (std::size_t k = 0; k < seg_us_.size(); ++k) {
      s += corr_.correct(seg_us_[k][layer], k);
    }
    return s;
  }
  std::uint64_t ops(Layer layer) const { return ops_[layer]; }
  std::uint64_t regions() const { return regions_; }
  const ProbeCorrector& corrector() const { return corr_; }

  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "layer,trace_id,start_ns,dur_ns\n";
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      out << kLayerName[s.layer] << ',' << hex64(s.trace) << ','
          << s.start_ns - base << ',' << s.dur_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  bool active_ = false;
  ProbeCorrector corr_;
  std::vector<std::array<double, kLayerCount>> seg_us_;
  std::array<std::uint64_t, kLayerCount> ops_{};
  std::uint64_t regions_ = 0;
  std::vector<Span> spans_;
  std::size_t since_probe_ = 0;
  std::int64_t last_probe_ns_ = 0;
};

/// Forwards capacity mutations to the cell directory, timing each update as
/// a sketch span; grant/release spans subtract the time spent in here.
class TimedListener : public vcopt::cluster::CapacityListener {
 public:
  TimedListener(vcopt::cell::CellDirectory& dir, LayerClock& clock)
      : dir_(dir), clock_(clock) {}
  void on_capacity_changed(const Cloud& cloud,
                           const std::vector<std::size_t>& nodes) override {
    const std::int64_t t0 = now_ns();
    dir_.on_capacity_changed(cloud, nodes);
    const std::int64_t dur = now_ns() - t0;
    inside_ns += dur;
    clock_.add(kSketch, trace, t0, dur);
  }
  std::int64_t inside_ns = 0;
  std::uint64_t trace = 0;

 private:
  vcopt::cell::CellDirectory& dir_;
  LayerClock& clock_;
};

constexpr const char* kCounterNames[] = {
    "cell/window_spills",           "cell/pruned",
    "cell/routed",                  "cell/unroutable",
    "placement/candidates_evaluated", "placement/candidates_pruned",
    "placement/placements",         "placement/infeasible",
    "placement/transfer_pairs_scanned", "placement/transfers_applied",
    "placement/transfers_attempted"};
constexpr std::size_t kCounterCount = std::size(kCounterNames);

std::array<std::uint64_t, kCounterCount> read_counters() {
  std::array<std::uint64_t, kCounterCount> v{};
  auto& reg = vcopt::obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    v[i] = reg.counter(kCounterNames[i]).value();
  }
  return v;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Cost of one steady_clock read, the overhead each timed region adds.
double timer_cost_us() {
  constexpr int kReads = 200000;
  const std::int64_t t0 = now_ns();
  std::int64_t sink = 0;
  for (int i = 0; i < kReads; ++i) sink += now_ns() & 1;
  const std::int64_t t1 = now_ns();
  g_probe_sink = g_probe_sink + static_cast<std::uint64_t>(sink);
  return static_cast<double>(t1 - t0) * 1e-3 / kReads;
}

struct TraceResult {
  bool ok = false;
  JsonObject gates;
  JsonObject layers;
  JsonObject detail;
};

/// Replays the served journal through the layers' public functions with a
/// span around each call, re-emits every record, and checks that the grant
/// stream, the journal, the routes and the sampler's series all come out
/// byte for byte as served.
TraceResult traced_replay(const Inputs& in,
                          const vcopt::service::ServiceOptions& options,
                          const std::vector<vcopt::service::JournalRecord>& records,
                          const std::string& served_journal,
                          const std::string& served_grants,
                          const std::string& served_series,
                          std::uint64_t first_timed_seq, double untraced_us,
                          const std::string& spans_out) {
  namespace svc = vcopt::service;
  const double timer_us = timer_cost_us();
  auto& reg = vcopt::obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);

  LayerClock clock;
  auto cloud = std::make_unique<Cloud>(in.make_cloud());
  std::unique_ptr<vcopt::cell::CellDirectory> dir;
  std::unique_ptr<TimedListener> fwd;
  std::vector<std::vector<int>> cap_sums;
  vcopt::cell::CellRouterOptions ro;
  ro.shortlist = std::max<std::size_t>(1, options.route_shortlist);
  const vcopt::cell::CellRouter router(ro);
  if (options.cell_mode()) {
    vcopt::cell::CellPartitionOptions po;
    po.target_cells = options.cells;
    po.cell_size = options.cell_size;
    dir = std::make_unique<vcopt::cell::CellDirectory>(*cloud, po);
    fwd = std::make_unique<TimedListener>(*dir, clock);
    cloud->set_capacity_listener(fwd.get());
    cap_sums = svc::detail::cell_capacity_sums(dir->partition(), *cloud);
  }
  vcopt::obs::Recorder recorder;
  recorder.set_enabled(true);
  std::unique_ptr<vcopt::cluster::ClusterSampler> sampler;
  if (options.recorder != nullptr) {
    vcopt::cluster::ClusterSamplerOptions so;
    so.period = options.sample_period;
    sampler =
        std::make_unique<vcopt::cluster::ClusterSampler>(*cloud, recorder, so);
  }
  HashingSink sink(/*keep=*/true);
  std::ostream journal_out(&sink);
  svc::JournalWriter writer(journal_out);

  std::map<std::uint64_t, svc::PendingEntry> pending;
  std::unordered_map<LeaseId, std::uint64_t> lease_trace;
  std::vector<Outcome> outcomes;
  outcomes.reserve(records.size() / 2);
  std::array<std::uint64_t, kCounterCount> counters0{};
  std::uint64_t bytes0 = 0;
  std::uint64_t decisions = 0, windows = 0, members = 0, samples = 0;
  std::uint64_t route_mismatch = 0;
  double queue_wait_s = 0;
  double last_sample_t = -1;

  const auto take = [&](std::uint64_t seq) {
    const auto it = pending.find(seq);
    if (it == pending.end()) {
      throw std::runtime_error("journal names seq " + std::to_string(seq) +
                               " with no pending submit");
    }
    svc::PendingEntry e = std::move(it->second);
    pending.erase(it);
    return e;
  };
  const auto sample = [&](double t, std::uint64_t trace) {
    if (!sampler) return;
    const std::int64_t t0 = now_ns();
    const bool took = sampler->maybe_sample(t);
    clock.add(kSample, trace, t0, now_ns() - t0, took);
    if (took) {
      last_sample_t = t;
      if (clock.active()) ++samples;
    }
  };

  for (const svc::JournalRecord& r : records) {
    if (!clock.active() && r.type == svc::RecordType::kSubmit &&
        r.seq >= first_timed_seq) {
      counters0 = read_counters();
      bytes0 = sink.bytes();
      clock.start();
    }
    switch (r.type) {
      case svc::RecordType::kSubmit: {
        svc::PendingEntry e{r.request, r.options, r.seq, r.time, r.trace_id};
        if (dir) {
          const std::int64_t t0 = now_ns();
          const vcopt::cell::RouteDecision d = router.route(e.request, *dir);
          clock.add(kRoute, r.trace_id, t0, now_ns() - t0);
          if (!d.shortlist.empty()) e.cell = d.shortlist.front();
        }
        const std::int64_t t0 = now_ns();
        writer.submit(r.seq, r.request, r.options, r.time, r.trace_id);
        clock.add(kJournal, r.trace_id, t0, now_ns() - t0);
        pending.emplace(r.seq, std::move(e));
        break;
      }
      case svc::RecordType::kWindow: {
        std::vector<svc::PendingEntry> shed, mem;
        for (std::uint64_t seq : r.shed) shed.push_back(take(seq));
        for (std::uint64_t seq : r.members) mem.push_back(take(seq));
        for (const svc::PendingEntry& e : mem) {
          if (e.cell != r.cell) ++route_mismatch;
        }
        const std::uint64_t trace = !mem.empty()    ? mem.front().trace_id
                                    : !shed.empty() ? shed.front().trace_id
                                                    : 0;
        std::int64_t t0 = now_ns();
        writer.window(r.window_id, r.time, r.reason.c_str(), r.members,
                      r.shed, r.cell);
        clock.add(kJournal, trace, t0, now_ns() - t0);
        vcopt::cluster::SnapshotArena arena;
        t0 = now_ns();
        const std::shared_ptr<const vcopt::cluster::CloudSnapshot> snap =
            arena.build(*cloud, 0, r.time);
        clock.add(kSnapshot, trace, t0, now_ns() - t0);
        svc::detail::CellPlanContext ctx;
        if (dir) {
          ctx.partition = &dir->partition();
          ctx.capacity_col_sums = &cap_sums;
          ctx.cell = r.cell;
        }
        t0 = now_ns();
        svc::detail::WindowPlan plan =
            svc::detail::plan_window(*snap, shed, mem, r.window_id, r.time,
                                     options, dir ? &ctx : nullptr);
        clock.add(kPlan, trace, t0, now_ns() - t0);
        for (svc::detail::PlannedGrant& g : plan.grants) {
          Outcome& o = plan.outcomes[g.outcome_index];
          if (fwd) {
            fwd->inside_ns = 0;
            fwd->trace = o.trace_id;
          }
          t0 = now_ns();
          o.lease = cloud->grant(g.effective, g.allocation);
          const std::int64_t dur = now_ns() - t0;
          clock.add(kGrant, o.trace_id, t0, dur - (fwd ? fwd->inside_ns : 0));
          lease_trace[o.lease] = o.trace_id;
        }
        if (clock.active()) {
          ++windows;
          members += mem.size();
          decisions += plan.outcomes.size();
          for (const Outcome& o : plan.outcomes) {
            queue_wait_s += o.decide_time - o.submit_time;
          }
        }
        for (Outcome& o : plan.outcomes) outcomes.push_back(std::move(o));
        sample(r.time, trace);
        break;
      }
      case svc::RecordType::kRelease: {
        const std::uint64_t trace = lease_trace[r.lease];
        std::int64_t t0 = now_ns();
        writer.release(r.lease, r.time);
        clock.add(kJournal, trace, t0, now_ns() - t0);
        if (fwd) {
          fwd->inside_ns = 0;
          fwd->trace = trace;
        }
        t0 = now_ns();
        cloud->release(r.lease);
        const std::int64_t dur = now_ns() - t0;
        clock.add(kRelease, trace, t0, dur - (fwd ? fwd->inside_ns : 0));
        lease_trace.erase(r.lease);
        sample(r.time, trace);
        break;
      }
      case svc::RecordType::kRebalance:
        throw std::runtime_error("unexpected rebalance record");
    }
    clock.between_records();
  }
  clock.probe();
  const std::array<std::uint64_t, kCounterCount> counters1 = read_counters();
  reg.set_enabled(false);

  TraceResult res;
  const bool grants_equal = svc::grant_stream(outcomes) == served_grants;
  const bool journal_equal = sink.kept() == served_journal;
  const bool series_equal =
      !sampler || recorder.export_json(true).dump(0) == served_series;
  res.gates["trace_grant_stream_identical"] = grants_equal;
  res.gates["trace_journal_identical"] = journal_equal;
  res.gates["trace_routes_match_windows"] = route_mismatch == 0;
  res.gates["trace_sampler_series_identical"] = series_equal;
  res.gates["trace_covered_timed_phase"] = decisions > 0;
  res.ok = grants_equal && journal_equal && route_mismatch == 0 &&
           series_equal && decisions > 0;

  // Live-lease telemetry, read after the series comparison: looking a series
  // up creates it.
  const std::vector<LeaseId> live = cloud->lease_ids();
  std::uint64_t tracked = 0;
  double alloc_bytes = 0;
  for (LeaseId id : live) {
    const vcopt::cluster::Allocation& a = cloud->lease_allocation(id);
    alloc_bytes += static_cast<double>(sizeof(vcopt::cluster::Allocation)) +
                   static_cast<double>(a.node_count() * a.type_count() +
                                       a.node_count() + a.type_count()) *
                       sizeof(int);
    if (sampler) {
      const std::vector<vcopt::obs::TimeSeries::Point> pts =
          recorder.series("cluster/lease/dc", {{"lease", std::to_string(id)}})
              .points();
      if (!pts.empty() && pts.back().t == last_sample_t) ++tracked;
    }
  }

  std::array<double, kCounterCount> c{};
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    c[i] = static_cast<double>(counters1[i] - counters0[i]);
  }
  const double dec = static_cast<double>(decisions);
  JsonObject& L = res.layers;
  double traced_us = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    const Layer layer = static_cast<Layer>(l);
    const double total = clock.corrected_us(layer);
    const double ops = static_cast<double>(clock.ops(layer));
    const std::string name = kLayerName[l];
    L[name + "_us"] = metric(ratio(total, ops), "us");
    L[name + (layer == kSample ? "s_per_decision" : "_per_decision")] =
        metric(ratio(ops, dec), "count");
    L[name + "_share"] = metric(ratio(total / dec, untraced_us), "share");
    traced_us += ratio(total, dec);
  }
  const double timer_per_decision =
      ratio(static_cast<double>(clock.regions()), dec) * timer_us;
  const double rest = untraced_us - traced_us - timer_per_decision;
  // Counter names index kCounterNames.
  const double spills = c[0], pruned = c[1], routed = c[2], unroutable = c[3];
  const double evaluated = c[4], cand_pruned = c[5], placements = c[6];
  const double infeasible = c[7], pairs = c[8], applied = c[9];
  const double attempted = c[10];
  L["cell.spill_share"] = metric(ratio(spills, routed), "share");
  L["cell.pruned_share"] = metric(
      ratio(pruned, (routed + unroutable) *
                        static_cast<double>(dir ? dir->cell_count() : 0)),
      "share");
  L["placement.candidates_per_request"] =
      metric(ratio(evaluated, placements + infeasible), "count");
  L["placement.pruned_share"] = metric(ratio(cand_pruned, evaluated), "share");
  L["placement.pairs_per_window"] =
      metric(ratio(pairs, static_cast<double>(windows)), "count");
  L["placement.transfer_apply_share"] = metric(ratio(applied, attempted), "share");
  L["cluster.alloc_kb_per_lease"] =
      metric(ratio(alloc_bytes / 1024.0, static_cast<double>(live.size())), "kB");
  L["cluster.tracked_lease_share"] = metric(
      ratio(static_cast<double>(tracked), static_cast<double>(live.size())),
      "share");
  L["service.journal_bytes_per_decision"] =
      metric(ratio(static_cast<double>(sink.bytes() - bytes0), dec), "B");
  L["service.window_size"] =
      metric(ratio(static_cast<double>(members), static_cast<double>(windows)),
             "count");
  L["service.queue_wait_ms"] = metric(ratio(queue_wait_s * 1e3, dec), "ms");
  L["service.rest_us"] = metric(rest, "us");
  L["service.rest_share"] = metric(ratio(rest, untraced_us), "share");
  L["service.untraced_us"] = metric(untraced_us, "us");
  L["trace.timer_us_per_decision"] = metric(timer_per_decision, "us");

  res.detail["decisions"] = dec;
  res.detail["windows"] = static_cast<double>(windows);
  res.detail["samples"] = static_cast<double>(samples);
  res.detail["live_leases"] = static_cast<double>(live.size());
  res.detail["timer_us_per_read"] = timer_us;
  res.detail["traced_us_per_decision"] = traced_us;
  res.detail["probe"] = probe_json(clock.corrector());
  JsonObject counters;
  for (std::size_t i = 0; i < kCounterCount; ++i) counters[kCounterNames[i]] = c[i];
  res.detail["counters"] = std::move(counters);
  if (!spans_out.empty()) res.detail["spans_written"] = clock.write_csv(spans_out);
  return res;
}

int run_check(const WorkloadSpec& spec, std::uint64_t seed,
              std::uint64_t requests, std::uint64_t journal_bytes,
              const std::string& journal_hash, bool trace, double untraced_us,
              const std::string& spans_out) {
  namespace svc = vcopt::service;
  const Inputs in(spec, seed);
  Accounting acct(spec);
  CapacityLedger ledger(in.max_capacity());
  std::vector<Outcome> served;
  Session session(in, /*keep_journal=*/true);
  CheckHook hook{&acct, &ledger, &served};
  std::string error;
  while (session.issued() < requests &&
         serve_guarded(session, hook, acct, error)) {
  }
  if (error.empty()) {
    try {
      session.finish(hook);
    } catch (const std::exception& e) {
      acct.harness_error(session.issued());
      error = e.what();
    }
  }
  if (!error.empty()) {
    JsonObject out;
    out["mode"] = "check";
    out["correct"] = false;
    out["error"] = error;
    out["phases"] = JsonObject{{"warmup", acct.warmup().to_json()},
                               {"timed", acct.timed().to_json()}};
    std::cout << Json(std::move(out)).dump(0) << "\n";
    return 1;
  }

  JsonObject gates;
  gates["exact_cover"] = acct.cover_violations() == 0;
  gates["within_capacity"] =
      hook.over_capacity == 0 && ledger.free() == session.cloud().remaining();
  gates["definition1_distance"] = hook.dc_mismatch == 0;
  gates["grant_sizes"] = hook.size_mismatch == 0;
  gates["journal_matches_timed_run"] =
      session.journal().bytes() == journal_bytes &&
      hex64(session.journal().hash()) == journal_hash;

  std::istringstream journal_in(session.journal().kept());
  const std::vector<svc::JournalRecord> records =
      svc::parse_journal(journal_in, "served journal");
  const std::string served_grants = svc::grant_stream(served);
  {
    auto cloud = std::make_unique<Cloud>(in.make_cloud());
    const svc::ReplayResult rr =
        svc::replay_journal(records, *cloud, session.options());
    gates["replay_grant_stream_identical"] = rr.grants == served_grants;
  }
  bool ok = true;
  for (const auto& [name, value] : gates) ok = ok && value.as_bool();
  ok = ok && acct.timed().failed() == 0 && acct.warmup().failed() == 0;

  JsonObject out;
  out["mode"] = "check";
  out["workload"] = spec.name;
  out["seed"] = static_cast<double>(seed);
  out["requests"] = static_cast<double>(requests);
  out["counts"] = JsonObject{
      {"over_capacity", static_cast<double>(hook.over_capacity)},
      {"dc_mismatch", static_cast<double>(hook.dc_mismatch)},
      {"size_mismatch", static_cast<double>(hook.size_mismatch)},
      {"cover_violations", static_cast<double>(acct.cover_violations())}};
  out["phases"] = JsonObject{{"warmup", acct.warmup().to_json()},
                             {"timed", acct.timed().to_json()}};
  if (trace) {
    const std::string series =
        spec.recorder ? session.recorder().export_json(true).dump(0) : "";
    TraceResult tr = traced_replay(in, session.options(), records,
                                   session.journal().kept(), served_grants,
                                   series, spec.warmup_requests + 1,
                                   untraced_us, spans_out);
    for (auto& [name, value] : tr.gates) gates[name] = value;
    ok = ok && tr.ok;
    out["layers"] = std::move(tr.layers);
    out["trace"] = std::move(tr.detail);
  }
  out["gates"] = std::move(gates);
  out["correct"] = ok;
  std::cout << Json(std::move(out)).dump(0) << "\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  std::map<std::string, std::string> args;
  if (argc < 2) {
    std::cerr << "usage: servebench_driver serve|check --workload W --seed S ...\n";
    return 2;
  }
  const std::string mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::cerr << "servebench_driver: bad argument " << argv[i] << "\n";
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  const auto get = [&](const std::string& k, const std::string& dflt) {
    const auto it = args.find(k);
    return it == args.end() ? dflt : it->second;
  };
  const WorkloadSpec* spec = find_workload(get("workload", ""));
  if (spec == nullptr) {
    std::cerr << "servebench_driver: unknown workload '" << get("workload", "")
              << "'\n";
    return 2;
  }
  vcopt::obs::MetricsRegistry::global().set_enabled(false);
  try {
    // Smoke runs shorten the warm-up and the request window.
    WorkloadSpec tuned = *spec;
    if (args.count("warmup")) tuned.warmup_requests = std::stoull(args["warmup"]);
    if (args.count("quality")) tuned.quality_requests = std::stoull(args["quality"]);
    if (args.count("repeats")) tuned.setup_repeats = std::stoi(args["repeats"]);
    spec = &tuned;
    const std::uint64_t seed = std::stoull(get("seed", "1"));
    if (mode == "serve") {
      return run_serve(*spec, seed, std::stod(get("seconds", "10")));
    }
    if (mode == "check") {
      return run_check(*spec, seed, std::stoull(get("requests", "0")),
                       std::stoull(get("journal-bytes", "0")),
                       get("journal-hash", ""), get("trace", "0") == "1",
                       std::stod(get("untraced-us", "0")),
                       get("spans-out", ""));
    }
  } catch (const std::exception& e) {
    std::cerr << "servebench_driver: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "servebench_driver: unknown mode " << mode << "\n";
  return 2;
}
