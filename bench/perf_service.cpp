// Closed-loop benchmark for vcopt::service — emits BENCH_service.json so the
// serving layer has a throughput/latency/quality trajectory to regress
// against, and doubles as the micro-batching quality gate:
//
//   DC phase (virtual clock, deterministic): a seeded Fig.-5 request stream
//   is pushed through the service at every window size W in {1, 4, 8, 20}
//   and every queue discipline.  W = 1 closes a singleton window per submit
//   — the no-batching baseline where each request is decided alone by the
//   Algorithm-1 ladder.  W > 1 reaches Algorithm 2 (GSD batch + Theorem-2
//   transfers).  Because transfers conserve per-node per-type totals and
//   strictly reduce the summed DC, FIFO batching can never do worse than the
//   baseline; the harness exits 1 if any FIFO W > 1 config reports a higher
//   mean DC than W = 1 on the same stream.
//
//   Load phase (wall clock): K producer threads in a closed loop
//   (submit_and_wait, release on grant) against the real dispatcher thread,
//   reporting throughput and p50/p90/p99 decision latency per queue
//   discipline and window size.
//
//   SLO phase (virtual clock, deterministic): the service's built-in SLO
//   tracker is exercised end-to-end.  A healthy run (ample queue, modest
//   stream) must finish with no burn-rate alert; a deliberately overloaded
//   run (queue capacity 4, a burst far beyond it) must trip the shed-rate
//   alert.  Either outcome inverting is a gate failure — the alerting
//   pipeline itself is under test, not just the numbers.
//
// A metrics sidecar (vcopt-metrics-sidecar/1) is always written next to the
// BENCH JSON so the perf trajectory can be graphed uniformly across PRs.
//
// Usage: perf_service [--quick] [--out=FILE] [--seed=N]
//   --quick   CI smoke mode: fewer rounds/ops, big scenario only.
//   --out     output path (default BENCH_service.json in the CWD).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cloud.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "placement/provisioner.h"
#include "service/service.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace {

using namespace vcopt;
using Clock = std::chrono::steady_clock;

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

const char* discipline_name(placement::QueueDiscipline d) {
  switch (d) {
    case placement::QueueDiscipline::kFifo: return "fifo";
    case placement::QueueDiscipline::kPriority: return "priority";
    case placement::QueueDiscipline::kSmallestFirst: return "smallest-first";
  }
  return "?";
}

constexpr placement::QueueDiscipline kDisciplines[] = {
    placement::QueueDiscipline::kFifo,
    placement::QueueDiscipline::kPriority,
    placement::QueueDiscipline::kSmallestFirst,
};
constexpr std::size_t kWindows[] = {1, 4, 8, 20};

// ---------------------------------------------------------------------------
// DC phase: decision quality per (window, discipline) on one seeded stream.
// ---------------------------------------------------------------------------

struct DcResult {
  std::size_t window = 0;
  placement::QueueDiscipline discipline = placement::QueueDiscipline::kFifo;
  std::size_t submitted = 0;
  std::size_t granted = 0;   // outcomes carrying a lease (incl. partial)
  std::size_t abandoned = 0;
  double total_dc = 0;
  double mean_dc = 0;        // over leased outcomes
  std::uint64_t windows = 0;
};

/// Runs `rounds` rounds of the shared request stream through a virtual-time
/// service with window size W; every round starts from full capacity (all
/// leases are released between rounds), so every (W, discipline) config sees
/// the identical admission stream and capacity trajectory shape.
DcResult run_dc_config(const workload::SimScenario& scenario,
                       const std::vector<cluster::Request>& stream,
                       std::size_t rounds, std::size_t per_round,
                       std::size_t window,
                       placement::QueueDiscipline discipline) {
  cluster::Cloud cloud(scenario.topology, scenario.catalog, scenario.capacity);
  service::ServiceOptions options;
  options.clock = service::ClockMode::kVirtual;
  options.max_batch = window;
  options.max_wait = 1e9;  // windows close on size (or the final flush) only
  options.queue_capacity = per_round + 1;
  options.discipline = discipline;
  service::PlacementService svc(cloud, options);

  DcResult res;
  res.window = window;
  res.discipline = discipline;
  util::Rng prio_rng(7);  // same priority stream for every config
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < per_round; ++i) {
      const cluster::Request& req = stream[(r * per_round + i) % stream.size()];
      service::SubmitOptions o;
      o.priority = static_cast<int>(prio_rng.uniform_int(0, 4));
      svc.submit(req, o);
      ++res.submitted;
    }
    svc.flush();
    std::vector<cluster::LeaseId> leases;
    for (const service::Outcome& o : svc.take_outcomes()) {
      if (service::has_lease(o.kind)) {
        ++res.granted;
        res.total_dc += o.distance;
        leases.push_back(o.lease);
      } else if (o.kind == service::OutcomeKind::kAbandoned) {
        ++res.abandoned;
      }
    }
    for (const cluster::LeaseId lease : leases) svc.release(lease);
  }
  svc.stop();
  res.windows = svc.stats().windows;
  res.mean_dc = res.granted ? res.total_dc / static_cast<double>(res.granted)
                            : 0;
  return res;
}

util::Json dc_json(const DcResult& r) {
  util::JsonObject o;
  o["window"] = r.window;
  o["discipline"] = discipline_name(r.discipline);
  o["submitted"] = r.submitted;
  o["granted"] = r.granted;
  o["abandoned"] = r.abandoned;
  o["windows"] = r.windows;
  o["total_dc"] = r.total_dc;
  o["mean_dc"] = r.mean_dc;
  return util::Json(std::move(o));
}

// ---------------------------------------------------------------------------
// Load phase: wall-clock throughput/latency per (window, discipline).
// ---------------------------------------------------------------------------

struct LoadResult {
  std::size_t window = 0;
  placement::QueueDiscipline discipline = placement::QueueDiscipline::kFifo;
  std::size_t producers = 0;
  std::size_t ops = 0;       // decided submissions
  double throughput = 0;     // decided / wall second
  double mean_us = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double mean_batch = 0;     // decided per closed window
};

LoadResult run_load_config(const workload::SimScenario& scenario,
                           std::size_t window,
                           placement::QueueDiscipline discipline,
                           std::size_t producers, std::size_t per_producer) {
  cluster::Cloud cloud(scenario.topology, scenario.catalog, scenario.capacity);
  service::ServiceOptions options;
  options.clock = service::ClockMode::kWall;
  options.max_batch = window;
  options.max_wait = 0.002;
  options.queue_capacity = 1024;
  options.discipline = discipline;
  service::PlacementService svc(cloud, options);

  std::mutex mu;
  std::vector<double> lat_us;
  lat_us.reserve(producers * per_producer);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      util::Rng rng(1000 + p);
      std::vector<double> local;
      local.reserve(per_producer);
      for (std::size_t i = 0; i < per_producer; ++i) {
        const cluster::Request& req =
            scenario.requests[(p * per_producer + i) %
                              scenario.requests.size()];
        service::SubmitOptions o;
        o.priority = static_cast<int>(rng.uniform_int(0, 4));
        const auto a = Clock::now();
        const auto outcome = svc.submit_and_wait(
            cluster::Request(req.counts(),
                             static_cast<std::uint64_t>(p * 10000 + i)),
            o);
        const auto b = Clock::now();
        if (!outcome) continue;  // backpressured; closed loop just retries
        local.push_back(
            std::chrono::duration<double, std::micro>(b - a).count());
        if (service::has_lease(outcome->kind)) svc.release(outcome->lease);
      }
      std::lock_guard<std::mutex> lock(mu);
      lat_us.insert(lat_us.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const double total_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  svc.stop();

  LoadResult res;
  res.window = window;
  res.discipline = discipline;
  res.producers = producers;
  res.ops = lat_us.size();
  res.throughput = total_s > 0 ? static_cast<double>(res.ops) / total_s : 0;
  res.mean_us = lat_us.empty()
                    ? 0
                    : std::accumulate(lat_us.begin(), lat_us.end(), 0.0) /
                          static_cast<double>(lat_us.size());
  res.p50_us = percentile(lat_us, 0.50);
  res.p90_us = percentile(lat_us, 0.90);
  res.p99_us = percentile(lat_us, 0.99);
  const service::ServiceStats stats = svc.stats();
  res.mean_batch = stats.windows ? static_cast<double>(stats.decided) /
                                       static_cast<double>(stats.windows)
                                 : 0;
  return res;
}

util::Json load_json(const LoadResult& r) {
  util::JsonObject o;
  o["window"] = r.window;
  o["discipline"] = discipline_name(r.discipline);
  o["producers"] = r.producers;
  o["ops"] = r.ops;
  o["throughput_per_sec"] = r.throughput;
  o["mean_us"] = r.mean_us;
  o["p50_us"] = r.p50_us;
  o["p90_us"] = r.p90_us;
  o["p99_us"] = r.p99_us;
  o["mean_batch"] = r.mean_batch;
  return util::Json(std::move(o));
}

// ---------------------------------------------------------------------------
// SLO phase: the burn-rate alerting pipeline under healthy and shed-heavy
// admission streams.
// ---------------------------------------------------------------------------

struct SloPhaseResult {
  bool healthy_alerting = false;   // must stay false
  bool overload_alerting = false;  // must become true
  double overload_short_burn = 0;  // shed-rate short-window burn when tripped
  std::size_t overload_shed = 0;   // refused submissions in the overload run
};

/// Healthy leg: a modest stream into an amply-provisioned service — every
/// submission admits, latency stays at the window bound, nothing sheds.
/// Overload leg: queue capacity 4 and a burst of `burst` submissions in one
/// virtual instant, so almost everything is refused at admission and the
/// shed-rate SLO burns through its budget in both windows.
SloPhaseResult run_slo_phase(const workload::SimScenario& scenario,
                             const std::vector<cluster::Request>& stream,
                             std::size_t burst) {
  SloPhaseResult res;
  {
    cluster::Cloud cloud(scenario.topology, scenario.catalog,
                         scenario.capacity);
    service::ServiceOptions options;
    options.clock = service::ClockMode::kVirtual;
    options.max_batch = 8;
    options.max_wait = 1e9;
    options.queue_capacity = stream.size() + 1;
    service::PlacementService svc(cloud, options);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      svc.submit(cluster::Request(stream[i].counts(), i + 1));
      if ((i + 1) % 8 == 0) {
        svc.flush();
        for (const service::Outcome& o : svc.take_outcomes()) {
          if (service::has_lease(o.kind)) svc.release(o.lease);
        }
      }
    }
    svc.flush();
    res.healthy_alerting = svc.slo().any_alerting(svc.now());
    svc.stop();
  }
  {
    cluster::Cloud cloud(scenario.topology, scenario.catalog,
                         scenario.capacity);
    service::ServiceOptions options;
    options.clock = service::ClockMode::kVirtual;
    options.max_batch = burst + 1;  // the window never closes on size
    options.max_wait = 1e9;
    options.queue_capacity = 4;
    service::PlacementService svc(cloud, options);
    for (std::size_t i = 0; i < burst; ++i) {
      const service::SubmitReceipt receipt = svc.submit(
          cluster::Request(stream[i % stream.size()].counts(), i + 1));
      if (receipt.admission != service::AdmissionStatus::kAccepted) {
        ++res.overload_shed;
      }
    }
    res.overload_alerting = svc.slo().any_alerting(svc.now());
    for (const obs::SloStatus& s : svc.slo().evaluate(svc.now())) {
      if (s.spec.name == "service/shed_rate") {
        res.overload_short_burn = s.short_burn;
      }
    }
    svc.stop();
  }
  return res;
}

util::Json slo_json(const SloPhaseResult& r) {
  util::JsonObject o;
  o["healthy_alerting"] = r.healthy_alerting;
  o["overload_alerting"] = r.overload_alerting;
  o["overload_short_burn"] = r.overload_short_burn;
  o["overload_shed"] = r.overload_shed;
  return util::Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_service.json";
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::cerr << "usage: perf_service [--quick] [--out=FILE] [--seed=N]\n";
      return 2;
    }
  }

  struct ScenarioSpec {
    std::string name;
    workload::RequestScale scale;
    bool quick_included;
  };
  const std::vector<ScenarioSpec> specs = {
      {"fig5_big", workload::RequestScale::kBig, true},
      {"fig5_medium", workload::RequestScale::kMedium, false},
  };

  // Always-on registry: the sidecar next to the BENCH JSON is part of the
  // bench contract (same schema across all perf bins).
  obs::MetricsRegistry::global().set_enabled(true);

  const std::size_t rounds = quick ? 2 : 6;
  const std::size_t per_round = 24;  // > max window, so W=20 actually batches
  const std::size_t producers = 4;
  const std::size_t per_producer = quick ? 8 : 32;

  bool gate_ok = true;
  util::JsonArray scenarios;
  for (const ScenarioSpec& spec : specs) {
    if (quick && !spec.quick_included) continue;
    const workload::SimScenario scenario =
        workload::paper_sim_scenario(seed, spec.scale);
    // One shared request stream per scenario (Fig.-5 mix, modest sizes so
    // most submissions are grantable): every config replays it exactly.
    util::Rng rng(seed ^ 0x5e1fULL);
    const std::vector<cluster::Request> stream = workload::random_requests(
        scenario.catalog, rng, rounds * per_round, 1, 4);

    util::JsonArray dc_arr;
    double baseline_fifo_dc = 0;
    for (const placement::QueueDiscipline d : kDisciplines) {
      for (const std::size_t w : kWindows) {
        const DcResult r =
            run_dc_config(scenario, stream, rounds, per_round, w, d);
        if (d == placement::QueueDiscipline::kFifo) {
          if (w == 1) {
            baseline_fifo_dc = r.mean_dc;
          } else if (r.mean_dc > baseline_fifo_dc * (1 + 1e-9)) {
            // Theorem 2 says batched FIFO placement can only lower DC.
            gate_ok = false;
            std::cerr << spec.name << ": GATE FAILURE — fifo W=" << w
                      << " mean DC " << r.mean_dc
                      << " exceeds no-batching baseline " << baseline_fifo_dc
                      << "\n";
          }
        }
        dc_arr.push_back(dc_json(r));
      }
    }

    // Per-discipline decision latency: every queue discipline runs the same
    // closed wall-clock loop, so BENCH_service.json carries p50/p90/p99 for
    // fifo, priority and deadline side by side.
    util::JsonArray load_arr;
    for (const placement::QueueDiscipline d : kDisciplines) {
      for (const std::size_t w : kWindows) {
        const LoadResult r =
            run_load_config(scenario, w, d, producers, per_producer);
        load_arr.push_back(load_json(r));
        std::cout << spec.name << " load " << discipline_name(d) << " W=" << w
                  << ": " << r.throughput << " ops/s, p50 " << r.p50_us
                  << " us, p90 " << r.p90_us << " us, p99 " << r.p99_us
                  << " us (mean batch " << r.mean_batch << ")\n";
      }
    }

    const SloPhaseResult slo = run_slo_phase(scenario, stream, 200);
    if (slo.healthy_alerting) {
      gate_ok = false;
      std::cerr << spec.name << ": GATE FAILURE — healthy baseline tripped "
                   "an SLO burn-rate alert\n";
    }
    if (!slo.overload_alerting) {
      gate_ok = false;
      std::cerr << spec.name << ": GATE FAILURE — overloaded run (shed "
                << slo.overload_shed
                << " submissions) did not trip the shed-rate SLO alert\n";
    }
    std::cout << spec.name << " slo: healthy "
              << (slo.healthy_alerting ? "ALERT" : "ok") << ", overload "
              << (slo.overload_alerting ? "alerting" : "SILENT")
              << " (shed " << slo.overload_shed << ", short burn "
              << slo.overload_short_burn << ")\n";

    util::JsonObject o;
    o["name"] = spec.name;
    o["nodes"] = scenario.topology.node_count();
    o["racks"] = scenario.topology.rack_count();
    o["stream"] = stream.size();
    o["rounds"] = rounds;
    o["baseline_mean_dc"] = baseline_fifo_dc;
    o["dc"] = util::Json(std::move(dc_arr));
    o["load"] = util::Json(std::move(load_arr));
    o["slo"] = slo_json(slo);
    std::cout << spec.name << ": fifo no-batching mean DC " << baseline_fifo_dc
              << (gate_ok ? "" : "  [GATE FAILURE]") << "\n";
    scenarios.push_back(util::Json(std::move(o)));
  }

  util::JsonObject root;
  root["schema"] = "vcopt-bench-service/1";
  root["quick"] = quick;
  root["seed"] = seed;
  root["windows"] = [] {
    util::JsonArray a;
    for (const std::size_t w : kWindows) a.push_back(util::Json(w));
    return util::Json(std::move(a));
  }();
  root["scenarios"] = util::Json(std::move(scenarios));
  root["dc_gate_ok"] = gate_ok;

  std::ofstream f(out_path);
  if (!f) {
    std::cerr << "perf_service: cannot open " << out_path << "\n";
    return 1;
  }
  f << util::Json(std::move(root)).dump(2) << "\n";
  f.close();
  std::cout << "wrote " << out_path << "\n";

  const std::string sidecar_path = out_path + ".metrics.json";
  if (obs::write_metrics_sidecar_file(obs::MetricsRegistry::global(),
                                      sidecar_path, "perf_service")) {
    std::cout << "wrote " << sidecar_path << "\n";
  } else {
    std::cerr << "perf_service: cannot open " << sidecar_path << "\n";
    return 1;
  }

  if (!gate_ok) {
    std::cerr << "perf_service: GATE FAILURE — a quality or SLO gate tripped "
                 "(see messages above)\n";
    return 1;
  }
  return 0;
}
