// Reproducible placement performance harness: emits BENCH_placement.json so
// every future PR has a throughput/latency trajectory to regress against.
//
// Two implementations of Algorithm 1 run over the Fig.-5 request mix at
// several cloud scales:
//
//   baseline_prepr  The pre-optimisation scalar implementation, embedded
//                   below verbatim-in-spirit: per-comparison vector
//                   allocations in the getList sort, a full O(n*m)
//                   distance_from per candidate, every candidate filled.
//                   This is the fixed yardstick the speedups are measured
//                   against.
//   serial          Today's OnlineHeuristic on a bare matrix: the scored
//                   scan, every candidate central scored from per-rack and
//                   per-cloud free sums, only the winner filled
//                   (docs/performance.md).
//   indexed         The same OnlineHeuristic on a Cloud's capacity view:
//                   the winner read from the cloud's free-vector class
//                   index (docs/algorithms.md, "The class query").
//
// Every (scenario, request) is additionally cross-checked: the optimised
// placements must match the baseline's (distance, central, allocation) bit
// for bit — the optimizations are not allowed to change Algorithm-1
// semantics.  The routed scenarios time routing, the flat scan and the
// class query in interleaved blocks, so a phase of a shared host falls on
// every series alike; the churned 10k-node scenario (full runs only) times
// the scan and the class query the same way on a cloud whose fills leave
// the rack.
//
// Usage: perf_placement [--quick] [--out=FILE] [--seed=N]
//   --quick   CI smoke mode: fewer iterations, smallest scenarios only.
//   --out     output path (default BENCH_placement.json in the CWD).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "cell/directory.h"
#include "cell/routed_policy.h"
#include "cluster/cloud.h"
#include "obs/metrics.h"
#include "placement/global_subopt.h"
#include "placement/online_heuristic.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace {

using namespace vcopt;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// The pre-PR scalar Algorithm 1, kept as the fixed performance baseline.
// ---------------------------------------------------------------------------
namespace prepr {

std::vector<int> com(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out(a.size());
  for (std::size_t j = 0; j < a.size(); ++j) out[j] = std::min(a[j], b[j]);
  return out;
}

std::vector<int> row_of(const util::IntMatrix& m, std::size_t i) {
  std::vector<int> out(m.cols());
  for (std::size_t j = 0; j < m.cols(); ++j) out[j] = m(i, j);
  return out;
}

std::vector<std::size_t> sorted_candidates(const util::IntMatrix& remaining,
                                           std::size_t central,
                                           const std::vector<std::size_t>& nodes) {
  const std::vector<int> lx = row_of(remaining, central);
  std::vector<std::size_t> order = nodes;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto ka = com(lx, row_of(remaining, a));
    const auto kb = com(lx, row_of(remaining, b));
    return std::accumulate(ka.begin(), ka.end(), 0) >
           std::accumulate(kb.begin(), kb.end(), 0);
  });
  return order;
}

void take(cluster::Allocation& alloc, std::vector<int>& need,
          const util::IntMatrix& remaining, std::size_t node) {
  for (std::size_t j = 0; j < remaining.cols(); ++j) {
    const int t = std::min(need[j], remaining(node, j));
    if (t > 0) {
      alloc.at(node, j) += t;
      need[j] -= t;
    }
  }
}

bool satisfied(const std::vector<int>& need) {
  return std::all_of(need.begin(), need.end(), [](int v) { return v == 0; });
}

std::optional<cluster::Allocation> fill_from_central(
    const cluster::Request& request, const util::IntMatrix& remaining,
    const cluster::Topology& topology, std::size_t central) {
  const std::size_t n = remaining.rows();
  const std::size_t m = remaining.cols();
  cluster::Allocation alloc(n, m);
  std::vector<int> need = request.counts();

  take(alloc, need, remaining, central);
  if (satisfied(need)) return alloc;

  std::vector<std::size_t> rack_mates;
  for (std::size_t i : topology.nodes_in_rack(topology.rack_of(central))) {
    if (i != central) rack_mates.push_back(i);
  }
  for (std::size_t i : sorted_candidates(remaining, central, rack_mates)) {
    take(alloc, need, remaining, i);
    if (satisfied(need)) return alloc;
  }

  std::vector<std::size_t> off_rack;
  for (std::size_t i = 0; i < n; ++i) {
    if (!topology.same_rack(i, central)) off_rack.push_back(i);
  }
  std::vector<std::size_t> sorted = sorted_candidates(remaining, central, off_rack);
  std::stable_sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
    return topology.distance(a, central) < topology.distance(b, central);
  });
  for (std::size_t i : sorted) {
    take(alloc, need, remaining, i);
    if (satisfied(need)) return alloc;
  }
  return std::nullopt;
}

std::optional<placement::Placement> place(const cluster::Request& request,
                                          const util::IntMatrix& remaining,
                                          const cluster::Topology& topology) {
  const std::size_t n = remaining.rows();
  for (std::size_t j = 0; j < remaining.cols(); ++j) {
    int col = 0;
    for (std::size_t i = 0; i < n; ++i) col += remaining(i, j);
    if (request.count(j) > col) return std::nullopt;
  }

  for (std::size_t i = 0; i < n; ++i) {
    bool whole = true;
    for (std::size_t j = 0; j < remaining.cols(); ++j) {
      if (remaining(i, j) < request.count(j)) {
        whole = false;
        break;
      }
    }
    if (whole) {
      cluster::Allocation alloc(n, remaining.cols());
      for (std::size_t j = 0; j < remaining.cols(); ++j) {
        alloc.at(i, j) = request.count(j);
      }
      return placement::Placement{
          std::move(alloc), i,
          static_cast<double>(request.total_vms()) * topology.distance(i, i)};
    }
  }

  std::optional<placement::Placement> best;
  for (std::size_t x = 0; x < n; ++x) {
    int row = 0;
    for (std::size_t j = 0; j < remaining.cols(); ++j) row += remaining(x, j);
    if (row == 0) continue;
    auto alloc = fill_from_central(request, remaining, topology, x);
    if (!alloc) continue;
    const double d = alloc->distance_from(x, topology);
    if (!best || d < best->distance) {
      best = placement::Placement{std::move(*alloc), x, d};
    }
  }
  return best;
}

}  // namespace prepr

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

struct Series {
  std::string impl;
  std::size_t iters = 0;
  double ops_per_sec = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

Series summarize(const std::string& impl, const std::vector<double>& lat_us,
                 double total_s) {
  Series s;
  s.impl = impl;
  s.iters = lat_us.size();
  s.ops_per_sec = total_s > 0 ? static_cast<double>(s.iters) / total_s : 0;
  s.mean_us = std::accumulate(lat_us.begin(), lat_us.end(), 0.0) /
              static_cast<double>(lat_us.empty() ? 1 : lat_us.size());
  s.p50_us = percentile(lat_us, 0.50);
  s.p99_us = percentile(lat_us, 0.99);
  return s;
}

template <typename Fn>
Series measure(const std::string& impl, std::size_t iters, std::size_t warmup,
               const Fn& op) {
  for (std::size_t i = 0; i < warmup; ++i) op(i);
  std::vector<double> lat_us;
  lat_us.reserve(iters);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto a = Clock::now();
    op(i);
    const auto b = Clock::now();
    lat_us.push_back(std::chrono::duration<double, std::micro>(b - a).count());
  }
  return summarize(impl, lat_us,
                   std::chrono::duration<double>(Clock::now() - t0).count());
}

/// One series of an interleaved measurement: `per_block` calls of `op` in
/// each block.
struct Timed {
  std::string impl;
  std::size_t per_block = 0;
  std::function<void(std::size_t)> op;
};

/// Runs `blocks` rounds, each timing every series' block in turn, so each
/// series samples every phase of the host; a series' rate is its calls over
/// the time its own blocks took.
std::vector<Series> measure_interleaved(const std::vector<Timed>& timed,
                                        std::size_t blocks) {
  std::vector<std::vector<double>> lat_us(timed.size());
  std::vector<double> total_s(timed.size(), 0);
  std::vector<std::size_t> next(timed.size(), 0);
  for (std::size_t k = 0; k < timed.size(); ++k) {
    for (std::size_t i = 0; i < std::max<std::size_t>(timed[k].per_block, 2);
         ++i) {
      timed[k].op(i);  // warm-up
    }
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t k = 0; k < timed.size(); ++k) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < timed[k].per_block; ++i) {
        const auto a = Clock::now();
        timed[k].op(next[k]++);
        const auto c = Clock::now();
        lat_us[k].push_back(
            std::chrono::duration<double, std::micro>(c - a).count());
      }
      total_s[k] += std::chrono::duration<double>(Clock::now() - t0).count();
    }
  }
  std::vector<Series> out;
  for (std::size_t k = 0; k < timed.size(); ++k) {
    out.push_back(summarize(timed[k].impl, lat_us[k], total_s[k]));
  }
  return out;
}

util::Json series_json(const Series& s) {
  util::JsonObject o;
  o["impl"] = s.impl;
  o["iters"] = s.iters;
  o["ops_per_sec"] = s.ops_per_sec;
  o["mean_us"] = s.mean_us;
  o["p50_us"] = s.p50_us;
  o["p99_us"] = s.p99_us;
  return util::Json(std::move(o));
}

bool same_placement(const std::optional<placement::Placement>& a,
                    const std::optional<placement::Placement>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->central == b->central && a->distance == b->distance &&
         a->allocation == b->allocation;
}

struct ScenarioSpec {
  std::string name;
  std::size_t racks;
  std::size_t nodes_per_rack;
  std::uint64_t seed;
  std::size_t iters;       // measured place() calls per implementation
  bool quick_included;     // run in --quick mode too?
};

util::Json run_scenario(const ScenarioSpec& spec, bool quick) {
  // Fig.-5 workload shape at the requested cloud scale: inventory per node
  // uniform in [0, 4], per-type request counts in [4, 10] (workload module,
  // §V.A parameters).
  util::Rng rng(spec.seed);
  const cluster::Topology topo =
      cluster::Topology::uniform(spec.racks, spec.nodes_per_rack);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const util::IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const std::vector<cluster::Request> requests =
      workload::random_requests(catalog, rng, 20, 4, 10);

  const std::size_t iters = quick ? std::max<std::size_t>(spec.iters / 10, 20)
                                  : spec.iters;
  const std::size_t warmup = std::max<std::size_t>(iters / 10, 2);

  placement::OnlineHeuristic serial;
  const cluster::Cloud cloud(topo, catalog, remaining);

  // Semantic cross-check over the whole request mix before timing anything.
  bool baseline_identical = true;
  bool indexed_identical = true;
  for (const cluster::Request& r : requests) {
    const std::optional<placement::Placement> base =
        prepr::place(r, remaining, topo);
    if (!same_placement(base, serial.place(r, remaining, topo))) {
      baseline_identical = false;
    }
    if (!same_placement(base, serial.place(r, cloud.capacity_view(), topo))) {
      indexed_identical = false;
    }
  }

  std::vector<Series> series;
  series.push_back(measure("baseline_prepr", iters, warmup, [&](std::size_t i) {
    auto p = prepr::place(requests[i % requests.size()], remaining, topo);
    if (p && p->distance < -1) std::abort();  // keep the optimizer honest
  }));
  series.push_back(measure("serial", iters, warmup, [&](std::size_t i) {
    auto p = serial.place(requests[i % requests.size()], remaining, topo);
    if (p && p->distance < -1) std::abort();
  }));
  series.push_back(measure("indexed", iters, warmup, [&](std::size_t i) {
    auto p = serial.place(requests[i % requests.size()], cloud.capacity_view(),
                          topo);
    if (p && p->distance < -1) std::abort();
  }));

  util::JsonObject o;
  o["name"] = spec.name;
  o["nodes"] = topo.node_count();
  o["racks"] = topo.rack_count();
  o["types"] = catalog.size();
  o["requests"] = requests.size();
  o["seed"] = spec.seed;
  util::JsonArray arr;
  for (const Series& s : series) arr.push_back(series_json(s));
  o["series"] = util::Json(std::move(arr));
  o["baseline_identical"] = baseline_identical;
  o["indexed_identical"] = indexed_identical;
  const double base = series[0].ops_per_sec;
  o["speedup_serial_vs_baseline"] = base > 0 ? series[1].ops_per_sec / base : 0;
  o["speedup_indexed_vs_serial"] =
      series[1].ops_per_sec > 0 ? series[2].ops_per_sec / series[1].ops_per_sec
                                : 0;

  std::cout << spec.name << ": baseline " << series[0].ops_per_sec
            << " ops/s, serial " << series[1].ops_per_sec << " ops/s ("
            << (base > 0 ? series[1].ops_per_sec / base : 0) << "x), indexed "
            << series[2].ops_per_sec << " ops/s"
            << (baseline_identical && indexed_identical
                    ? ""
                    : "  [EQUIVALENCE FAILURE]")
            << "\n";
  return util::Json(std::move(o));
}

// ---------------------------------------------------------------------------
// Route-then-place at cloud scale (docs/cells.md).
// ---------------------------------------------------------------------------

struct RoutedSpec {
  std::string name;
  std::size_t racks;
  std::size_t nodes_per_rack;
  std::size_t cells;       // CellPartitionOptions::target_cells
  std::uint64_t seed;
  std::size_t iters;
  bool quick_included;     // run in --quick mode too?
};

/// Times RoutedPolicy (router + per-cell Algorithm 1) against the flat
/// OnlineHeuristic on one fresh Fig.-5 inventory: the scored scan on the
/// bare matrix ("flat", which the 10x gate compares against) and the class
/// query on the cloud's view ("indexed", which ROADMAP item 2's gate
/// compares: at most 2x the routed time).
util::Json run_routed_scenario(const RoutedSpec& spec, bool quick) {
  util::Rng rng(spec.seed);
  const cluster::Topology topo =
      cluster::Topology::uniform(spec.racks, spec.nodes_per_rack);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const util::IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  const std::vector<cluster::Request> requests =
      workload::random_requests(catalog, rng, 20, 4, 10);

  cluster::Cloud cloud(topo, catalog, remaining);
  cell::CellPartitionOptions po;
  po.target_cells = spec.cells;
  cell::CellDirectory directory(cloud, po);
  cell::RoutedPolicy routed(directory);
  placement::OnlineHeuristic flat;

  // Exactness nets: routing (with flat fallback) must admit exactly the
  // requests the flat scan admits on the same inventory, and the class
  // query must place exactly as the scan.
  bool flat_matches_routed = true;
  bool indexed_identical = true;
  for (const cluster::Request& r : requests) {
    const std::optional<placement::Placement> f = flat.place(r, remaining, topo);
    if (f.has_value() != routed.place(r, remaining, topo).has_value()) {
      flat_matches_routed = false;
    }
    if (!same_placement(f, flat.place(r, cloud.capacity_view(), topo))) {
      indexed_identical = false;
    }
  }

  // Interleaved blocks, so no phase of a shared host lands on one series
  // only, and enough placements (the quick smoke times 4,000 routed and
  // 400 scans, about 30 ms each at 10k nodes) that one preemption of a few
  // milliseconds moves a series' rate by a tenth at most.  Full runs time
  // spec.iters scans.
  const std::size_t blocks = quick ? 20 : 10;
  const std::size_t flat_per_block =
      quick ? 20 : std::max<std::size_t>(spec.iters / blocks, 1);
  const std::size_t fast_per_block = 10 * flat_per_block;
  const std::vector<Series> series = measure_interleaved(
      {{"routed", fast_per_block,
        [&](std::size_t i) {
          auto p = routed.place(requests[i % requests.size()], remaining, topo);
          if (p && p->distance < -1) std::abort();
        }},
       {"flat", flat_per_block,
        [&](std::size_t i) {
          auto p = flat.place(requests[i % requests.size()], remaining, topo);
          if (p && p->distance < -1) std::abort();
        }},
       {"indexed", fast_per_block,
        [&](std::size_t i) {
          auto p = flat.place(requests[i % requests.size()],
                              cloud.capacity_view(), topo);
          if (p && p->distance < -1) std::abort();
        }}},
      blocks);

  util::JsonObject o;
  o["name"] = spec.name;
  o["nodes"] = topo.node_count();
  o["racks"] = topo.rack_count();
  o["cells"] = directory.cell_count();
  o["requests"] = requests.size();
  o["seed"] = spec.seed;
  util::JsonArray arr;
  for (const Series& s : series) arr.push_back(series_json(s));
  o["series"] = util::Json(std::move(arr));
  o["flat_admission_identical"] = flat_matches_routed;
  o["indexed_identical"] = indexed_identical;
  const double routed_ops = series[0].ops_per_sec;
  const double flat_ops = series[1].ops_per_sec;
  const double indexed_ops = series[2].ops_per_sec;
  const double speedup = flat_ops > 0 ? routed_ops / flat_ops : 0;
  const double vs_indexed = indexed_ops > 0 ? routed_ops / indexed_ops : 0;
  o["speedup_routed_vs_flat"] = speedup;
  o["speedup_routed_vs_indexed"] = vs_indexed;
  o["indexed_within_2x_routed"] = vs_indexed <= 2.0;

  std::cout << spec.name << ": routed " << routed_ops << " ops/s, flat "
            << flat_ops << " ops/s (" << speedup << "x routed), indexed "
            << indexed_ops << " ops/s (" << vs_indexed << "x routed)"
            << (flat_matches_routed ? "" : "  [ADMISSION MISMATCH]")
            << (indexed_identical ? "" : "  [EQUIVALENCE FAILURE]") << "\n";
  return util::Json(std::move(o));
}

/// True when the placement's entries span more than one rack: the winner's
/// fill left its rack.
bool leaves_rack(const placement::Placement& p,
                 const cluster::Topology& topo) {
  const std::size_t rack = topo.rack_of(p.central);
  for (const cluster::Allocation::Entry& e : p.allocation.entries()) {
    if (topo.rack_of(e.node) != rack) return true;
  }
  return false;
}

/// routed_10k's shape after churn.  On a fresh inventory the winner's fill
/// rarely leaves its rack, so no other series times the off-rack tiers.
/// Seeded grants of the Fig.-5 mix, with a random release for each grant
/// once the cloud is 90% allocated, drive the cloud in rounds until at
/// least a fifth of the request mix's fills leave the rack.  Then the scan
/// on the churned free view ("serial") and the class query on the cloud's
/// view ("indexed") place the mix in interleaved blocks.  Full runs only:
/// with checks on, every class query fills every candidate beside it, and
/// off-rack fills make that O(n) each at 10k nodes.
util::Json run_churned_scenario(std::uint64_t seed) {
  constexpr double kOffRackShare = 0.2;
  constexpr double kFullShare = 0.9;
  constexpr std::size_t kRoundSteps = 1000;
  constexpr std::size_t kMaxRounds = 100;
  util::Rng rng(seed);
  const cluster::Topology topo = cluster::Topology::uniform(250, 40);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  cluster::Cloud cloud(topo, catalog,
                       workload::random_inventory(topo, catalog, rng, 0, 4));
  const std::vector<cluster::Request> requests =
      workload::random_requests(catalog, rng, 100, 4, 10);
  placement::OnlineHeuristic heuristic;

  const auto off_rack_share = [&] {
    std::size_t off = 0;
    for (const cluster::Request& r : requests) {
      const auto p = heuristic.place(r, cloud.capacity_view(), topo);
      off += static_cast<std::size_t>(p && leaves_rack(*p, topo));
    }
    return static_cast<double>(off) / static_cast<double>(requests.size());
  };
  std::vector<cluster::LeaseId> live;
  std::uint64_t next_id = 0;
  std::size_t rounds = 0;
  double share = off_rack_share();
  for (; share < kOffRackShare && rounds < kMaxRounds; ++rounds) {
    for (std::size_t step = 0; step < kRoundSteps; ++step) {
      const cluster::Request r =
          workload::random_request(catalog, rng, 4, 10, next_id++);
      if (auto p = heuristic.place(r, cloud.capacity_view(), topo)) {
        live.push_back(cloud.grant(r, p->allocation));
      }
      if (!live.empty() && cloud.inventory().utilization() > kFullShare) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        cloud.release(live[k]);
        live[k] = live.back();
        live.pop_back();
      }
    }
    share = off_rack_share();
  }

  // The scan reads a copy of the churned view; the cloud does not change
  // while it is timed.
  const util::IntMatrix remaining = cloud.remaining();
  bool indexed_identical = true;
  for (const cluster::Request& r : requests) {
    if (!same_placement(heuristic.place(r, remaining, topo),
                        heuristic.place(r, cloud.capacity_view(), topo))) {
      indexed_identical = false;
    }
  }

  const std::size_t blocks = 10;
  const std::size_t serial_per_block = 40;
  const std::vector<Series> series = measure_interleaved(
      {{"serial", serial_per_block,
        [&](std::size_t i) {
          auto p = heuristic.place(requests[i % requests.size()], remaining,
                                   topo);
          if (p && p->distance < -1) std::abort();
        }},
       {"indexed", 10 * serial_per_block,
        [&](std::size_t i) {
          auto p = heuristic.place(requests[i % requests.size()],
                                   cloud.capacity_view(), topo);
          if (p && p->distance < -1) std::abort();
        }}},
      blocks);

  util::JsonObject o;
  o["name"] = "churned_10k";
  o["nodes"] = topo.node_count();
  o["racks"] = topo.rack_count();
  o["requests"] = requests.size();
  o["seed"] = seed;
  o["churn_steps"] = rounds * kRoundSteps;
  o["live_leases"] = live.size();
  o["utilization"] = cloud.inventory().utilization();
  o["off_rack_share"] = share;
  util::JsonArray arr;
  for (const Series& s : series) arr.push_back(series_json(s));
  o["series"] = util::Json(std::move(arr));
  o["indexed_identical"] = indexed_identical;
  const double serial_ops = series[0].ops_per_sec;
  const double indexed_ops = series[1].ops_per_sec;
  o["speedup_indexed_vs_serial"] =
      serial_ops > 0 ? indexed_ops / serial_ops : 0;

  std::cout << "churned_10k: " << rounds * kRoundSteps << " churn steps, "
            << share * 100 << "% of fills off the rack; serial " << serial_ops
            << " ops/s (" << series[0].mean_us << " us), indexed "
            << indexed_ops << " ops/s (" << series[1].mean_us << " us)"
            << (indexed_identical ? "" : "  [EQUIVALENCE FAILURE]") << "\n";
  return util::Json(std::move(o));
}

/// The quality gate behind the speed claim: sequentially fills a 320-node
/// Fig.-5 cloud twice — flat scan vs route-then-place — granting every
/// placement, and compares the mean DC of the granted clusters.  Routing
/// trades global scan breadth for cell locality; the gate holds that trade
/// to within 5% mean DC of flat.
util::Json run_routed_quality(std::uint64_t seed) {
  util::JsonObject o;
  o["name"] = "fig5_routed_quality_320n";
  double worst_ratio = 0;
  util::JsonArray per_seed;
  for (std::uint64_t s = seed; s < seed + 3; ++s) {
    util::Rng rng(s);
    const cluster::Topology topo = cluster::Topology::uniform(20, 16);
    const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
    const util::IntMatrix inventory =
        workload::random_inventory(topo, catalog, rng, 0, 4);
    const std::vector<cluster::Request> requests =
        workload::random_requests(catalog, rng, 40, 4, 10);

    placement::OnlineHeuristic flat;
    cluster::Cloud flat_cloud(topo, catalog, inventory);
    double flat_dc = 0;
    std::size_t flat_grants = 0;
    for (const cluster::Request& r : requests) {
      auto p = flat.place(r, flat_cloud.remaining(), topo);
      if (!p) continue;
      flat_cloud.grant(r, p->allocation);
      flat_dc += p->distance;
      ++flat_grants;
    }

    cluster::Cloud routed_cloud(topo, catalog, inventory);
    cell::CellPartitionOptions po;
    po.target_cells = 8;
    cell::CellDirectory directory(routed_cloud, po);
    cell::CellRouterOptions ro;
    ro.shortlist = 4;
    cell::RoutedPolicy routed(directory, ro);
    double routed_dc = 0;
    std::size_t routed_grants = 0;
    for (const cluster::Request& r : requests) {
      auto p = routed.place(r, routed_cloud.remaining(), topo);
      if (!p) continue;
      routed_cloud.grant(r, p->allocation);
      routed_dc += p->distance;
      ++routed_grants;
    }

    const double flat_mean =
        flat_grants > 0 ? flat_dc / static_cast<double>(flat_grants) : 0;
    const double routed_mean =
        routed_grants > 0 ? routed_dc / static_cast<double>(routed_grants) : 0;
    const double ratio = flat_mean > 0 ? routed_mean / flat_mean : 1.0;
    worst_ratio = std::max(worst_ratio, ratio);
    util::JsonObject e;
    e["seed"] = s;
    e["flat_grants"] = flat_grants;
    e["routed_grants"] = routed_grants;
    e["flat_mean_dc"] = flat_mean;
    e["routed_mean_dc"] = routed_mean;
    e["dc_ratio"] = ratio;
    per_seed.push_back(util::Json(std::move(e)));
  }
  o["per_seed"] = util::Json(std::move(per_seed));
  o["worst_dc_ratio"] = worst_ratio;
  o["dc_within_5pct"] = worst_ratio <= 1.05;
  std::cout << "fig5_routed_quality_320n: worst routed/flat mean-DC ratio "
            << worst_ratio << (worst_ratio <= 1.05 ? "" : "  [DC GATE FAILURE]")
            << "\n";
  return util::Json(std::move(o));
}

util::Json run_batch(std::uint64_t seed, bool quick) {
  // Algorithm 2 end-to-end: the Fig.-5 paper scenario batch through
  // GlobalSubOpt (online placement + Theorem-2 transfer fixpoint with the
  // dirty-pair worklist).
  const workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kBig);
  placement::GlobalSubOpt global;
  const std::size_t iters = quick ? 10 : 60;

  placement::BatchPlacement last;
  const Series s = measure("global_subopt_batch", iters, 2, [&](std::size_t) {
    last = global.place_batch(sc.requests, sc.capacity, sc.topology);
  });

  util::JsonObject o;
  o["name"] = "fig5_batch_paper";
  o["nodes"] = sc.topology.node_count();
  o["requests"] = sc.requests.size();
  o["admitted"] = last.admitted.size();
  o["transfers_applied"] = last.transfers_applied;
  o["total_distance"] = last.total_distance;
  o["series"] = util::Json(util::JsonArray{series_json(s)});
  std::cout << "fig5_batch_paper: " << s.ops_per_sec << " batches/s ("
            << last.transfers_applied << " transfers, total distance "
            << last.total_distance << ")\n";
  return util::Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_placement.json";
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
      std::cerr << "usage: perf_placement [--quick] [--out=FILE] [--seed=N]\n";
      return 2;
    }
  }

  // The registry is always on for perf runs: the sidecar next to the BENCH
  // JSON is part of the bench contract (same schema across all perf bins).
  obs::MetricsRegistry::global().set_enabled(true);
  std::cout << "perf_placement: quick=" << (quick ? "yes" : "no")
            << " seed=" << seed << "\n";

  // The paper scenario (3x10, the Fig.-5 setup), a "large" cloud of 100
  // nodes (the acceptance-criteria scenario), and a 320-node stretch run.
  std::vector<ScenarioSpec> specs = {
      {"fig5_paper_30n", 3, 10, seed, 400, true},
      {"fig5_large_100n", 10, 10, seed, 150, true},
      {"fig5_xl_320n", 20, 16, seed, 40, false},
  };

  util::JsonArray scenarios;
  bool all_equivalent = true;
  for (const ScenarioSpec& spec : specs) {
    if (quick && !spec.quick_included) continue;
    util::Json sj = run_scenario(spec, quick);
    all_equivalent = all_equivalent && sj.at("baseline_identical").as_bool() &&
                     sj.at("indexed_identical").as_bool();
    scenarios.push_back(std::move(sj));
  }

  // Route-then-place at cloud scale: both scenarios carry the ">= 10x
  // routed vs flat" gate; the 10k-node one also runs in --quick for the CI
  // smoke.
  std::vector<RoutedSpec> routed_specs = {
      {"routed_10k", 250, 40, 100, seed, 400, true},
      {"routed_100k", 2500, 40, 500, seed, 30, false},
  };
  util::JsonArray routed_scenarios;
  bool routed_gate_ok = true;
  bool routed_admission_ok = true;
  for (const RoutedSpec& spec : routed_specs) {
    if (quick && !spec.quick_included) continue;
    util::Json rj = run_routed_scenario(spec, quick);
    if (rj.at("speedup_routed_vs_flat").as_number() < 10.0) {
      routed_gate_ok = false;
    }
    routed_admission_ok =
        routed_admission_ok && rj.at("flat_admission_identical").as_bool();
    all_equivalent = all_equivalent && rj.at("indexed_identical").as_bool();
    routed_scenarios.push_back(std::move(rj));
  }
  // The churned 10k cloud, whose fills leave the rack: the class query's
  // off-rack tiers against the scan (full runs only).
  std::optional<util::Json> churned;
  if (!quick) {
    churned = run_churned_scenario(seed);
    all_equivalent =
        all_equivalent && churned->at("indexed_identical").as_bool();
  }
  util::Json routed_quality = run_routed_quality(seed);
  const bool dc_gate_ok = routed_quality.at("dc_within_5pct").as_bool();

  util::JsonObject root;
  root["schema"] = "vcopt-bench-placement/1";
  root["quick"] = quick;
  root["seed"] = seed;
  root["scenarios"] = util::Json(std::move(scenarios));
  root["routed_scenarios"] = util::Json(std::move(routed_scenarios));
  root["routed_quality"] = std::move(routed_quality);
  root["routed_10x_gate"] = routed_gate_ok;
  if (churned) root["churned"] = std::move(*churned);
  root["batch"] = run_batch(seed, quick);
  root["all_equivalent"] = all_equivalent;

  std::ofstream f(out_path);
  if (!f) {
    std::cerr << "perf_placement: cannot open " << out_path << "\n";
    return 1;
  }
  f << util::Json(std::move(root)).dump(2) << "\n";
  f.close();
  std::cout << "wrote " << out_path << "\n";

  const std::string sidecar_path = out_path + ".metrics.json";
  if (obs::write_metrics_sidecar_file(obs::MetricsRegistry::global(),
                                      sidecar_path, "perf_placement")) {
    std::cout << "wrote " << sidecar_path << "\n";
  } else {
    std::cerr << "perf_placement: cannot open " << sidecar_path << "\n";
    return 1;
  }

  if (!all_equivalent) {
    std::cerr << "perf_placement: EQUIVALENCE FAILURE — optimized placement "
                 "diverged from the pre-PR baseline\n";
    return 1;
  }
  if (!routed_admission_ok) {
    std::cerr << "perf_placement: ADMISSION FAILURE — route-then-place "
                 "refused (or granted) a request the flat scan decided "
                 "differently\n";
    return 1;
  }
  if (!routed_gate_ok) {
    std::cerr << "perf_placement: ROUTED GATE FAILURE — routed placement is "
                 "not >= 10x the flat scan at 10k nodes\n";
    return 1;
  }
  if (!dc_gate_ok) {
    std::cerr << "perf_placement: DC GATE FAILURE — routed mean DC exceeds "
                 "flat by more than 5% on the 320-node Fig.-5 scenarios\n";
    return 1;
  }
  return 0;
}
