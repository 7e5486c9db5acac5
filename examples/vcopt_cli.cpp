// vcopt_cli — command-line driver for the library, in the spirit of a cloud
// operator's capacity tool.  Two subcommands:
//
//   vcopt_cli place [--policy P] [--seed N] [--small S --medium M --large L]
//       [--cloud cloud.json]
//       provision one request against a random (or JSON-described) cloud
//       and print the allocation, central node and distance.
//
//   vcopt_cli sim [--policy P] [--seed N] [--requests K] [--scale big|medium|small]
//       [--discipline fifo|priority|smallest-first] [--csv]
//       [--trace trace.json] [--save-trace trace.json]
//       [--fault-profile none|light|heavy|key=value,...]
//       replay a Poisson request trace (or one loaded from JSON) through
//       the churn simulator and print summary metrics (per-grant CSV with
//       --csv, or the state-change timeline with --timeline).  With
//       --fault-profile, node crashes / rack outages / transient
//       degradations are injected on the same event clock and lost VMs are
//       re-placed by the affinity-preserving repair loop; the summary gains
//       a fault/repair section (see docs/robustness.md).  --rebalance
//       additionally attaches the budgeted self-healing rebalancer
//       (tunables --rebalance-period/-budget/-drift-ratio/-cooldown;
//       --rebalance-transcript prints the deterministic event transcript).
//
//   vcopt_cli serve [--seed N] [--scale big|medium|small] [--cloud cloud.json]
//       [--max-batch B] [--max-wait S] [--queue-capacity C]
//       [--discipline fifo|priority|smallest-first] [--policy P]
//       [--journal FILE] [--grants-out FILE] | [--replay FILE]
//       run the micro-batching placement service over NDJSON requests from
//       stdin, one JSON object per line:
//         {"counts":[2,4,1],"id":7,"priority":3,"deadline":1.5,
//          "class":"batch","time":0.25}
//       (only "counts" is required; "time" advances the virtual clock, and
//       {"type":"release","lease":L} / {"type":"advance","time":T} lines
//       return leases / move time without submitting).  Decided outcome
//       records stream to stdout as NDJSON; --journal writes the write-ahead
//       journal and --replay re-executes one instead of serving stdin
//       (see docs/service.md).  --rebalance enables the journaled
//       drift-repair pass (budgeted live migration between windows, planned
//       off the DC the cloud keeps on each lease; no telemetry needed).
//
//   vcopt_cli export [--seed N] [--out cloud.json]
//       write the generated random cloud as a JSON description that
//       `place --cloud` accepts (edit it to match a real inventory).
//
//   vcopt_cli quickstart
//       end-to-end narrated run (provisioner grants + ILP cross-check +
//       churn sim) — the scenario docs/observability.md profiles.
//
//   vcopt_cli stats [--in telemetry.json]
//       render the text dashboard (per-stage service latency, time-series
//       summaries, SLO burn-rate status) from a telemetry bundle written by
//       serve/sim --telemetry-out.
//
// Observability (any subcommand): --metrics-out=FILE dumps a metrics
// snapshot as JSON on exit, --trace-out=FILE writes a Chrome trace_event
// file loadable in chrome://tracing / Perfetto, --telemetry-out=FILE writes
// the full telemetry bundle (metrics + time series + SLOs, the input of
// `vcopt_cli stats`), --prometheus-out=FILE writes the metrics snapshot and
// series last-values in Prometheus text exposition format.  serve also takes
// --stats-interval=S to emit an SLO snapshot (one JSON line on stderr) every
// S virtual seconds.  The same collection can be forced globally with
// VCOPT_METRICS=1 / VCOPT_TRACE=FILE / VCOPT_TIMESERIES=1.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cell/directory.h"
#include "cell/routed_policy.h"
#include "fault/fault_sim.h"
#include "rebalance/rebalance_sim.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "sim/timeline_writer.h"
#include "solver/sd_solver.h"
#include "util/json.h"
#include "util/table.h"
#include "workload/config.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace {

using namespace vcopt;

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    // Both --key=value and --key value are accepted.
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "1";
    }
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// The drift-repair policy's flags, read the same way for `sim --rebalance`
// (the Rebalancer) and `serve --rebalance` (the service's pass).  Each
// command passes its own defaults: the policy its options start with.
placement::RebalancePolicy rebalance_policy_flags(
    const std::map<std::string, std::string>& flags,
    placement::RebalancePolicy policy) {
  if (flags.count("rebalance-period")) {
    policy.tick_period = std::stod(flags.at("rebalance-period"));
  }
  if (flags.count("rebalance-budget")) {
    policy.max_moves_per_round = std::stoull(flags.at("rebalance-budget"));
  }
  if (flags.count("rebalance-drift-ratio")) {
    policy.drift_ratio = std::stod(flags.at("rebalance-drift-ratio"));
  }
  if (flags.count("rebalance-cooldown")) {
    policy.lease_cooldown = std::stod(flags.at("rebalance-cooldown"));
  }
  return policy;
}

// Set when a subcommand already wrote --telemetry-out itself (serve and sim
// include their SLO tracker, which dies with the subcommand scope); main()
// then skips its SLO-less fallback write.
bool g_telemetry_written = false;

bool write_telemetry_flag(const std::map<std::string, std::string>& flags,
                          const obs::SloTracker* slo, double now) {
  if (!flags.count("telemetry-out")) return true;
  const std::string& path = flags.at("telemetry-out");
  if (!obs::write_telemetry_file(path, obs::MetricsRegistry::global(),
                                 obs::Recorder::global(), slo, now)) {
    std::cerr << "could not write telemetry to " << path << "\n";
    return false;
  }
  std::cerr << "telemetry written to " << path << "\n";
  g_telemetry_written = true;
  return true;
}

int cmd_place(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = std::stoull(flag(flags, "seed", "2"));
  workload::CloudSpec spec = [&] {
    if (flags.count("cloud")) {
      return workload::load_cloud_file(flags.at("cloud"));
    }
    workload::SimScenario sc =
        workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
    return workload::CloudSpec{std::move(sc.topology), std::move(sc.catalog),
                               std::move(sc.capacity)};
  }();
  std::vector<int> counts(spec.catalog.size(), 0);
  if (spec.catalog.size() == 3) {
    counts = {std::stoi(flag(flags, "small", "2")),
              std::stoi(flag(flags, "medium", "4")),
              std::stoi(flag(flags, "large", "1"))};
  } else {
    counts[0] = std::stoi(flag(flags, "small", "2"));
  }
  const cluster::Request request(std::move(counts));
  auto policy = placement::make_policy(flag(flags, "policy", "online-heuristic"));
  const auto placed = policy->place(request, spec.capacity, spec.topology);
  if (!placed) {
    std::cerr << "request " << request.describe() << " is infeasible\n";
    return 1;
  }
  const auto& sc = spec;  // keep the print block uniform
  std::cout << "cloud:      " << sc.topology.describe() << " (seed " << seed
            << ")\n"
            << "request:    " << request.describe() << "\n"
            << "policy:     " << policy->name() << "\n"
            << "allocation: " << placed->allocation.describe() << "\n"
            << "central:    N" << placed->central << " (rack R"
            << sc.topology.rack_of(placed->central) << ")\n"
            << "distance:   " << placed->distance << "\n";
  return 0;
}

int cmd_export(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = std::stoull(flag(flags, "seed", "2"));
  const std::string out = flag(flags, "out", "cloud.json");
  const workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  workload::save_cloud_file(out, sc.topology, sc.catalog, sc.capacity);
  std::cout << "wrote " << sc.topology.describe() << " to " << out << "\n";
  return 0;
}

int cmd_sim(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = std::stoull(flag(flags, "seed", "2"));
  const std::size_t n_requests = std::stoull(flag(flags, "requests", "100"));
  const std::string scale_name = flag(flags, "scale", "medium");
  workload::RequestScale scale = workload::RequestScale::kMedium;
  if (scale_name == "big") scale = workload::RequestScale::kBig;
  else if (scale_name == "small") scale = workload::RequestScale::kSmall;
  else if (scale_name != "medium") {
    std::cerr << "unknown --scale " << scale_name << "\n";
    return 2;
  }
  const std::string disc_name = flag(flags, "discipline", "fifo");
  fault::FaultSimOptions opt;
  if (disc_name == "priority") {
    opt.discipline = placement::QueueDiscipline::kPriority;
  } else if (disc_name == "smallest-first") {
    opt.discipline = placement::QueueDiscipline::kSmallestFirst;
  } else if (disc_name != "fifo") {
    std::cerr << "unknown --discipline " << disc_name << "\n";
    return 2;
  }

  workload::SimScenario sc = workload::paper_sim_scenario(seed, scale);
  // --racks R --nodes-per-rack P: replace the paper's 30-node topology with
  // a uniform R×P cloud (random inventory, seeded) — the cell-soak CI job
  // uses this to drive routed placement on 10k-node clouds.
  if (flags.count("racks") || flags.count("nodes-per-rack")) {
    const std::size_t racks = std::stoull(flag(flags, "racks", "3"));
    const std::size_t npr = std::stoull(flag(flags, "nodes-per-rack", "10"));
    cluster::Topology topo = cluster::Topology::uniform(racks, npr);
    util::Rng inv_rng(seed ^ 0x70b0ULL);
    sc.capacity = workload::random_inventory(topo, sc.catalog, inv_rng, 0, 3);
    sc.topology = std::move(topo);
  }
  util::Rng rng(seed ^ 0xc11ULL);
  const int max_per_type = scale == workload::RequestScale::kSmall ? 2 : 4;
  const std::vector<cluster::TimedRequest> trace = [&] {
    if (flags.count("trace")) {
      return workload::load_trace_file(flags.at("trace"));
    }
    const auto requests = workload::random_requests(sc.catalog, rng,
                                                    n_requests, 0, max_per_type);
    return workload::poisson_trace(requests, rng, 3.0, 30.0);
  }();
  if (flags.count("save-trace")) {
    workload::save_trace_file(flags.at("save-trace"), trace);
  }

  cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);

  // --cells N / --cell-size S: route-then-place (docs/cells.md) — the sim's
  // policy becomes a RoutedPolicy over a sketch directory that tracks every
  // capacity mutation (grants, releases, faults, migrations) of this cloud.
  const std::size_t cells = std::stoull(flag(flags, "cells", "0"));
  const std::size_t cell_size = std::stoull(flag(flags, "cell-size", "0"));
  std::unique_ptr<cell::CellDirectory> cell_dir;
  const auto make_sim_policy =
      [&]() -> std::unique_ptr<placement::PlacementPolicy> {
    if (cells == 0 && cell_size == 0) {
      return placement::make_policy(flag(flags, "policy", "online-heuristic"));
    }
    obs::MetricsRegistry::global().set_enabled(true);  // cell/* counters
    if (!cell_dir) {
      cell::CellPartitionOptions po;
      po.target_cells = cells;
      po.cell_size = cell_size;
      cell_dir = std::make_unique<cell::CellDirectory>(cloud, po);
      std::cerr << "cells: " << cell_dir->partition().describe() << "\n";
    }
    cell::CellRouterOptions ro;
    ro.shortlist = std::stoull(flag(flags, "route-shortlist", "2"));
    return std::make_unique<cell::RoutedPolicy>(*cell_dir, ro);
  };

  // One simulation call: plain churn is the quiet profile.  --fault-profile
  // or --rebalance switch the summary to the fault/repair story.
  const bool faulted = flags.count("fault-profile") || flags.count("rebalance");
  const fault::FaultProfile profile =
      fault::FaultProfile::parse(flag(flags, "fault-profile", "none"));
  opt.recorder = &obs::Recorder::global();
  obs::SloTracker slo;
  opt.slo = &slo;
  // --rebalance attaches the budgeted self-healing rebalancer to the same
  // event queue; its round/migration story prints after the fault summary,
  // and --rebalance-transcript dumps the deterministic one-line-per-event
  // transcript CI diffs across runs.
  std::optional<rebalance::RebalanceSimResult> reb;
  fault::FaultSimResult res;
  if (flags.count("rebalance")) {
    rebalance::RebalanceSimOptions ropt;
    ropt.fault = opt;
    ropt.policy = rebalance_policy_flags(flags, ropt.policy);
    ropt.seed = seed;
    reb = rebalance::run_rebalance_sim(cloud, make_sim_policy(), trace,
                                       profile, ropt);
    res = std::move(reb->fault);
  } else {
    res = fault::run_fault_sim(cloud, make_sim_policy(), trace, profile, opt);
  }
  if (!write_telemetry_flag(flags, &slo, res.makespan)) return 1;

  if (flags.count("timeline")) {
    sim::TimelineWriter(res.timeline,
                        cloud.inventory().max_capacity().total())
        .write_csv(std::cout);
    return 0;
  }
  if (flags.count("timeline-out")) {
    sim::TimelineWriter writer(res.timeline,
                               cloud.inventory().max_capacity().total());
    if (!writer.write_csv_file(flags.at("timeline-out"))) {
      std::cerr << "could not write " << flags.at("timeline-out") << "\n";
      return 1;
    }
  }

  if (flags.count("csv")) {
    util::TableWriter t({"request_id", "arrival", "granted", "released",
                         "wait", "distance", "central", "vms"});
    for (const sim::GrantRecord& g : res.grants) {
      t.row()
          .cell(g.request_id)
          .cell(g.arrival, 3)
          .cell(g.granted, 3)
          .cell(g.released, 3)
          .cell(g.wait(), 3)
          .cell(g.distance, 1)
          .cell(g.central)
          .cell(g.vms);
    }
    t.print_csv(std::cout);
    return 0;
  }

  if (cell_dir) {
    auto& reg = obs::MetricsRegistry::global();
    std::cout << "cells:         routed " << reg.counter("cell/routed").value()
              << ", pruned " << reg.counter("cell/pruned").value()
              << ", spilled " << reg.counter("cell/spilled").value()
              << ", flat fallback " << reg.counter("cell/fallback_flat").value()
              << "\n";
  }
  if (!faulted) {
    std::cout << "served:        " << res.grants.size() << "/" << trace.size()
              << " (rejected " << res.rejected << ", unserved " << res.unserved
              << ")\n"
              << "total DC:      " << res.total_distance << "\n"
              << "mean DC:       "
              << (res.grants.empty()
                      ? 0
                      : res.total_distance / double(res.grants.size()))
              << "\n"
              << "mean wait:     " << res.mean_wait << " s\n"
              << "utilisation:   " << res.mean_utilization * 100 << " %\n"
              << "makespan:      " << res.makespan << " s\n";
    return 0;
  }
  std::cout << "fault profile: " << profile.describe() << "\n"
            << "served:        " << res.grants.size() << "/" << trace.size()
            << " (rejected " << res.rejected << ", unserved " << res.unserved
            << ")\n"
            << "faults:        " << res.node_crashes << " node crashes, "
            << res.rack_outages << " rack outages, " << res.transients
            << " transients (" << res.node_recoveries << " recoveries)\n"
            << "repairs:       " << res.leases_hit << " leases hit, "
            << res.vms_lost << " VMs lost, " << res.vms_replaced
            << " replaced (" << res.repaired << " full, " << res.partial
            << " partial, " << res.degraded << " degraded, " << res.abandoned
            << " abandoned)\n"
            << "DC penalty:    " << res.repair_distance_penalty << "\n"
            << "total DC:      " << res.total_distance << "\n"
            << "mean wait:     " << res.mean_wait << " s\n"
            << "utilisation:   " << res.mean_utilization * 100 << " %\n"
            << "makespan:      " << res.makespan << " s\n";
  if (reb) {
    std::cout << "rebalance:     " << reb->rounds.size() << " rounds ("
              << reb->rounds_deferred << " deferred), "
              << reb->migrations_committed << " migrations committed, "
              << reb->migrations_failed << " failed, net gain "
              << reb->net_gain << (reb->disabled ? ", DISABLED" : "") << "\n";
    if (flags.count("rebalance-transcript")) std::cout << reb->transcript;
  }
  return 0;
}

// The placement service as a process: NDJSON requests in, NDJSON outcome
// records out, with the write-ahead journal and its replay exposed as flags.
// Runs the deterministic virtual clock, so a piped request file always
// produces the same grants (and the same journal bytes).
int cmd_serve(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = std::stoull(flag(flags, "seed", "2"));
  const workload::CloudSpec spec = [&] {
    if (flags.count("cloud")) {
      return workload::load_cloud_file(flags.at("cloud"));
    }
    const std::string scale_name = flag(flags, "scale", "big");
    workload::RequestScale scale = workload::RequestScale::kBig;
    if (scale_name == "medium") scale = workload::RequestScale::kMedium;
    else if (scale_name == "small") scale = workload::RequestScale::kSmall;
    else if (scale_name != "big") {
      throw std::invalid_argument("unknown --scale " + scale_name);
    }
    workload::SimScenario sc = workload::paper_sim_scenario(seed, scale);
    return workload::CloudSpec{std::move(sc.topology), std::move(sc.catalog),
                               std::move(sc.capacity)};
  }();
  cluster::Cloud cloud(spec.topology, spec.catalog, spec.capacity);

  service::ServiceOptions options;
  options.max_batch = std::stoull(flag(flags, "max-batch", "8"));
  options.max_wait = std::stod(flag(flags, "max-wait", "0.01"));
  options.queue_capacity = std::stoull(flag(flags, "queue-capacity", "256"));
  options.policy = flag(flags, "policy", "online-heuristic");
  // --cells N / --cell-size S: sharded cell serving — requests are routed
  // to a cell at admission and windows close per cell (docs/cells.md).
  options.cells = std::stoull(flag(flags, "cells", "0"));
  options.cell_size = std::stoull(flag(flags, "cell-size", "0"));
  options.route_shortlist =
      std::stoull(flag(flags, "route-shortlist", "2"));
  if (options.cell_mode()) {
    obs::MetricsRegistry::global().set_enabled(true);  // cell/* counters
  }
  options.recorder = &obs::Recorder::global();
  const std::string disc_name = flag(flags, "discipline", "fifo");
  if (disc_name == "priority") {
    options.discipline = placement::QueueDiscipline::kPriority;
  } else if (disc_name == "smallest-first") {
    options.discipline = placement::QueueDiscipline::kSmallestFirst;
  } else if (disc_name != "fifo") {
    std::cerr << "unknown --discipline " << disc_name << "\n";
    return 2;
  }
  // --rebalance: the journaled drift-repair pass — budgeted live migration
  // planned off each lease's DC record in the cloud, written ahead to the
  // journal so --replay reproduces the exact same moves.
  if (flags.count("rebalance")) {
    options.rebalance = true;
    options.rebalance_policy =
        rebalance_policy_flags(flags, options.rebalance_policy);
  }

  const auto write_grants = [&](std::string grants) {
    if (!flags.count("grants-out")) return true;
    std::ofstream g(flags.at("grants-out"));
    if (!g) {
      std::cerr << "could not write " << flags.at("grants-out") << "\n";
      return false;
    }
    g << grants;
    return true;
  };

  // --replay FILE: re-execute a journal on the fresh cloud instead of
  // serving stdin; prints the reproduced grant stream.
  if (flags.count("replay")) {
    const std::string& path = flags.at("replay");
    std::ifstream in(path);
    if (!in) {
      std::cerr << "could not read " << path << "\n";
      return 1;
    }
    const service::ReplayResult res =
        service::replay_journal(service::parse_journal(in, path), cloud,
                                options);
    std::cout << res.grants;
    if (!write_grants(res.grants)) return 1;
    std::cerr << "replayed " << res.windows << " windows, " << res.releases
              << " releases, " << res.migrations << " migrations, total DC "
              << res.total_distance << "\n";
    return 0;
  }

  std::ofstream journal_file;
  if (flags.count("journal")) {
    journal_file.open(flags.at("journal"));
    if (!journal_file) {
      std::cerr << "could not write " << flags.at("journal") << "\n";
      return 1;
    }
    options.journal = &journal_file;
  }

  service::PlacementService svc(cloud, options);
  std::vector<service::Outcome> outcomes;
  const auto drain = [&] {
    for (service::Outcome& o : svc.take_outcomes()) {
      std::cout << service::outcome_to_json(o).dump(0) << "\n";
      outcomes.push_back(std::move(o));
    }
  };

  // --stats-interval=S: an SLO snapshot as one JSON line on stderr every S
  // virtual seconds (the smoke checks parse these and assert no alert).
  const double stats_interval =
      std::stod(flag(flags, "stats-interval", "0"));
  double next_stats = stats_interval;
  const auto maybe_stats = [&] {
    if (stats_interval <= 0) return;
    while (svc.now() >= next_stats) {
      std::cerr << svc.slo().snapshot_json(next_stats).dump(0) << "\n";
      next_stats += stats_interval;
    }
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(std::cin, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const util::Json j = util::Json::parse(line);
      const std::string type =
          j.contains("type") ? j.at("type").as_string() : "submit";
      if (type == "release") {
        svc.release(
            static_cast<cluster::LeaseId>(j.at("lease").as_number()));
      } else if (type == "advance") {
        svc.advance_to(j.at("time").as_number());
      } else if (type == "submit") {
        if (j.contains("time")) svc.advance_to(j.at("time").as_number());
        std::vector<int> counts;
        for (const util::Json& c : j.at("counts").as_array()) {
          counts.push_back(c.as_int());
        }
        const std::uint64_t id =
            j.contains("id")
                ? static_cast<std::uint64_t>(j.at("id").as_number())
                : line_no;
        service::SubmitOptions o;
        if (j.contains("priority")) o.priority = j.at("priority").as_int();
        if (j.contains("deadline")) o.deadline = j.at("deadline").as_number();
        if (j.contains("class")) {
          const auto klass =
              service::parse_request_class(j.at("class").as_string());
          if (!klass) {
            throw std::invalid_argument("unknown class '" +
                                        j.at("class").as_string() + "'");
          }
          o.klass = *klass;
        }
        const service::SubmitReceipt receipt =
            svc.submit(cluster::Request(std::move(counts), id), o);
        if (receipt.admission != service::AdmissionStatus::kAccepted) {
          // Not accepted => no Outcome will ever arrive; report the verdict
          // inline so every input line gets an answer.
          util::JsonObject rej;
          rej["id"] = id;
          rej["status"] = service::to_string(receipt.admission);
          rej["type"] = "admission";
          std::cout << util::Json(std::move(rej)).dump(0) << "\n";
        }
      } else {
        throw std::invalid_argument("unknown record type '" + type + "'");
      }
    } catch (const std::exception& e) {
      std::cerr << "stdin:" << line_no << ": " << e.what() << "\n";
      return 1;
    }
    drain();
    maybe_stats();
  }
  svc.stop();
  drain();
  if (stats_interval > 0) {
    // Final snapshot at the stop-time clock, so short runs still report.
    std::cerr << svc.slo().snapshot_json(svc.now()).dump(0) << "\n";
  }
  if (!write_grants(service::grant_stream(outcomes))) return 1;
  if (!write_telemetry_flag(flags, &svc.slo(), svc.now())) return 1;

  const service::ServiceStats stats = svc.stats();
  std::cerr << "serve: accepted " << stats.accepted << ", shed " << stats.shed
            << ", queue-full " << stats.queue_full << ", deadline-missed "
            << stats.deadline_missed << ", windows " << stats.windows
            << ", decided " << stats.decided << "\n";
  if (options.rebalance) {
    std::cerr << "serve: rebalance passes " << stats.rebalance_passes
              << ", migrations " << stats.rebalance_migrations << "\n";
  }
  if (options.cell_mode()) {
    auto& reg = obs::MetricsRegistry::global();
    std::cerr << "serve: cells routed " << reg.counter("cell/routed").value()
              << ", pruned " << reg.counter("cell/pruned").value()
              << ", unroutable " << reg.counter("cell/unroutable").value()
              << ", window spills "
              << reg.counter("cell/window_spills").value() << "\n";
  }
  return 0;
}

// Render the text dashboard from a telemetry bundle on disk.
int cmd_stats(const std::map<std::string, std::string>& flags) {
  const std::string path = flag(flags, "in", "telemetry.json");
  std::ifstream in(path);
  if (!in) {
    std::cerr << "could not read " << path << "\n";
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  obs::render_stats(util::Json::parse(text), std::cout);
  return 0;
}

// End-to-end quickstart: the README's 2x4 cloud, a burst of requests
// through the provisioner (some queue, so release-time drains happen), an
// ILP cross-check of the first placement, and a short churn sim.  Exercises
// every instrumented layer, which makes it the canonical scenario for
// --metrics-out / --trace-out.
int cmd_quickstart(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = std::stoull(flag(flags, "seed", "2"));
  cluster::Topology topology = cluster::Topology::uniform(2, 4);
  cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  util::IntMatrix capacity(topology.node_count(), catalog.size());
  for (std::size_t i = 0; i < capacity.rows(); ++i) {
    capacity(i, 0) = 2;
    capacity(i, 1) = 2;
    capacity(i, 2) = 1;
  }
  cluster::Cloud cloud(std::move(topology), std::move(catalog),
                       std::move(capacity));
  std::cout << "cloud: " << cloud.describe() << "\n";

  placement::Provisioner prov(cloud,
                              std::make_unique<placement::OnlineHeuristic>());
  // Fig. 1's request plus two more; the third overcommits the free pool and
  // waits in the queue until a release drains it.
  const std::vector<cluster::Request> burst{
      cluster::Request({2, 4, 1}, 1), cluster::Request({4, 6, 2}, 2),
      cluster::Request({8, 4, 4}, 3)};
  std::vector<cluster::LeaseId> leases;
  for (const cluster::Request& r : burst) {
    if (const auto g = prov.request(r)) {
      std::cout << "granted " << r.describe() << ": central N"
                << g->placement.central << ", DC=" << g->placement.distance
                << "\n";
      leases.push_back(g->lease);
    } else {
      std::cout << "queued  " << r.describe() << " (queue depth "
                << prov.queue_length() << ")\n";
    }
  }
  // Cross-validate the greedy SD solution against the exact ILP.
  const solver::SdResult exact = solver::solve_sd_ilp(
      burst[0], cloud.remaining(), cloud.topology().distance_matrix());
  std::cout << "ILP cross-check on a follow-up request: "
            << (exact.feasible
                    ? "DC=" + util::format_double(exact.distance, 1)
                    : std::string("infeasible (pool is busy)"))
            << "\n";
  for (const cluster::LeaseId lease : leases) {
    for (const auto& g : prov.release(lease)) {
      std::cout << "drained request " << g.request_id << " on release\n";
    }
  }

  // A short churn sim over the same cloud shape.
  const workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kSmall);
  util::Rng rng(seed ^ 0xc11ULL);
  const auto requests = workload::random_requests(sc.catalog, rng, 40, 0, 2);
  const auto trace = workload::poisson_trace(requests, rng, 3.0, 30.0);
  cluster::Cloud sim_cloud(sc.topology, sc.catalog, sc.capacity);
  const fault::FaultSimResult res = fault::run_fault_sim(
      sim_cloud, std::make_unique<placement::OnlineHeuristic>(), trace);
  std::cout << "sim: served " << res.grants.size() << "/" << trace.size()
            << ", mean wait " << util::format_double(res.mean_wait, 2)
            << " s, utilisation "
            << util::format_double(res.mean_utilization * 100, 1) << " %\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: vcopt_cli <place|sim|serve|export|stats|quickstart> [--flags]\n"
                 "  place: --policy P --seed N --small S --medium M --large L\n"
                 "  sim:   --policy P --seed N --requests K --scale big|medium|small\n"
                 "         --racks R --nodes-per-rack P (uniform R*P cloud instead\n"
                 "         of the paper scenario; random seeded inventory)\n"
                 "         --cells N | --cell-size S [--route-shortlist K]\n"
                 "         (route-then-place over a sharded cell directory)\n"
                 "         --discipline fifo|priority|smallest-first --csv\n"
                 "         --timeline | --timeline-out=FILE\n"
                 "         --fault-profile none|light|heavy|key=value,...\n"
                 "         --rebalance [--rebalance-period S] [--rebalance-budget N]\n"
                 "         [--rebalance-drift-ratio R] [--rebalance-cooldown S]\n"
                 "         [--rebalance-transcript] (self-healing rebalancer)\n"
                 "  serve: NDJSON requests on stdin -> NDJSON outcomes on stdout\n"
                 "         --max-batch B --max-wait S --queue-capacity C\n"
                 "         --cells N | --cell-size S (per-cell decision windows)\n"
                 "         --discipline fifo|priority|smallest-first --policy P\n"
                 "         --journal FILE --grants-out FILE | --replay FILE\n"
                 "         --stats-interval S (SLO snapshot lines on stderr)\n"
                 "         --rebalance (journaled drift-repair pass off each lease's\n"
                 "         DC; same knobs)\n"
                 "  stats: --in telemetry.json (dashboard from --telemetry-out)\n"
                 "  any:   --metrics-out=FILE --trace-out=FILE\n"
                 "         --telemetry-out=FILE --prometheus-out=FILE\n";
    return 2;
  }
  // Flags with no subcommand run the quickstart scenario, so
  // `vcopt_cli --metrics-out=m.json --trace-out=t.json` profiles it directly.
  const bool bare_flags = std::strncmp(argv[1], "--", 2) == 0;
  const std::string cmd = bare_flags ? "quickstart" : argv[1];
  const auto flags = parse_flags(argc, argv, bare_flags ? 1 : 2);
  // Observability must be armed before the command runs so the hot paths
  // record into the global registry/tracer.
  if (flags.count("metrics-out") || flags.count("telemetry-out") ||
      flags.count("prometheus-out")) {
    obs::MetricsRegistry::global().set_enabled(true);
  }
  if (flags.count("telemetry-out") || flags.count("prometheus-out")) {
    obs::Recorder::global().set_enabled(true);
    obs::MetricsRegistry::global().set_enabled(true);
  }
  if (flags.count("trace-out")) obs::Tracer::global().set_enabled(true);

  int rc = 2;
  try {
    if (cmd == "place") rc = cmd_place(flags);
    else if (cmd == "sim") rc = cmd_sim(flags);
    else if (cmd == "serve") rc = cmd_serve(flags);
    else if (cmd == "export") rc = cmd_export(flags);
    else if (cmd == "stats") rc = cmd_stats(flags);
    else if (cmd == "quickstart") rc = cmd_quickstart(flags);
    else {
      std::cerr << "unknown command '" << cmd << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  }

  if (flags.count("metrics-out")) {
    const std::string& path = flags.at("metrics-out");
    if (obs::MetricsRegistry::global().write_json_file(path)) {
      std::cerr << "metrics written to " << path << "\n";
    } else {
      std::cerr << "could not write metrics to " << path << "\n";
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (flags.count("trace-out")) {
    const std::string& path = flags.at("trace-out");
    if (obs::Tracer::global().write_file(path)) {
      std::cerr << "trace written to " << path << "\n";
    } else {
      std::cerr << "could not write trace to " << path << "\n";
      rc = rc == 0 ? 1 : rc;
    }
  }
  // Commands that own an SloTracker (serve, sim --fault-profile) write the
  // bundle themselves before the tracker dies; everything else falls through
  // to an SLO-less bundle here.
  if (!g_telemetry_written && !write_telemetry_flag(flags, nullptr, 0)) {
    rc = rc == 0 ? 1 : rc;
  }
  if (flags.count("prometheus-out")) {
    const std::string& path = flags.at("prometheus-out");
    std::ofstream out(path);
    if (out) {
      out << obs::MetricsRegistry::global().prometheus_text()
          << obs::Recorder::global().prometheus_text();
    }
    if (out) {
      std::cerr << "prometheus text written to " << path << "\n";
    } else {
      std::cerr << "could not write prometheus text to " << path << "\n";
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
