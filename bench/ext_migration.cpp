// Extension experiment: affinity-aware VM migration (paper §VI(2) cites
// migration for communication-overhead reduction; §VII asks how placement
// should react when the cloud reconfigures).  After a churn phase leaves
// surviving virtual clusters scattered, a consolidation pass (Theorem-1
// hill climbing into freed capacity) tightens them — we report the distance
// recovered per migration.
#include <iostream>

#include "bench_common.h"
#include "placement/migration.h"
#include "placement/provisioner.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Ext", "Post-churn consolidation via VM migration", seed);

  const workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  util::Rng rng(seed ^ 0x77ULL);

  // Churn phase: admit a wave of tenants, then release a random half —
  // survivors keep allocations shaped by the departed tenants' pressure.
  cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
  placement::Provisioner prov(cloud,
                              placement::make_policy("online-heuristic"));
  std::vector<placement::Grant> grants;
  const auto wave = workload::random_requests(sc.catalog, rng, 40, 0, 3);
  for (const auto& r : wave) {
    auto g = prov.request(r);
    if (g) grants.push_back(std::move(*g));
  }
  std::vector<placement::Grant> survivors;
  for (auto& g : grants) {
    if (rng.bernoulli(0.5)) {
      cloud.release(g.lease);
    } else {
      survivors.push_back(std::move(g));
    }
  }

  // Consolidation pass over the survivors.
  util::IntMatrix remaining = cloud.remaining();
  util::Samples before, after;
  std::size_t migrations = 0;
  std::size_t improved = 0;
  for (placement::Grant& g : survivors) {
    placement::Placement p = g.placement;
    const placement::BudgetedConsolidation res =
        placement::consolidate_budgeted(p, remaining, sc.topology);
    before.add(res.distance_before);
    after.add(res.distance_after);
    migrations += res.moves.size();
    if (res.improvement() > 0) ++improved;
  }

  util::TableWriter t({"Surviving clusters", "Total DC before",
                       "Total DC after", "Improved", "Migrations",
                       "DC saved per migration"});
  const double saved = before.sum() - after.sum();
  t.row()
      .cell(survivors.size())
      .cell(before.sum(), 1)
      .cell(after.sum(), 1)
      .cell(std::to_string(improved) + "/" + std::to_string(survivors.size()))
      .cell(migrations)
      .cell(migrations > 0 ? saved / static_cast<double>(migrations) : 0, 2);
  t.print(std::cout);
  std::cout << "\nEach migration is a Theorem-1 move into capacity freed by\n"
               "departed tenants; the summed affinity of the surviving\n"
               "clusters improves by "
            << util::format_double(
                   before.sum() > 0 ? 100 * saved / before.sum() : 0, 1)
            << " % without touching their VM counts.\n";
  return 0;
}
