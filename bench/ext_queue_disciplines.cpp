// Extension experiment: wait-queue service disciplines (§III.C notes the
// queue may be served "priority-based or FIFO").  The same heavy-tailed
// request trace is replayed under each discipline; smallest-first trims the
// mean wait by letting small clusters slip past blocked giants, priority
// protects the urgent class, FIFO is the fairness baseline.
#include <iostream>

#include "bench_common.h"
#include "fault/fault_sim.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace vcopt;
  const std::uint64_t seed = bench::seed_from_args(argc, argv, 2);
  bench::banner("Ext", "Wait-queue disciplines under a heavy-tailed trace",
                seed);

  const workload::SimScenario sc =
      workload::paper_sim_scenario(seed, workload::RequestScale::kMedium);
  util::Rng rng(seed ^ 0x51ULL);

  // Heavy-tailed mix: 1-in-4 requests is a giant, the rest are small; every
  // third request is marked urgent (priority 1).
  std::vector<cluster::TimedRequest> trace;
  double t = 0;
  for (std::uint64_t i = 0; i < 150; ++i) {
    const bool giant = rng.bernoulli(0.25);
    const cluster::Request r =
        giant ? workload::random_request(sc.catalog, rng, 4, 8, i)
              : workload::random_request(sc.catalog, rng, 0, 2, i);
    const cluster::Request prioritised(r.counts(), i,
                                       i % 3 == 0 ? 1 : 0);
    t += rng.exponential(1.0);
    trace.push_back({prioritised, t, rng.exponential(60.0)});
  }

  util::TableWriter tbl({"Discipline", "Served", "Mean wait (s)",
                         "P95 wait (s)", "Mean wait urgent (s)",
                         "Utilisation (%)"});
  for (const placement::QueueDiscipline d :
       {placement::QueueDiscipline::kFifo,
        placement::QueueDiscipline::kPriority,
        placement::QueueDiscipline::kSmallestFirst}) {
    cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
    fault::FaultSimOptions opt;
    opt.discipline = d;
    const fault::FaultSimResult res = fault::run_fault_sim(
        cloud, placement::make_policy("online-heuristic"), trace, {}, opt);
    util::Samples waits, urgent_waits;
    for (const sim::GrantRecord& g : res.grants) {
      waits.add(g.wait());
      if (g.request_id % 3 == 0) urgent_waits.add(g.wait());
    }
    tbl.row()
        .cell(placement::to_string(d))
        .cell(std::to_string(res.grants.size()) + "/" +
              std::to_string(trace.size()))
        .cell(waits.mean(), 2)
        .cell(waits.percentile(95), 2)
        .cell(urgent_waits.mean(), 2)
        .cell(res.mean_utilization * 100, 1);
  }
  tbl.print(std::cout);
  return 0;
}
