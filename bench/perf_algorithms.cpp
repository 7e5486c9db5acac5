// google-benchmark microbenchmarks: wall-time scaling of the placement
// algorithms with cloud size, backing the paper's complexity claims —
// Algorithm 1 is O(n·m + n log n) (it scores every candidate central from
// per-rack and per-cloud free sums and fills only the winner) and stays
// interactive at hundreds of nodes, the polynomial exact SD solver is
// comparable, while the per-central-node ILP is orders of magnitude slower
// (why the heuristic matters in practice).
#include <benchmark/benchmark.h>

#include "placement/global_subopt.h"
#include "placement/online_heuristic.h"
#include "solver/sd_solver.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace vcopt;

struct Instance {
  cluster::Topology topo;
  util::IntMatrix remaining;
  cluster::Request request;
};

Instance make_instance(std::size_t racks, std::size_t nodes_per_rack,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  cluster::Topology topo = cluster::Topology::uniform(racks, nodes_per_rack);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  util::IntMatrix remaining =
      workload::random_inventory(topo, catalog, rng, 0, 4);
  // Per-type demand above any single node's capacity (max 4), so the
  // heuristic cannot take its O(n) single-node shortcut and the measured
  // complexity reflects the general multi-node fill path.
  cluster::Request request = workload::random_request(catalog, rng, 5, 8, 0);
  return Instance{std::move(topo), std::move(remaining), std::move(request)};
}

void BM_OnlineHeuristic(benchmark::State& state) {
  const Instance in =
      make_instance(static_cast<std::size_t>(state.range(0)), 10, 42);
  placement::OnlineHeuristic h;
  for (auto _ : state) {
    auto placed = h.place(in.request, in.remaining, in.topo);
    benchmark::DoNotOptimize(placed);
  }
  state.SetComplexityN(state.range(0) * 10);
}
BENCHMARK(BM_OnlineHeuristic)->Arg(3)->Arg(6)->Arg(12)->Arg(24)->Complexity();

void BM_SdExact(benchmark::State& state) {
  const Instance in =
      make_instance(static_cast<std::size_t>(state.range(0)), 10, 42);
  const util::DoubleMatrix dist = in.topo.distance_matrix();
  for (auto _ : state) {
    auto res = solver::solve_sd_exact(in.request, in.remaining, dist);
    benchmark::DoNotOptimize(res);
  }
  state.SetComplexityN(state.range(0) * 10);
}
BENCHMARK(BM_SdExact)->Arg(3)->Arg(6)->Arg(12)->Arg(24)->Complexity();

void BM_SdIlp(benchmark::State& state) {
  const Instance in =
      make_instance(static_cast<std::size_t>(state.range(0)), 5, 42);
  const util::DoubleMatrix dist = in.topo.distance_matrix();
  for (auto _ : state) {
    auto res = solver::solve_sd_ilp(in.request, in.remaining, dist);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_SdIlp)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GlobalSubOpt(benchmark::State& state) {
  util::Rng rng(7);
  const Instance in = make_instance(3, 10, 7);
  const cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  const auto batch = workload::random_requests(
      catalog, rng, static_cast<std::size_t>(state.range(0)), 0, 3);
  placement::GlobalSubOpt g;
  for (auto _ : state) {
    auto res = g.place_batch(batch, in.remaining, in.topo);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_GlobalSubOpt)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_DistanceEvaluation(benchmark::State& state) {
  const Instance in =
      make_instance(static_cast<std::size_t>(state.range(0)), 10, 13);
  placement::OnlineHeuristic h;
  const auto placed = h.place(in.request, in.remaining, in.topo);
  for (auto _ : state) {
    auto best = placed->allocation.best_central(in.topo);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_DistanceEvaluation)->Arg(3)->Arg(12)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
