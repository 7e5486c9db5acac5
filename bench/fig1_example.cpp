// Fig. 1 of the paper: the worked provisioning example.  A request for two
// V1, four V2 and one V3 over a two-rack cloud, with four candidate
// allocations whose distances the paper gives as 2d1+d2, 2d1+d2, 2d2 and
// d1+2d2.  We evaluate all four with the library's DC implementation and,
// in addition, print the true optimum found by the exact SD solver.
#include <iostream>

#include "bench_common.h"
#include "cluster/allocation.h"
#include "cluster/topology.h"
#include "solver/sd_solver.h"
#include "util/table.h"

int main() {
  using namespace vcopt;
  bench::banner("Fig. 1", "Worked example: candidate virtual clusters", 0);

  // Rack 1: N1, N2 (nodes 0, 1).  Rack 2: N3, N4 (nodes 2, 3).  d1=1, d2=2.
  const cluster::Topology topo = cluster::Topology::uniform(2, 2);

  struct Candidate {
    const char* label;
    const char* formula;
    cluster::Allocation alloc;
  };
  const std::vector<Candidate> candidates = {
      {"DC1", "2d1 + d2",
       cluster::Allocation(util::IntMatrix{{2, 2, 0}, {0, 2, 0}, {0, 0, 1}, {0, 0, 0}})},
      {"DC2", "2d1 + d2",
       cluster::Allocation(util::IntMatrix{{0, 2, 0}, {2, 2, 0}, {0, 0, 1}, {0, 0, 0}})},
      {"DC3", "2d2",
       cluster::Allocation(util::IntMatrix{{2, 2, 1}, {0, 0, 0}, {0, 2, 0}, {0, 0, 0}})},
      {"DC4", "d1 + 2d2",
       cluster::Allocation(util::IntMatrix{{2, 1, 1}, {0, 1, 0}, {0, 2, 0}, {0, 0, 0}})},
  };

  util::TableWriter t(
      {"Candidate", "Layout", "Paper formula", "DC (d1=1, d2=2)", "Central"});
  for (const Candidate& c : candidates) {
    const cluster::CentralNode best = c.alloc.best_central(topo);
    t.row()
        .cell(c.label)
        .cell(c.alloc.describe())
        .cell(c.formula)
        .cell(best.distance, 1)
        .cell("N" + std::to_string(best.node + 1));
  }
  t.print(std::cout);

  // What does the exact solver pick when every node offers enough capacity?
  const cluster::Request request({2, 4, 1});
  const util::IntMatrix remaining{{2, 2, 0}, {0, 2, 1}, {0, 2, 0}, {2, 2, 1}};
  const solver::SdResult opt =
      solver::solve_sd_exact(request, remaining, topo.distance_matrix());
  std::cout << "\nExact SD optimum for R=(2,4,1) on the example inventory: "
            << opt.allocation.describe() << "  DC=" << opt.distance
            << " (central N" << opt.central + 1 << ")\n";
  return 0;
}
