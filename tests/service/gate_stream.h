// The input the service's batching gate (test_service.cpp) and its SLO
// gates (test_service_slo.cpp) share: seed 42's Fig.-5 scenario at the big
// request scale, and a stream of requests with 1-4 VMs of each type drawn
// from one seeded generator, so a shorter stream is a prefix of a longer one.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/request.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace vcopt::service {

inline workload::SimScenario gate_scenario() {
  return workload::paper_sim_scenario(42, workload::RequestScale::kBig);
}

inline std::vector<cluster::Request> gate_stream(
    const workload::SimScenario& scenario, std::size_t n) {
  util::Rng rng(42 ^ 0x5e1fULL);
  return workload::random_requests(scenario.catalog, rng, n, 1, 4);
}

}  // namespace vcopt::service
