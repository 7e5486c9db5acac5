// Randomised provisioner/cloud fuzzing: a random interleaving of requests
// and releases, with a shadow model checking conservation invariants after
// every operation.
#include <gtest/gtest.h>

#include <map>

#include "placement/online_heuristic.h"
#include "placement/provisioner.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace vcopt::placement {
namespace {

class ProvisionerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProvisionerFuzz, ConservationUnderRandomOps) {
  util::Rng rng(GetParam());
  const workload::SimScenario sc =
      workload::paper_sim_scenario(GetParam(), workload::RequestScale::kMedium);
  cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
  Provisioner prov(cloud, std::make_unique<OnlineHeuristic>());

  std::map<cluster::LeaseId, cluster::Allocation> shadow;  // live leases
  std::uint64_t next_id = 1;
  std::size_t grants_seen = 0;

  auto verify = [&] {
    // Sum of shadow allocations == cloud's allocated matrix.
    util::IntMatrix sum(sc.capacity.rows(), sc.capacity.cols(), 0);
    for (const auto& [id, alloc] : shadow) sum += alloc.to_matrix();
    EXPECT_EQ(cloud.inventory().allocated(), sum);
    EXPECT_TRUE(cloud.remaining().all_nonnegative());
    EXPECT_EQ(cloud.lease_count(), shadow.size());
  };

  for (int op = 0; op < 400; ++op) {
    if (shadow.empty() || rng.bernoulli(0.6)) {
      const cluster::Request r =
          workload::random_request(sc.catalog, rng, 0, 3, next_id++);
      const auto grant = prov.request(r);
      if (grant) {
        ++grants_seen;
        EXPECT_TRUE(grant->placement.allocation.satisfies(r));
        shadow.emplace(grant->lease, grant->placement.allocation);
      }
    } else {
      // Release a random live lease; drained queue grants join the shadow.
      auto it = shadow.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(shadow.size()) - 1));
      const cluster::LeaseId id = it->first;
      shadow.erase(it);
      for (const Grant& g : prov.release(id)) {
        ++grants_seen;
        shadow.emplace(g.lease, g.placement.allocation);
      }
    }
    verify();
  }
  EXPECT_GT(grants_seen, 0u);

  // Teardown: releasing everything restores the empty cloud.
  while (!shadow.empty()) {
    const cluster::LeaseId id = shadow.begin()->first;
    shadow.erase(shadow.begin());
    for (const Grant& g : prov.release(id)) {
      shadow.emplace(g.lease, g.placement.allocation);
    }
    verify();
  }
  if (prov.queue_length() == 0) {
    EXPECT_EQ(cloud.inventory().allocated().total(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvisionerFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace vcopt::placement
