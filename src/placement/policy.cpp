#include "placement/policy.h"

#include <stdexcept>

#include "placement/baselines.h"
#include "placement/online_heuristic.h"

namespace vcopt::placement {

Placement evaluate(cluster::Allocation alloc,
                   const cluster::Topology& topology) {
  const cluster::CentralNode c = alloc.best_central(topology);
  return Placement{std::move(alloc), c.node, c.distance};
}

std::unique_ptr<PlacementPolicy> make_policy(const std::string& spec) {
  if (spec == "online-heuristic") return std::make_unique<OnlineHeuristic>();
  if (spec == "online-heuristic-first") {
    return std::make_unique<OnlineHeuristic>(
        OnlineHeuristic::Mode::kFirstImprovement);
  }
  if (spec == "sd-exact") return std::make_unique<SdExactPolicy>();
  if (spec == "first-fit") return std::make_unique<FirstFitPolicy>();
  if (spec == "spread") return std::make_unique<SpreadPolicy>();
  if (spec.rfind("random", 0) == 0) {
    std::uint64_t seed = 1;
    const auto colon = spec.find(':');
    if (colon != std::string::npos) seed = std::stoull(spec.substr(colon + 1));
    return std::make_unique<RandomPolicy>(seed);
  }
  throw std::invalid_argument("make_policy: unknown policy '" + spec + "'");
}

std::vector<std::string> policy_names() {
  return {"online-heuristic", "online-heuristic-first", "sd-exact",
          "first-fit", "spread", "random"};
}

}  // namespace vcopt::placement
