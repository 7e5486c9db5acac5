#include "rebalance/rebalance_sim.h"

#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace vcopt::rebalance {

RebalanceSimResult run_rebalance_sim(
    cluster::Cloud& cloud, std::unique_ptr<placement::PlacementPolicy> policy,
    const std::vector<cluster::TimedRequest>& trace,
    const fault::FaultProfile& profile, const RebalanceSimOptions& options) {
  VCOPT_TRACE_SPAN("rebalance/rebalance_sim");
  if (options.fault.recorder == nullptr) {
    throw std::invalid_argument(
        "run_rebalance_sim: a recorder is required (the rebalancer writes "
        "its rebalance/* series to it)");
  }

  // The rebalancer is created inside the attach hook (the queue only exists
  // there) but owned out here so its records outlive the run.
  std::unique_ptr<Rebalancer> rebalancer;
  fault::FaultSimOptions fo = options.fault;
  fo.attach = [&](sim::EventQueue& queue, double horizon) {
    rebalancer = std::make_unique<Rebalancer>(
        cloud, queue, *options.fault.recorder, options.policy, options.seed,
        options.fault.slo);
    rebalancer->arm(horizon);
  };

  RebalanceSimResult out;
  out.fault = fault::run_fault_sim(cloud, std::move(policy), trace, profile, fo);

  if (rebalancer) {  // absent only if the sim never invoked attach
    out.rounds = rebalancer->rounds();
    out.migrations = rebalancer->migrations();
    out.disabled = rebalancer->disabled();
    out.transcript = rebalancer->transcript();
    for (const MigrationRecord& m : out.migrations) {
      if (m.committed) {
        ++out.migrations_committed;
        out.net_gain += m.gain - m.cost;
      } else {
        ++out.migrations_failed;
      }
    }
    for (const RoundRecord& r : out.rounds) {
      if (r.status == RoundStatus::kDeferred) ++out.rounds_deferred;
    }
  }
  return out;
}

}  // namespace vcopt::rebalance
