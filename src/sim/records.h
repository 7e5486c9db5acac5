// Per-grant and per-event records of the churn simulation
// (fault::run_fault_sim), shared with the timeline renderer.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vcopt::sim {

struct GrantRecord {
  std::uint64_t request_id = 0;
  double arrival = 0;
  double granted = 0;   ///< when the lease was created
  double released = 0;  ///< when the lease ended
  double distance = 0;  ///< DC of the granted allocation
  std::size_t central = 0;
  int vms = 0;

  double wait() const { return granted - arrival; }
};

/// One point of the simulation's state timeline, sampled at every grant,
/// release and arrival.
struct TimelineSample {
  double time = 0;
  int allocated_vms = 0;
  std::size_t queue_length = 0;
  std::size_t active_leases = 0;
};

}  // namespace vcopt::sim
