// Fault profiles: a compact, fully deterministic description of the
// failures to inject into a simulated cloud.  A profile plus its seed fixes
// the entire failure schedule (victims, instants, downtimes), so a
// (profile, seed) pair replays bit-identically across runs, machines and
// policies — the property every fault experiment and soak test leans on.
//
// Profiles are written as comma-separated `key=value` specs, optionally
// starting from a named preset, e.g.
//   "none" | "light" | "heavy"
//   "crashes=3,racks=1,seed=7"
//   "heavy,seed=9,horizon=250"
#pragma once

#include <cstdint>
#include <string>

namespace vcopt::fault {

struct FaultProfile {
  std::uint64_t seed = 1;      ///< drives every random draw of the schedule
  double horizon = 0;          ///< fault instants drawn in [0, horizon);
                               ///< 0 = derive from the workload (sim drivers)
  int node_crashes = 0;        ///< whole-node crash/recover cycles
  int rack_outages = 0;        ///< rack-switch outages (every node in the rack)
  int transients = 0;          ///< transient degradations (capacity masked)
  double mean_downtime = 20;   ///< exponential mean time-to-recovery (s)
  double transient_duration = 5;  ///< fixed length of a degradation (s)
  double degrade_factor = 0.5; ///< compute-speed multiplier while degraded
                               ///< (used by the MapReduce fault scenarios)

  int total_events() const {
    return node_crashes + rack_outages + transients;
  }

  /// Throws std::invalid_argument naming the offending field when a value is
  /// out of range (non-finite numbers, negative counts, non-positive
  /// durations with events scheduled, degrade factor outside (0, 1], ...).
  void validate() const;

  /// Parses a spec string (see file header).  Unknown keys, malformed
  /// numbers and out-of-range values throw std::invalid_argument naming the
  /// offending token.
  static FaultProfile parse(const std::string& spec);

  /// Round-trippable summary, e.g. "crashes=3 racks=1 transients=0 seed=7
  /// horizon=100 mttr=20".
  std::string describe() const;
};

}  // namespace vcopt::fault
