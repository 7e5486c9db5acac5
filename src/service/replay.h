// Journal replay: re-executes a service journal against a fresh Cloud and
// reproduces the original run's decisions exactly — same windows (the
// journal records membership, not just arrival order), same grants, same
// lease ids, same DC totals.  Decision logic is detail::decide_window, the
// very function the live service runs at every window close, so live and
// replayed runs cannot diverge by construction; the only inputs are the
// journal records and the (deterministic) ServiceOptions the service ran
// with.
#pragma once

#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "service/journal.h"
#include "service/service.h"

namespace vcopt::service {

/// Everything a replayed journal produced.
struct ReplayResult {
  /// Outcomes in decision order (window order; shed before members).
  std::vector<Outcome> outcomes;
  /// Canonical NDJSON grant stream (see grant_stream) — byte-comparable
  /// against the live run's collected outcomes.
  std::string grants;
  /// Sum of Definition-1 distances over the lease-carrying outcomes.
  double total_distance = 0;
  std::uint64_t windows = 0;
  std::uint64_t releases = 0;
  /// Live migrations re-applied from rebalance records.
  std::uint64_t migrations = 0;
};

/// Replays `records` against `cloud` (normally a freshly built copy of the
/// topology the live service ran on).  Of `options`, replay reads only what
/// decides a window the journal names: `policy`, and `cells` / `cell_size`
/// for the partition.  Window membership, sheds and rebalance
/// moves come from the records, so the admission, batching, discipline,
/// journal, telemetry and rebalance fields are ignored.
/// Throws std::invalid_argument on an unknown options.policy spec or a
/// corrupt journal: a window member or shed seq with no prior submit
/// record, or a duplicate submit seq.
ReplayResult replay_journal(const std::vector<JournalRecord>& records,
                            cluster::Cloud& cloud,
                            const ServiceOptions& options);

}  // namespace vcopt::service
