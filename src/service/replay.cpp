#include "service/replay.h"

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "cell/partition.h"
#include "obs/trace.h"
#include "placement/policy.h"

namespace vcopt::service {

namespace {

PendingEntry take_pending(std::map<std::uint64_t, PendingEntry>& pending,
                          std::uint64_t seq, std::uint64_t window_id) {
  auto it = pending.find(seq);
  if (it == pending.end()) {
    throw std::invalid_argument(
        "replay_journal: window " + std::to_string(window_id) +
        " references seq " + std::to_string(seq) +
        " with no pending submit record");
  }
  PendingEntry entry = std::move(it->second);
  pending.erase(it);
  return entry;
}

}  // namespace

ReplayResult replay_journal(const std::vector<JournalRecord>& records,
                            cluster::Cloud& cloud,
                            const ServiceOptions& options) {
  VCOPT_TRACE_SPAN("service/replay");
  // Fail fast on an unknown policy spec, like the live service does.
  placement::make_policy(options.policy);
  // Cell-mode journals: rebuild the partition the live service used (a pure
  // function of topology + options) so each window record re-plans inside
  // the cell it names.  No directory/router is needed — routing decisions
  // are baked into the recorded window membership and cell ids.
  std::unique_ptr<cell::CellPartition> partition;
  std::vector<std::vector<int>> cell_cap_sums;
  if (options.cell_mode()) {
    cell::CellPartitionOptions po;
    po.target_cells = options.cells;
    po.cell_size = options.cell_size;
    partition = std::make_unique<cell::CellPartition>(cloud.topology(), po);
    cell_cap_sums = detail::cell_capacity_sums(*partition, cloud);
  }
  std::map<std::uint64_t, PendingEntry> pending;
  ReplayResult result;
  for (const JournalRecord& rec : records) {
    switch (rec.type) {
      case RecordType::kSubmit: {
        if (pending.count(rec.seq)) {
          throw std::invalid_argument("replay_journal: duplicate submit seq " +
                                      std::to_string(rec.seq));
        }
        pending.emplace(rec.seq, PendingEntry{rec.request, rec.options,
                                              rec.seq, rec.time,
                                              rec.trace_id});
        break;
      }
      case RecordType::kWindow: {
        std::vector<PendingEntry> shed;
        std::vector<PendingEntry> members;
        shed.reserve(rec.shed.size());
        members.reserve(rec.members.size());
        for (std::uint64_t seq : rec.shed) {
          shed.push_back(take_pending(pending, seq, rec.window_id));
        }
        for (std::uint64_t seq : rec.members) {
          members.push_back(take_pending(pending, seq, rec.window_id));
        }
        detail::CellPlanContext ctx;
        ctx.partition = partition.get();
        ctx.capacity_col_sums = &cell_cap_sums;
        ctx.cell = rec.cell;
        std::vector<Outcome> outcomes = detail::decide_window(
            cloud, shed, members, rec.window_id, rec.time, options,
            partition ? &ctx : nullptr);
        ++result.windows;
        for (Outcome& o : outcomes) {
          if (has_lease(o.kind)) result.total_distance += o.distance;
          result.outcomes.push_back(std::move(o));
        }
        break;
      }
      case RecordType::kRelease: {
        cloud.release(rec.lease);
        ++result.releases;
        break;
      }
      case RecordType::kRebalance: {
        // Re-apply the journaled migrations through the same two-phase
        // primitive the live pass used; in replay the cloud state at this
        // record matches the live run's, so every move must land.
        for (const RebalanceMove& m : rec.moves) {
          const std::uint64_t ticket =
              cloud.begin_migration(m.lease, m.from, m.to, m.type);
          if (ticket == 0 || !cloud.commit_migration(ticket)) {
            throw std::invalid_argument(
                "replay_journal: journaled migration of lease " +
                std::to_string(m.lease) + " (" + std::to_string(m.from) +
                " -> " + std::to_string(m.to) +
                ") could not be re-applied — journal/cloud mismatch");
          }
          ++result.migrations;
        }
        break;
      }
    }
  }
  result.grants = grant_stream(result.outcomes);
  return result;
}

}  // namespace vcopt::service
