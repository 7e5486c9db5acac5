// CSV/table export of the churn simulation's state timeline (utilization
// and queue-depth over time, FaultSimResult::timeline), shared by the bench
// figures and vcopt_cli.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "sim/records.h"
#include "util/table.h"

namespace vcopt::sim {

class TimelineWriter {
 public:
  /// `capacity_vms` > 0 adds a derived utilization column
  /// (allocated_vms / capacity_vms) to every row.
  explicit TimelineWriter(const std::vector<TimelineSample>& timeline,
                          int capacity_vms = 0);

  /// Column layout shared by both renderers: time, allocated_vms,
  /// queue_length, active_leases [, utilization].
  util::TableWriter to_table() const;

  void write_csv(std::ostream& os) const;
  /// Returns false if the file could not be opened/written.
  bool write_csv_file(const std::string& path) const;

 private:
  const std::vector<TimelineSample>& timeline_;
  int capacity_vms_;
};

}  // namespace vcopt::sim
