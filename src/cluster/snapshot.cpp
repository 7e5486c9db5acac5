#include "cluster/snapshot.h"

namespace vcopt::cluster {

std::shared_ptr<const CloudSnapshot> SnapshotArena::build(
    const Cloud& cloud, std::uint64_t epoch, double build_time) const {
  auto snap = std::make_shared<CloudSnapshot>();
  snap->epoch = epoch;
  snap->build_time = build_time;
  // A copy of the cloud's free view, whose row and column sums arrive warm,
  // so readers never mutate the snapshot (util::Matrix threading contract).
  snap->remaining = cloud.remaining();
  const util::IntMatrix& max = cloud.inventory().max_capacity();
  snap->capacity_col_sums.resize(cloud.type_count());
  for (std::size_t j = 0; j < cloud.type_count(); ++j) {
    snap->capacity_col_sums[j] = max.col_sum(j);
  }
  snap->topology = &cloud.topology();
  snap->index = &cloud.free_index();
  snap->index_version = cloud.free_index().version();
  snap->type_count = cloud.type_count();
  return snap;
}

}  // namespace vcopt::cluster
