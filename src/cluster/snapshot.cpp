#include "cluster/snapshot.h"

#include "check/check.h"

namespace vcopt::cluster {

std::shared_ptr<const CloudSnapshot> SnapshotArena::build(
    const Cloud& cloud, std::uint64_t epoch, double build_time) const {
#if VCOPT_ENABLE_CHECKS
  // remaining() checks every cell of the free view against the books and
  // the class index against one rebuilt from the view; its copy is dropped.
  (void)cloud.remaining();
#endif
  auto snap = std::make_shared<CloudSnapshot>();
  snap->epoch = epoch;
  snap->build_time = build_time;
  snap->remaining = &cloud.capacity_view().matrix();
  snap->capacity_col_sums = &cloud.capacity_col_sums();
  snap->topology = &cloud.topology();
  snap->index = &cloud.free_index();
  snap->index_version = cloud.free_index().version();
  snap->type_count = cloud.type_count();
  return snap;
}

}  // namespace vcopt::cluster
