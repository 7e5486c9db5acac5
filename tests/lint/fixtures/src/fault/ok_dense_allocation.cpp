// Lint self-test fixture (never compiled): fault-recovery bookkeeping is
// off the served path, so it may take an allocation's dense view.  Must
// lint clean.
namespace fixture {

void record_original(const Cloud& cloud, Pending& p, LeaseId id) {
  p.original = cloud.lease_allocation(id).to_matrix();
}

}  // namespace fixture
