// Lint self-test fixture (never compiled): src/solver/ takes an arbitrary
// metric, so its callers may build the dense matrix.  Must lint clean.
namespace fixture {

double exact_reference(const Topology& topo) {
  const auto d = topo.distance_matrix();
  return d(0, 1);
}

}  // namespace fixture
