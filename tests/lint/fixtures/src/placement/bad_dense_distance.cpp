// Fixture: dense distance matrices built on the placement path.  Lines 9
// and 10 must trip vcopt-dense-distance; distance is a function of the
// topology outside src/solver/.
//
// Lines 9-10 are position-sensitive: tools/lint_selftest.py asserts the
// exact (line, rule) pairs.

void bad_dense_distance_fixture(const Topology& topo, const Cloud* cloud) {
  const auto d = topo.distance_matrix();
  const auto e = cloud->topology().distance_matrix();
  // A solver feed with its reason stays silent:
  const auto f = topo.distance_matrix();  // NOLINT(vcopt-dense-distance)
  // Other matrices and the on-demand lookup are fine:
  const auto g = net.measured_distance_matrix();
  const double h = topo.distance(0, 1);
  (void)d; (void)e; (void)f; (void)g; (void)h;
}
