// Fixture: dense allocation views on the served path.  Lines 9 and 10
// must trip vcopt-dense-allocation: a lease is its (node, type, count)
// entries, and the served path stays on them.
//
// Lines 9-10 are position-sensitive: tools/lint_selftest.py asserts the
// exact (line, rule) pairs.

void bad_dense_allocation_fixture(const Allocation& a, const Placement* p) {
  avail -= a.to_matrix();
  const auto c = p->allocation.to_matrix();
  // A checked-build validator with its reason stays silent:
  VCOPT_VALIDATE(check(a.to_matrix()));  // NOLINT(vcopt-dense-allocation): checked builds only
  // Entry walks, and the name in a comment or a string, are fine: to_matrix()
  for (const auto& e : a.entries()) avail.add_at(e.node, e.type, -e.count);
  log("a.to_matrix() costs O(n*m)");
  (void)c;
}
