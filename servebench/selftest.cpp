// Self-test of the benchmark's own arithmetic and gates on synthetic inputs.
// Exits non-zero on the first failed expectation.
//
//   .bench_build/servebench/servebench_selftest

#include <cmath>
#include <cstdio>
#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/topology.h"
#include "gates.h"
#include "stats.h"
#include "traffic.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

void test_quantiles() {
  using namespace servebench;
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  expect(near(quantile(xs, 0.5), 50.5), "median of 1..100");
  expect(near(quantile(xs, 0.99), 99.01), "p99 of 1..100 interpolates");
  expect(near(quantile(xs, 0.0), 1) && near(quantile(xs, 1.0), 100),
         "p0 and p100 are the extremes");
  expect(near(iqr_share(xs), (75.25 - 25.75) / 50.5), "IQR share of 1..100");
  expect(count_beyond(xs, 0.99) == 1, "one sample beyond p99 of 100");
  expect(quantile({}, 0.5) == 0 && iqr_share({}) == 0, "empty series");
  expect(near(quantile({7}, 0.99), 7), "single sample");
  std::vector<double> flat(1000, 3.0);
  expect(iqr_share(flat) == 0 && count_beyond(flat, 0.99) == 0,
         "constant series has no spread");
}

void test_probe_correction() {
  using servebench::ProbeCorrector;
  // A steady host running the probe at twice the reference time: every
  // timing is halved.
  ProbeCorrector steady(300);
  for (int i = 0; i < 5; ++i) steady.add_probe(600);
  for (std::size_t k = 0; k <= 5; ++k) {
    expect(near(steady.correct(10, k), 5), "steady host halves timings");
  }

  // Drift: the host slows by 1.5x half way.  A call that costs 100 units of
  // work at reference speed reads 100 before the step and 150 after; the
  // corrected values agree except in the one segment straddling the step.
  ProbeCorrector drift(300);
  for (int i = 0; i < 4; ++i) drift.add_probe(300);
  for (int i = 0; i < 4; ++i) drift.add_probe(450);
  expect(near(drift.correct(100, 1), 100), "before the step");
  expect(near(drift.correct(150, 7), 100), "after the step");
  expect(near(drift.correct(150, 8), 100), "after the last probe");
  expect(near(drift.factor(4), 300.0 / 375.0), "straddling segment averages");

  // One preempted probe is smoothed away by the median of three.
  ProbeCorrector outlier(300);
  for (double p : {300.0, 300.0, 3000.0, 300.0, 300.0}) outlier.add_probe(p);
  expect(near(outlier.smoothed(2), 300), "outlier probe smoothed");
  for (std::size_t k = 0; k <= 5; ++k) {
    expect(near(outlier.factor(k), 1), "outlier moves no segment");
  }
  ProbeCorrector two(300);
  two.add_probe(200);
  two.add_probe(400);
  expect(near(two.factor(0), 1.5) && near(two.factor(1), 1.0) &&
             near(two.factor(2), 0.75),
         "fewer than three probes are used as they are");
}

void test_definition1() {
  using vcopt::cluster::Allocation;
  using vcopt::cluster::Topology;
  const Topology topo = Topology::uniform(2, 3);  // d1 = 1, d2 = 2
  Allocation one_node(6, 2);
  one_node.at(4, 0) = 3;
  one_node.at(4, 1) = 2;
  expect(servebench::definition1(one_node, topo) == 0, "one node: DC 0");
  Allocation spread(6, 2);
  spread.at(0, 0) = 2;  // rack 0
  spread.at(1, 1) = 1;  // rack 0
  spread.at(3, 0) = 1;  // rack 1
  // Central 0: 1*d1 + 1*d2 = 3; central 1: 2*d1 + 1*d2 = 4; central 3:
  // 2*d2 + 1*d2 = 6.
  expect(servebench::definition1(spread, topo) == 3, "two racks: DC 3");
  expect(servebench::definition1(spread, topo) ==
             spread.best_central(topo.distance_matrix()).distance,
         "agrees with the dense-D minimum over every node");
  expect(std::isinf(servebench::definition1(Allocation(6, 2), topo)),
         "empty allocation has no central node");
}

void test_ledger() {
  vcopt::util::IntMatrix cap(2, 1);
  cap(0, 0) = 2;
  cap(1, 0) = 1;
  servebench::CapacityLedger ledger(cap);
  vcopt::cluster::Allocation a(2, 1);
  a.at(0, 0) = 2;
  expect(ledger.take(a), "grant within capacity");
  vcopt::cluster::Allocation b(2, 1);
  b.at(0, 0) = 1;
  expect(!ledger.take(b), "grant beyond capacity is caught");
  ledger.give(b);
  ledger.give(a);
  expect(ledger.free() == cap, "releases restore the books");
  expect(!ledger.take(vcopt::cluster::Allocation(3, 1)), "shape mismatch");
}

void test_exact_cover() {
  servebench::ExactCover ok;
  ok.accepted(1);
  ok.accepted(2);
  ok.outcome(2);
  ok.outcome(1);
  expect(ok.violations() == 0, "every accepted seq has one outcome");
  servebench::ExactCover missing;
  missing.accepted(1);
  missing.accepted(2);
  missing.outcome(1);
  expect(missing.violations() == 1, "missing outcome");
  servebench::ExactCover dup;
  dup.accepted(1);
  dup.outcome(1);
  dup.outcome(1);
  expect(dup.violations() == 1, "duplicate outcome");
  servebench::ExactCover stray;
  stray.outcome(5);
  expect(stray.violations() == 1, "outcome for a seq never accepted");
}

void test_sink() {
  servebench::HashingSink keep(true), count(false);
  std::ostream a(&keep), b(&count);
  const std::string text = "{\"type\":\"submit\"}\n";
  a << text << 'x';
  b << text << 'x';
  a.flush();
  const std::string all = text + "x";
  expect(keep.kept() == all && count.kept().empty(), "sink keeps on request");
  expect(keep.bytes() == all.size() && count.bytes() == all.size(),
         "sink counts bytes");
  expect(keep.hash() == servebench::fnv1a(all.data(), all.size()) &&
             keep.hash() == count.hash(),
         "sink hash is FNV-1a of the bytes");
}

void test_inputs() {
  servebench::WorkloadSpec spec = servebench::workloads().front();
  spec.warmup_requests = 100;
  const servebench::Inputs a(spec, 7), b(spec, 7), c(spec, 8);
  expect(a.max_capacity() == c.max_capacity(),
         "the inventory is fixed per workload");
  servebench::Inputs::Stream s1(a), s2(b), s3(c);
  bool same = true, same_warmup = true, differs = false, in_range = true;
  double last = 0;
  for (int i = 0; i < 1000; ++i) {
    const servebench::Arrival x = s1.next(), y = s2.next(), z = s3.next();
    same = same && x.time == y.time && x.hold == y.hold &&
           x.request.counts() == y.request.counts();
    if (i < 100) {
      same_warmup = same_warmup && x.time == z.time && x.hold == z.hold &&
                    x.request.counts() == z.request.counts();
    } else {
      differs = differs || x.hold != z.hold;
    }
    for (int v : x.request.counts()) {
      in_range = in_range && v >= spec.vm_lo && v <= spec.vm_hi;
    }
    in_range = in_range && x.time > last && x.hold > 0;
    last = x.time;
  }
  expect(same, "same seed, same stream");
  expect(same_warmup, "the warm-up is fixed per workload");
  expect(differs, "the seed changes the stream after the warm-up");
  expect(in_range, "request sizes, arrival order and holds in range");
  // Little's law: mean hold = occupancy * slots * inter-arrival / request.
  const double request = 3 * 0.5 * (spec.vm_lo + spec.vm_hi);
  expect(near(a.mean_hold(), servebench::kTargetOccupancy *
                                 static_cast<double>(a.slots()) *
                                 servebench::kMeanInterarrival / request),
         "hold sized by Little's law");
}

}  // namespace

int main() {
  test_quantiles();
  test_probe_correction();
  test_definition1();
  test_ledger();
  test_exact_cover();
  test_sink();
  test_inputs();
  if (failures == 0) std::printf("servebench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
