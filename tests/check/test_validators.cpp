// Unit tests for the domain validators of src/check/validators.h.  These
// call the validators directly, so they run in every build regardless of
// whether the VCOPT_* macros are compiled in.
#include "check/validators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cluster/allocation.h"
#include "cluster/topology.h"
#include "solver/sd_solver.h"
#include "util/rng.h"

namespace vc = vcopt::check;
using vcopt::util::DoubleMatrix;
using vcopt::util::IntMatrix;

TEST(ValidateAllocation, AcceptsFeasibleAllocation) {
  const IntMatrix c{{2, 0}, {1, 1}};
  const IntMatrix l{{2, 1}, {3, 1}};
  EXPECT_TRUE(vc::validate_allocation(c, {3, 1}, l).ok);
}

TEST(ValidateAllocation, RejectsDemandMismatchWithContext) {
  const IntMatrix c{{2, 0}, {1, 1}};
  const IntMatrix l{{2, 1}, {3, 1}};
  const auto res = vc::validate_allocation(c, {4, 1}, l);
  EXPECT_FALSE(res.ok);
  // The message names the violated type and dumps the allocation matrix.
  EXPECT_NE(res.message.find("type 0"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find("R_j = 4"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find("C ("), std::string::npos) << res.message;
}

TEST(ValidateAllocation, RejectsCapacityOverrun) {
  const IntMatrix c{{3, 0}, {0, 1}};
  const IntMatrix l{{2, 1}, {3, 1}};
  const auto res = vc::validate_allocation(c, {3, 1}, l);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("capacity exceeded"), std::string::npos)
      << res.message;
}

TEST(ValidateAllocation, RejectsNegativeEntry) {
  IntMatrix c{{4, 0}, {-1, 1}};
  const IntMatrix l{{9, 9}, {9, 9}};
  const auto res = vc::validate_allocation(c, {3, 1}, l);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("negative entry"), std::string::npos)
      << res.message;
}

TEST(ValidateAllocation, RejectsShapeMismatch) {
  const IntMatrix c(2, 2, 0);
  const IntMatrix l(3, 2, 0);
  EXPECT_FALSE(vc::validate_allocation(c, {0, 0}, l).ok);
  EXPECT_FALSE(vc::validate_allocation(l, {0, 0, 0}, l).ok);  // R size 3 != 2
}

TEST(ValidateFits, JointCapacityCheck) {
  const IntMatrix combined{{2, 1}, {1, 0}};
  const IntMatrix limit{{2, 1}, {1, 1}};
  EXPECT_TRUE(vc::validate_fits(combined, limit).ok);
  const IntMatrix over{{3, 1}, {1, 0}};
  EXPECT_FALSE(vc::validate_fits(over, limit).ok);
}

TEST(RecomputeDc, MatchesAllocationBestCentral) {
  // Random allocations on a two-rack topology: the independent DC
  // recomputation must agree with cluster::Allocation::best_central.
  vcopt::util::Rng rng(7);
  const vcopt::cluster::Topology topo =
      vcopt::cluster::Topology::uniform(/*racks=*/2, /*nodes_per_rack=*/3);
  const DoubleMatrix& dist = topo.distance_matrix();
  for (int trial = 0; trial < 20; ++trial) {
    IntMatrix counts(6, 2, 0);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        counts(i, j) = static_cast<int>(rng.uniform_int(0, 3));
      }
    }
    const vcopt::cluster::Allocation alloc(counts);
    const auto best = alloc.best_central(dist);
    EXPECT_NEAR(vc::recompute_dc(counts, dist), best.distance, 1e-9);
    EXPECT_NEAR(vc::recompute_distance_from(counts, best.node, dist),
                best.distance, 1e-9);
  }
}

TEST(ValidateReportedDistance, DetectsMisreportedObjective) {
  const IntMatrix c{{2, 0}, {0, 1}};
  const DoubleMatrix d{{0.0, 3.0}, {3.0, 0.0}};
  // distance from central 0: (2+0)*0 + 1*3 = 3.
  EXPECT_TRUE(vc::validate_reported_distance(c, d, 0, 3.0).ok);
  EXPECT_FALSE(vc::validate_reported_distance(c, d, 0, 2.0).ok);
  EXPECT_FALSE(vc::validate_reported_distance(c, d, 5, 3.0).ok);  // bad central
}

TEST(ValidateReportedDistance, ToleranceIsRespected) {
  const IntMatrix c{{1}};
  const DoubleMatrix d{{0.0}};
  EXPECT_TRUE(vc::validate_reported_distance(c, d, 0, 5e-7, 1e-6).ok);
  EXPECT_FALSE(vc::validate_reported_distance(c, d, 0, 5e-7, 1e-8).ok);
}

TEST(ValidateDcOptimal, AcceptsExactSolverOutput) {
  const vcopt::cluster::Topology topo =
      vcopt::cluster::Topology::uniform(2, 2);
  const IntMatrix remaining{{2, 1}, {1, 1}, {1, 0}, {0, 2}};
  const vcopt::cluster::Request req({3, 2});
  const auto res =
      vcopt::solver::solve_sd_exact(req, remaining, topo.distance_matrix());
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(vc::validate_dc_optimal(res.allocation.to_matrix(),
                                      topo.distance_matrix(), res.distance)
                  .ok);
  // A deliberately inflated objective must be rejected.
  EXPECT_FALSE(vc::validate_dc_optimal(res.allocation.to_matrix(),
                                       topo.distance_matrix(),
                                       res.distance + 1.0)
                   .ok);
}

TEST(ValidateFinite, CatchesNanAndInf) {
  EXPECT_TRUE(vc::validate_finite(std::vector<double>{1.0, -2.0}, "x").ok);
  const auto nan_res = vc::validate_finite(
      std::vector<double>{0.0, std::nan("")}, "x");
  EXPECT_FALSE(nan_res.ok);
  EXPECT_NE(nan_res.message.find("x[1]"), std::string::npos);
  DoubleMatrix m(2, 2, 0.0);
  EXPECT_TRUE(vc::validate_finite(m, "m").ok);
  m(1, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(vc::validate_finite(m, "m").ok);
}

TEST(ValidateCapacityConservation, HoldsAndBreaks) {
  const IntMatrix max{{4, 2}, {3, 3}};
  const IntMatrix alloc{{1, 2}, {0, 3}};
  const IntMatrix rem{{3, 0}, {3, 0}};
  EXPECT_TRUE(vc::validate_capacity_conservation(alloc, rem, max).ok);
  // remaining no longer complements allocated.
  const IntMatrix bad_rem{{3, 1}, {3, 0}};
  const auto res = vc::validate_capacity_conservation(alloc, bad_rem, max);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("(0,1)"), std::string::npos) << res.message;
  // allocated exceeds max.
  const IntMatrix over{{5, 2}, {0, 3}};
  const IntMatrix over_rem{{-1, 0}, {3, 0}};
  EXPECT_FALSE(vc::validate_capacity_conservation(over, over_rem, max).ok);
}

TEST(ValidateNondecreasing, DetectsBackwardsTime) {
  EXPECT_TRUE(vc::validate_nondecreasing({0.0, 1.0, 1.0, 2.5}, "t").ok);
  const auto res = vc::validate_nondecreasing({0.0, 2.0, 1.5}, "t");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("index 2"), std::string::npos) << res.message;
  EXPECT_TRUE(vc::validate_nondecreasing({}, "t").ok);
}

TEST(ValidateExactCover, AcceptsPermutationsAndEmpty) {
  EXPECT_TRUE(vc::validate_exact_cover({1, 2, 3}, {3, 1, 2}, "seqs").ok);
  EXPECT_TRUE(vc::validate_exact_cover({}, {}, "seqs").ok);
  // Duplicates on both sides must balance exactly.
  EXPECT_TRUE(vc::validate_exact_cover({5, 5}, {5, 5}, "seqs").ok);
}

TEST(ValidateExactCover, DiagnosesMissingDuplicatedAndUnexpected) {
  const auto missing = vc::validate_exact_cover({1, 2, 3}, {1, 3}, "seqs");
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.message.find("missing: 2"), std::string::npos)
      << missing.message;

  const auto dup = vc::validate_exact_cover({1, 2}, {1, 2, 2}, "seqs");
  EXPECT_FALSE(dup.ok);
  EXPECT_NE(dup.message.find("duplicated or unexpected: 2"), std::string::npos)
      << dup.message;

  const auto unexpected = vc::validate_exact_cover({1}, {1, 9}, "grants");
  EXPECT_FALSE(unexpected.ok);
  EXPECT_NE(unexpected.message.find("grants"), std::string::npos)
      << unexpected.message;
}
