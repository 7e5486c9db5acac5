// FaultProfile: spec parsing (presets, key=value overlays) and validation.
#include "fault/profile.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace vcopt::fault {
namespace {

TEST(FaultProfile, DefaultIsQuiet) {
  const FaultProfile p;
  EXPECT_EQ(p.total_events(), 0);
  EXPECT_NO_THROW(p.validate());
}

TEST(FaultProfile, ParsePresets) {
  EXPECT_EQ(FaultProfile::parse("none").total_events(), 0);
  const FaultProfile light = FaultProfile::parse("light");
  EXPECT_EQ(light.node_crashes, 1);
  EXPECT_EQ(light.transients, 1);
  const FaultProfile heavy = FaultProfile::parse("heavy");
  EXPECT_EQ(heavy.node_crashes, 4);
  EXPECT_EQ(heavy.rack_outages, 1);
  EXPECT_EQ(heavy.transients, 2);
  EXPECT_DOUBLE_EQ(heavy.mean_downtime, 30);
}

TEST(FaultProfile, ParseKeyValueSpec) {
  const FaultProfile p =
      FaultProfile::parse("crashes=3,racks=1,seed=7,horizon=250,mttr=12.5");
  EXPECT_EQ(p.node_crashes, 3);
  EXPECT_EQ(p.rack_outages, 1);
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.horizon, 250);
  EXPECT_DOUBLE_EQ(p.mean_downtime, 12.5);
}

TEST(FaultProfile, PresetThenOverrides) {
  const FaultProfile p = FaultProfile::parse("heavy,seed=9,crashes=1");
  EXPECT_EQ(p.seed, 9u);
  EXPECT_EQ(p.node_crashes, 1);   // override wins
  EXPECT_EQ(p.rack_outages, 1);   // preset value kept
}

TEST(FaultProfile, ParseErrorsNameTheOffendingToken) {
  try {
    FaultProfile::parse("crashes=banana");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("crashes"), std::string::npos);
  }
  EXPECT_THROW(FaultProfile::parse("bogus-preset"), std::invalid_argument);
  EXPECT_THROW(FaultProfile::parse("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW(FaultProfile::parse("crashes=-2"), std::invalid_argument);
  EXPECT_THROW(FaultProfile::parse("crashes=1.5"), std::invalid_argument);
}

TEST(FaultProfile, ValidateRejectsOutOfRange) {
  FaultProfile p;
  p.node_crashes = 1;
  p.mean_downtime = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.mean_downtime = 20;
  p.degrade_factor = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.degrade_factor = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.degrade_factor = 1.0;
  EXPECT_NO_THROW(p.validate());
  p.transients = 2;
  p.transient_duration = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// Expects parse(spec) to throw an invalid_argument whose message names
// `field`.
void expect_rejected(const std::string& spec, const std::string& field) {
  try {
    FaultProfile::parse(spec);
    ADD_FAILURE() << spec << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << spec << ": " << e.what();
  }
}

TEST(FaultProfile, RejectsNanMttr) {
  expect_rejected("crashes=2,mttr=nan", "mean_downtime");
}

TEST(FaultProfile, RejectsInfiniteHorizon) {
  expect_rejected("crashes=2,horizon=inf", "horizon");
}

TEST(FaultProfile, RejectsNanHorizon) {
  expect_rejected("crashes=2,horizon=nan", "horizon");
}

TEST(FaultProfile, RejectsNanTransientDuration) {
  expect_rejected("transients=2,transient-duration=nan", "transient_duration");
}

TEST(FaultProfile, RejectsNanDegradeFactor) {
  expect_rejected("degrade=nan", "degrade_factor");
}

TEST(FaultProfile, ValidateRejectsNonFiniteHandBuiltFields) {
  // No events scheduled: the non-finite value is still refused.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  FaultProfile p;
  p.mean_downtime = inf;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = FaultProfile{};
  p.transient_duration = nan;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = FaultProfile{};
  p.horizon = -inf;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(FaultProfile, CountBeyondIntRangeIsRejectedByRange) {
  // Checked as a double before any conversion, so the message reports the
  // range rather than a wrapped negative value.
  expect_rejected("crashes=1e10", "1e10");
  expect_rejected("crashes=1e10", "2147483647");
  expect_rejected("racks=inf", "racks");
  expect_rejected("transients=nan", "transients");
}

TEST(FaultProfile, SeedTakesTheFullSixtyFourBits) {
  EXPECT_EQ(FaultProfile::parse("seed=3000000000").seed, 3000000000ULL);
  EXPECT_EQ(FaultProfile::parse("seed=18446744073709551615").seed,
            std::numeric_limits<std::uint64_t>::max());
  expect_rejected("seed=18446744073709551616", "seed");
  expect_rejected("seed=-1", "seed");
  expect_rejected("seed=1.5", "seed");
}

TEST(FaultProfile, DescribeMentionsTheCounts) {
  const FaultProfile p = FaultProfile::parse("crashes=3,seed=7");
  const std::string d = p.describe();
  EXPECT_NE(d.find("crashes=3"), std::string::npos);
  EXPECT_NE(d.find("seed=7"), std::string::npos);
}

}  // namespace
}  // namespace vcopt::fault
