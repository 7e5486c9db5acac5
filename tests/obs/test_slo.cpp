// SloTracker semantics: burn-rate arithmetic, the multi-window alert rule
// (both windows must burn), the min_events guard against one-sample blips,
// value-threshold feeds and the snapshot schema.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/json.h"

namespace vcopt::obs {
namespace {

SloSpec spec(const std::string& name, double objective = 0.1,
             double short_w = 10, double long_w = 100,
             double burn_alert = 2.0, std::size_t min_events = 4) {
  SloSpec s;
  s.name = name;
  s.objective = objective;
  s.short_window = short_w;
  s.long_window = long_w;
  s.burn_alert = burn_alert;
  s.min_events = min_events;
  return s;
}

TEST(SloTracker, DeclareIsFindOrCreate) {
  SloTracker t;
  t.declare(spec("a", 0.1));
  SloSpec again = spec("a", 0.5);  // ignored: original spec wins
  t.declare(again);
  ASSERT_TRUE(t.declared("a"));
  const auto st = t.evaluate(0);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_DOUBLE_EQ(st[0].spec.objective, 0.1);
}

TEST(SloTracker, UndeclaredNameThrows) {
  SloTracker t;
  EXPECT_THROW(t.record_event("nope", 0, true), std::invalid_argument);
  EXPECT_THROW(t.record_value("nope", 0, 1), std::invalid_argument);
}

TEST(SloTracker, InvalidSpecThrows) {
  SloTracker t;
  SloSpec bad = spec("b");
  bad.objective = 0;
  EXPECT_THROW(t.declare(bad), std::invalid_argument);
  bad = spec("b");
  bad.objective = 1.5;
  EXPECT_THROW(t.declare(bad), std::invalid_argument);
  bad = spec("b");
  bad.short_window = 200;  // short must not exceed long
  EXPECT_THROW(t.declare(bad), std::invalid_argument);
}

TEST(SloTracker, BurnRateIsBadFractionOverObjective) {
  SloTracker t;
  t.declare(spec("s", /*objective=*/0.1));
  // 10 events in the short window, 2 bad: bad fraction 0.2, burn 2.0.
  for (int i = 0; i < 10; ++i) {
    t.record_event("s", 5.0, i < 2 ? false : true);
  }
  const SloStatus st = t.evaluate(5.0)[0];
  EXPECT_EQ(st.short_total, 10u);
  EXPECT_EQ(st.short_bad, 2u);
  EXPECT_DOUBLE_EQ(st.short_burn, 2.0);
  EXPECT_DOUBLE_EQ(st.long_burn, 2.0);  // same events fill both windows
  EXPECT_TRUE(st.alerting);             // both burns >= burn_alert (2.0)
}

TEST(SloTracker, AlertNeedsBothWindowsBurning) {
  SloTracker t;
  t.declare(spec("s", 0.1, /*short_w=*/10, /*long_w=*/100));
  // A long history of good events dilutes the long window...
  for (int i = 0; i < 200; ++i) t.record_event("s", i * 0.5, true);
  // ...then a short burst of bad events at the end.
  for (int i = 0; i < 8; ++i) t.record_event("s", 99.0, false);
  const SloStatus st = t.evaluate(100.0)[0];
  // Short window [90, 100] is mostly the burst: burn far above 2.
  EXPECT_GE(st.short_burn, 2.0);
  // Long window holds ~200 good + 8 bad: bad fraction ~0.04, burn ~0.4.
  EXPECT_LT(st.long_burn, 2.0);
  EXPECT_FALSE(st.alerting);  // transient blip, long window vetoes
}

TEST(SloTracker, SustainedBurnAlerts) {
  SloTracker t;
  t.declare(spec("s", 0.1, 10, 100));
  // 30% bad across the whole horizon: burn 3.0 in both windows.
  for (int i = 0; i < 100; ++i) t.record_event("s", i * 1.0, i % 10 >= 3);
  const SloStatus st = t.evaluate(100.0)[0];
  EXPECT_GE(st.short_burn, 2.0);
  EXPECT_GE(st.long_burn, 2.0);
  EXPECT_TRUE(st.alerting);
  EXPECT_TRUE(t.any_alerting(100.0));
}

TEST(SloTracker, MinEventsGuardSuppressesThinWindows) {
  SloTracker t;
  t.declare(spec("s", 0.1, 10, 100, 2.0, /*min_events=*/4));
  // Three bad events: burn is sky-high but the sample is too thin.
  for (int i = 0; i < 3; ++i) t.record_event("s", 5.0, false);
  EXPECT_FALSE(t.evaluate(5.0)[0].alerting);
  // The fourth event crosses the guard.
  t.record_event("s", 5.0, false);
  EXPECT_TRUE(t.evaluate(5.0)[0].alerting);
}

TEST(SloTracker, ValueFeedMarksBadAboveThreshold) {
  SloTracker t;
  SloSpec s = spec("lat", 0.25);
  s.threshold = 1.0;
  t.declare(s);
  t.record_value("lat", 0, 0.5);   // good
  t.record_value("lat", 0, 1.0);   // good (not strictly above)
  t.record_value("lat", 0, 1.01);  // bad
  const SloStatus st = t.evaluate(0)[0];
  EXPECT_EQ(st.total, 3u);
  EXPECT_EQ(st.bad, 1u);
}

TEST(SloTracker, EventsOutsideWindowAgeOut) {
  SloTracker t;
  t.declare(spec("s", 0.1, 10, 100));
  for (int i = 0; i < 10; ++i) t.record_event("s", 0.0, false);
  // At t=0 the failures are in both windows; far later they are in neither.
  EXPECT_TRUE(t.evaluate(0.0)[0].alerting);
  const SloStatus late = t.evaluate(500.0)[0];
  EXPECT_EQ(late.short_total, 0u);
  EXPECT_EQ(late.long_total, 0u);
  EXPECT_FALSE(late.alerting);
  // Lifetime totals survive the windows.
  EXPECT_EQ(late.total, 10u);
  EXPECT_EQ(late.bad, 10u);
}

TEST(SloTracker, SnapshotJsonRoundTrips) {
  SloTracker t;
  t.declare(spec("svc/x", 0.1));
  t.record_event("svc/x", 1.0, true);
  t.record_event("svc/x", 1.0, false);
  const util::Json j = util::Json::parse(t.snapshot_json(1.0).dump(0));
  EXPECT_EQ(j.at("schema").as_string(), "vcopt-slo/1");
  EXPECT_DOUBLE_EQ(j.at("now").as_number(), 1.0);
  ASSERT_EQ(j.at("slos").size(), 1u);
  const util::Json& s = j.at("slos").at(0);
  EXPECT_EQ(s.at("name").as_string(), "svc/x");
  EXPECT_EQ(s.at("total").as_number(), 2);
  EXPECT_EQ(s.at("bad").as_number(), 1);
  EXPECT_FALSE(s.at("alerting").as_bool());
}

TEST(SloTracker, ResetClearsEventsButKeepsDeclarations) {
  SloTracker t;
  t.declare(spec("s"));
  t.record_event("s", 0, false);
  t.reset();
  EXPECT_TRUE(t.declared("s"));  // declarations survive, like the registry
  const SloStatus st = t.evaluate(0)[0];
  EXPECT_EQ(st.total, 0u);
  EXPECT_EQ(st.short_total, 0u);
  EXPECT_FALSE(st.alerting);
}

TEST(SloTracker, EmptyWindowsEvaluateQuietly) {
  SloTracker t;
  t.declare(spec("s"));
  // No events at all: burns are zero, no alert, no division blow-ups.
  const SloStatus st = t.evaluate(1e9)[0];
  EXPECT_EQ(st.total, 0u);
  EXPECT_EQ(st.short_total, 0u);
  EXPECT_EQ(st.long_total, 0u);
  EXPECT_DOUBLE_EQ(st.short_burn, 0.0);
  EXPECT_DOUBLE_EQ(st.long_burn, 0.0);
  EXPECT_FALSE(st.alerting);
  EXPECT_FALSE(t.any_alerting(1e9));
}

TEST(SloTracker, BurnExactlyAtThresholdAlerts) {
  // The alert rule is >= on both windows: burn landing exactly on
  // burn_alert must fire, not sit one ulp short of it.
  SloTracker t;
  t.declare(spec("s", /*objective=*/0.1, 10, 100, /*burn_alert=*/2.0,
                 /*min_events=*/4));
  // 10 events, 2 bad: bad fraction 0.2, burn exactly 2.0 in both windows.
  for (int i = 0; i < 10; ++i) t.record_event("s", 5.0, i >= 2);
  const SloStatus st = t.evaluate(5.0)[0];
  ASSERT_DOUBLE_EQ(st.short_burn, 2.0);
  ASSERT_DOUBLE_EQ(st.long_burn, 2.0);
  EXPECT_TRUE(st.alerting);
  // One ulp below the threshold must NOT fire: 2 bad out of 11 events is
  // burn ~1.82 < 2.0.
  SloTracker u;
  u.declare(spec("s", 0.1, 10, 100, 2.0, 4));
  for (int i = 0; i < 11; ++i) u.record_event("s", 5.0, i >= 2);
  EXPECT_FALSE(u.evaluate(5.0)[0].alerting);
}

TEST(SloTracker, ObjectiveReArmsAfterRecovery) {
  // alert -> recover (events age out / good events dilute) -> alert again.
  // The tracker holds no latch: a fresh burn after a quiet spell must fire
  // exactly like the first one did.
  SloTracker t;
  t.declare(spec("s", 0.1, 10, 100, 2.0, /*min_events=*/4));
  for (int i = 0; i < 10; ++i) t.record_event("s", 5.0, false);
  EXPECT_TRUE(t.any_alerting(5.0));
  // Long after, both windows are empty: recovered.
  EXPECT_FALSE(t.any_alerting(500.0));
  // A second storm re-arms the alert with no manual reset.
  for (int i = 0; i < 10; ++i) t.record_event("s", 600.0, false);
  const SloStatus st = t.evaluate(600.0)[0];
  EXPECT_TRUE(st.alerting);
  // Lifetime totals accumulated across both storms.
  EXPECT_EQ(st.total, 20u);
  EXPECT_EQ(st.bad, 20u);
}

TEST(SloTracker, MillionEventsHoldBoundedSlicesAndAlignedWindowsAreExact) {
  // The service's windows: 60 s short, 600 s long, so 0.9375 s slices and
  // at most 600 / 0.9375 + 1 = 641 retained.  10^6 events at 1 ms spacing
  // (1000 s of traffic) never hold more, and at slice-aligned instants the
  // window counts equal an exact count over the same events.
  SloTracker t;
  t.declare(spec("s", 0.05, 60, 600, 2.0, 10));
  const double width = 60.0 / SloTracker::kSlicesPerShortWindow;
  const std::size_t bound =
      static_cast<std::size_t>(std::ceil(600 / width)) + 1;
  constexpr int kEvents = 1000000;
  std::vector<double> times(kEvents);
  std::vector<std::uint32_t> bad_before(kEvents + 1, 0);  // prefix counts
  for (int i = 0; i < kEvents; ++i) {
    times[i] = i * 0.001;
    const bool bad = (static_cast<std::uint64_t>(i) * 2654435761ULL) % 97 < 4;
    bad_before[i + 1] = bad_before[i] + (bad ? 1 : 0);
  }
  // [a, b] inclusive, as the old per-event rule counted it.
  const auto exact = [&](double a, double b, std::uint64_t* bad) {
    const auto lo =
        std::lower_bound(times.begin(), times.end(), a) - times.begin();
    const auto hi =
        std::upper_bound(times.begin(), times.end(), b) - times.begin();
    *bad = bad_before[hi] - bad_before[lo];
    return static_cast<std::uint64_t>(hi - lo);
  };
  std::size_t max_slices = 0;
  std::size_t aligned_checks = 0;
  std::int64_t next_slice = 1;
  for (int i = 0; i < kEvents; ++i) {
    // Once an event lies past a slice's start, evaluate at that start: every
    // event recorded so far is at or before it.
    const double boundary = next_slice * width;
    if (times[i] > boundary) {
      if (next_slice % 37 == 0) {
        const SloStatus st = t.evaluate(boundary)[0];
        std::uint64_t short_bad = 0;
        std::uint64_t long_bad = 0;
        EXPECT_EQ(st.short_total, exact(boundary - 60, boundary, &short_bad));
        EXPECT_EQ(st.short_bad, short_bad);
        EXPECT_EQ(st.long_total, exact(boundary - 600, boundary, &long_bad));
        EXPECT_EQ(st.long_bad, long_bad);
        ++aligned_checks;
      }
      ++next_slice;
    }
    t.record_event("s", times[i], bad_before[i + 1] == bad_before[i]);
    max_slices = std::max(max_slices, t.slice_count("s"));
  }
  EXPECT_EQ(bound, 641u);
  EXPECT_LE(max_slices, bound);
  EXPECT_GE(max_slices, bound - 1);  // 1000 s of traffic fills the horizon
  EXPECT_GE(aligned_checks, 20u);
  const SloStatus last = t.evaluate(times.back())[0];
  EXPECT_EQ(last.total, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(last.bad, bad_before[kEvents]);
}

TEST(SloTracker, OutOfOrderEventCountsInItsOwnSlice) {
  SloTracker t;
  t.declare(spec("s", 0.1, 10, 100));
  t.record_event("s", 50.0, true);
  t.record_event("s", 20.0, false);  // late: belongs 30 s back
  EXPECT_EQ(t.slice_count("s"), 2u);
  // At t = 25 only the late event has happened.
  const SloStatus early = t.evaluate(25.0)[0];
  EXPECT_EQ(early.short_total, 1u);
  EXPECT_EQ(early.short_bad, 1u);
  // At t = 50 it has left the short window but not the long one.
  const SloStatus late = t.evaluate(50.0)[0];
  EXPECT_EQ(late.short_total, 1u);
  EXPECT_EQ(late.short_bad, 0u);
  EXPECT_EQ(late.long_total, 2u);
  EXPECT_EQ(late.long_bad, 1u);
}

TEST(SloTracker, NonFiniteOrOutOfRangeTimesThrow) {
  SloTracker t;
  t.declare(spec("s"));
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 1e300,
                         -1e300};
  for (const double v : kBad) {
    EXPECT_THROW(t.record_event("s", v, true), std::invalid_argument) << v;
    EXPECT_THROW(t.record_value("s", v, 0), std::invalid_argument) << v;
    EXPECT_THROW(t.evaluate(v), std::invalid_argument) << v;
    EXPECT_THROW(t.any_alerting(v), std::invalid_argument) << v;
  }
  // A rejected event leaves the series untouched.
  const SloStatus st = t.evaluate(0)[0];
  EXPECT_EQ(st.total, 0u);
  EXPECT_EQ(t.slice_count("s"), 0u);
  // So do windows that are not finite or span too many slices.
  SloSpec inf = spec("inf");
  inf.long_window = std::numeric_limits<double>::infinity();
  EXPECT_THROW(t.declare(inf), std::invalid_argument);
  SloSpec nan = spec("nan");
  nan.short_window = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.declare(nan), std::invalid_argument);
  SloSpec wide = spec("wide", 0.1, 1e-3, 1e6);
  EXPECT_THROW(t.declare(wide), std::invalid_argument);
}

}  // namespace
}  // namespace vcopt::obs
