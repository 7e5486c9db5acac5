// Request-scoped tracing through the placement service: the trace id is a
// pure function of (seq, request id), journaled grants carry it, replay
// derives the identical ids from the journal bytes, and journals written
// before tracing existed (no "trace" field) re-derive the same ids at parse
// time — the byte-identity guarantee is preserved in both directions.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "obs/request_context.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "workload/scenario.h"

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& scenario) {
  return Cloud(scenario.topology, scenario.catalog, scenario.capacity);
}

TEST(TraceId, IsDeterministicAndNeverZero) {
  EXPECT_EQ(obs::derive_trace_id(1, 42u), obs::derive_trace_id(1, 42u));
  EXPECT_NE(obs::derive_trace_id(1, 42u), obs::derive_trace_id(2, 42u));
  EXPECT_NE(obs::derive_trace_id(1, 42u), obs::derive_trace_id(1, 43u));
  EXPECT_NE(obs::derive_trace_id(0, 0u), 0u);
}

TEST(TraceId, HexRoundTrips) {
  const std::uint64_t id = obs::derive_trace_id(7, 1234u);
  const std::string hex = obs::trace_id_hex(id);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(obs::parse_trace_id(hex), id);
  EXPECT_EQ(obs::parse_trace_id("nope"), 0u);
  EXPECT_EQ(obs::parse_trace_id("ZZZZZZZZZZZZZZZZ"), 0u);
  EXPECT_EQ(obs::trace_id_hex(0x1a2b3c4d5e6f7081ULL), "1a2b3c4d5e6f7081");
}

TEST(Tracing, OutcomesCarryDerivedTraceIds) {
  const auto scenario = workload::paper_sim_scenario(3);
  Cloud cloud = scenario_cloud(scenario);
  ServiceOptions options;
  options.max_batch = 4;
  PlacementService svc(cloud, options);
  std::vector<std::uint64_t> seqs;
  for (std::size_t i = 0; i < 8; ++i) {
    const SubmitReceipt r = svc.submit(scenario.requests[i]);
    ASSERT_EQ(r.admission, AdmissionStatus::kAccepted);
    seqs.push_back(r.seq);
  }
  svc.flush();
  const std::vector<Outcome> outcomes = svc.take_outcomes();
  ASSERT_EQ(outcomes.size(), 8u);
  for (const Outcome& o : outcomes) {
    EXPECT_EQ(o.trace_id, obs::derive_trace_id(o.seq, o.request_id))
        << "seq " << o.seq;
    EXPECT_NE(o.trace_id, 0u);
  }
  svc.stop();
}

TEST(Tracing, JournalRecordsAndGrantStreamCarryTraceIds) {
  const auto scenario = workload::paper_sim_scenario(5);
  Cloud cloud = scenario_cloud(scenario);
  std::ostringstream journal;
  ServiceOptions options;
  options.max_batch = 2;
  options.journal = &journal;
  PlacementService svc(cloud, options);
  for (std::size_t i = 0; i < 4; ++i) svc.submit(scenario.requests[i]);
  svc.flush();
  std::vector<Outcome> outcomes = svc.take_outcomes();
  svc.stop();

  // Every submit record carries the hex id derived from (seq, request id).
  std::istringstream in(journal.str());
  const std::vector<JournalRecord> records = parse_journal(in, "test");
  std::size_t submits = 0;
  for (const JournalRecord& rec : records) {
    if (rec.type != RecordType::kSubmit) continue;
    ++submits;
    EXPECT_EQ(rec.trace_id,
              obs::derive_trace_id(rec.seq, rec.request.id()));
  }
  EXPECT_EQ(submits, 4u);

  // The canonical grant stream embeds the same ids.
  const std::string grants = grant_stream(std::move(outcomes));
  for (const JournalRecord& rec : records) {
    if (rec.type != RecordType::kSubmit) continue;
    EXPECT_NE(grants.find("\"trace\":\"" + obs::trace_id_hex(rec.trace_id) +
                          "\""),
              std::string::npos)
        << "grant stream lost trace for seq " << rec.seq;
  }
}

TEST(Tracing, ReplayPreservesTraceIdsByteIdentically) {
  const auto scenario = workload::paper_sim_scenario(11);
  std::ostringstream journal;
  std::string live_grants;
  {
    Cloud cloud = scenario_cloud(scenario);
    ServiceOptions options;
    options.max_batch = 3;
    options.journal = &journal;
    PlacementService svc(cloud, options);
    std::vector<Outcome> outcomes;
    for (std::size_t i = 0; i < 9; ++i) {
      svc.advance_to(static_cast<double>(i) * 0.01);
      svc.submit(scenario.requests[i]);
      for (Outcome& o : svc.take_outcomes()) outcomes.push_back(std::move(o));
    }
    svc.stop();
    for (Outcome& o : svc.take_outcomes()) outcomes.push_back(std::move(o));
    live_grants = grant_stream(std::move(outcomes));
  }
  Cloud cloud = scenario_cloud(scenario);
  ServiceOptions options;
  options.max_batch = 3;
  std::istringstream in(journal.str());
  const ReplayResult replayed =
      replay_journal(parse_journal(in, "test"), cloud, options);
  EXPECT_EQ(replayed.grants, live_grants);
  EXPECT_NE(live_grants.find("\"trace\":\""), std::string::npos);
}

TEST(Tracing, LegacyJournalWithoutTraceFieldDerivesTheSameIds) {
  const auto scenario = workload::paper_sim_scenario(13);
  std::ostringstream journal;
  std::string live_grants;
  {
    Cloud cloud = scenario_cloud(scenario);
    ServiceOptions options;
    options.max_batch = 2;
    options.journal = &journal;
    PlacementService svc(cloud, options);
    std::vector<Outcome> outcomes;
    for (std::size_t i = 0; i < 6; ++i) {
      svc.submit(scenario.requests[i]);
      for (Outcome& o : svc.take_outcomes()) outcomes.push_back(std::move(o));
    }
    svc.stop();
    for (Outcome& o : svc.take_outcomes()) outcomes.push_back(std::move(o));
    live_grants = grant_stream(std::move(outcomes));
  }

  // Strip every "trace" field — and the len/sum integrity fields, which a
  // journal that old also predates — simulating a pre-tracing journal.
  std::string legacy = journal.str();
  for (std::string::size_type pos; (pos = legacy.find(",\"trace\":\"")) !=
                                   std::string::npos;) {
    legacy.erase(pos, std::string(",\"trace\":\"").size() + 17);
  }
  // "len"/"sum" may be the first key of a record (sorted keys), so strip
  // the key/value plus whichever adjacent comma keeps the JSON valid.
  const auto strip_key = [&](const std::string& key) {
    for (std::string::size_type pos;
         (pos = legacy.find("\"" + key + "\":")) != std::string::npos;) {
      std::string::size_type end = pos + key.size() + 3;
      if (legacy[end] == '"') {  // quoted value
        end = legacy.find('"', end + 1) + 1;
      } else {
        while (legacy[end] != ',' && legacy[end] != '}') ++end;
      }
      if (legacy[pos - 1] == ',') {
        legacy.erase(pos - 1, end - (pos - 1));
      } else {
        legacy.erase(pos, end + 1 - pos);  // key was first: eat the comma after
      }
    }
  };
  strip_key("len");
  strip_key("sum");
  ASSERT_EQ(legacy.find("\"trace\""), std::string::npos);
  ASSERT_EQ(legacy.find("\"len\""), std::string::npos);
  ASSERT_EQ(legacy.find("\"sum\""), std::string::npos);

  Cloud cloud = scenario_cloud(scenario);
  ServiceOptions options;
  options.max_batch = 2;
  std::istringstream in(legacy);
  const std::vector<JournalRecord> records = parse_journal(in, "legacy");
  for (const JournalRecord& rec : records) {
    if (rec.type != RecordType::kSubmit) continue;
    EXPECT_EQ(rec.trace_id,
              obs::derive_trace_id(rec.seq, rec.request.id()));
  }
  // The replayed grant stream (which re-emits "trace") matches the live one.
  const ReplayResult replayed = replay_journal(records, cloud, options);
  EXPECT_EQ(replayed.grants, live_grants);
}

TEST(Tracing, MalformedTraceFieldIsRejected) {
  const std::string line =
      "{\"type\":\"submit\",\"seq\":1,\"time\":0,\"id\":1,\"counts\":[1,0,0],"
      "\"priority\":0,\"class\":\"batch\",\"trace\":\"xyz\"}";
  std::istringstream in(line);
  EXPECT_THROW(parse_journal(in, "bad"), std::invalid_argument);
}

}  // namespace
}  // namespace vcopt::service
