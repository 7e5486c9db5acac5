// NDJSON journal: record round-trips, schema diagnostics (source:line:col in
// the workload::config style), and the canonical grant stream.
#include "service/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <sstream>

#include "cluster/request.h"
#include "obs/request_context.h"
#include "util/json.h"
#include "util/rng.h"

namespace vcopt::service {
namespace {

using cluster::Request;

TEST(Journal, SubmitWindowReleaseRoundTrip) {
  std::ostringstream out;
  JournalWriter writer(out);
  SubmitOptions opts;
  opts.priority = 3;
  opts.deadline = 1.5;
  opts.klass = RequestClass::kInteractive;
  writer.submit(1, Request({2, 0, 1}, 42, 3), opts, 0.25,
                obs::derive_trace_id(1, 42));
  writer.window(1, 0.5, "size", {1}, {});
  writer.release(7, 0.75);
  EXPECT_EQ(writer.records_written(), 3u);

  std::istringstream in(out.str());
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 3u);

  EXPECT_EQ(records[0].type, RecordType::kSubmit);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].time, 0.25);
  EXPECT_EQ(records[0].request.id(), 42u);
  EXPECT_EQ(records[0].request.counts(), (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(records[0].request.priority(), 3);
  EXPECT_EQ(records[0].options.priority, 3);
  EXPECT_EQ(records[0].options.deadline, 1.5);
  EXPECT_EQ(records[0].options.klass, RequestClass::kInteractive);

  EXPECT_EQ(records[1].type, RecordType::kWindow);
  EXPECT_EQ(records[1].window_id, 1u);
  EXPECT_EQ(records[1].reason, "size");
  EXPECT_EQ(records[1].members, (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(records[1].shed.empty());

  EXPECT_EQ(records[2].type, RecordType::kRelease);
  EXPECT_EQ(records[2].lease, 7u);
  EXPECT_EQ(records[2].time, 0.75);
}

TEST(Journal, NoDeadlineIsOmittedAndParsesBackAsInfinity) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.submit(1, Request({1}), SubmitOptions{}, 0, obs::derive_trace_id(1, 0));
  EXPECT_EQ(out.str().find("deadline"), std::string::npos);
  std::istringstream in(out.str());
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].options.deadline, kNoDeadline);
}

TEST(Journal, WriterEmitsOneCompactLinePerRecord) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.submit(1, Request({1, 2}), SubmitOptions{}, 0,
                obs::derive_trace_id(1, 0));
  writer.window(1, 0.1, "flush", {1}, {});
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  // Compact dump: no pretty-printing spaces after separators.
  EXPECT_EQ(text.find(": "), std::string::npos);
}

TEST(Journal, MalformedJsonDiagnosticCarriesLineAndColumn) {
  // The malformed line sits MID-file (a valid record follows), so torn-tail
  // tolerance does not apply and the parse must fail with a diagnostic.
  std::istringstream in(
      "{\"type\":\"submit\",\"seq\":1,\"id\":1,\"counts\":[1],\"priority\":0,"
      "\"class\":\"batch\",\"time\":0}\n"
      "{\"type\":\"window\",,}\n"
      "{\"type\":\"release\",\"lease\":1,\"time\":1}\n");
  try {
    parse_journal(in, "test.ndjson");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test.ndjson:2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find('^'), std::string::npos) << msg;
  }
}

TEST(Journal, TornFinalLineWarnsInsteadOfFailing) {
  // A crash mid-append leaves a truncated final line; everything before it
  // must still parse.
  std::ostringstream out;
  JournalWriter writer(out);
  writer.submit(1, Request({1}), SubmitOptions{}, 0, obs::derive_trace_id(1, 0));
  writer.release(3, 0.5);
  std::string text = out.str();
  text += text.substr(0, text.find('\n') / 2);  // torn partial record, no \n
  std::istringstream in(text);
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, RecordType::kSubmit);
  EXPECT_EQ(records[1].type, RecordType::kRelease);
}

TEST(Journal, ChecksumMismatchMidFileThrows) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.release(1, 0.25);
  writer.release(2, 0.5);
  std::string text = out.str();
  // Corrupt a digit inside the FIRST record's time without breaking the
  // JSON syntax: the line parses but its checksum no longer matches.
  const std::size_t pos = text.find("0.25");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 2] = '7';
  std::istringstream in(text);
  EXPECT_THROW(parse_journal(in), std::invalid_argument);
}

TEST(Journal, ChecksumMismatchOnFinalLineIsSkippedWithWarning) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.release(1, 0.25);
  writer.release(2, 0.5);
  std::string text = out.str();
  const std::size_t pos = text.find("0.5");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 2] = '7';  // valid JSON, wrong bytes -> torn final write
  std::istringstream in(text);
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lease, 1u);
}

TEST(Journal, LegacyLinesWithoutChecksumStillParse) {
  std::istringstream in(
      "{\"type\":\"release\",\"lease\":9,\"time\":1.5}\n");
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, RecordType::kRelease);
  EXPECT_EQ(records[0].lease, 9u);
}

TEST(Journal, RebalanceRecordRoundTrips) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.rebalance(2.5, {RebalanceMove{4, 1, 2, 0}, RebalanceMove{4, 3, 2, 1}});
  std::istringstream in(out.str());
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, RecordType::kRebalance);
  EXPECT_EQ(records[0].time, 2.5);
  ASSERT_EQ(records[0].moves.size(), 2u);
  EXPECT_EQ(records[0].moves[0].lease, 4u);
  EXPECT_EQ(records[0].moves[0].from, 1u);
  EXPECT_EQ(records[0].moves[0].to, 2u);
  EXPECT_EQ(records[0].moves[0].type, 0u);
  EXPECT_EQ(records[0].moves[1].from, 3u);
  EXPECT_EQ(records[0].moves[1].type, 1u);
}

TEST(Journal, EveryWrittenLineCarriesLenAndSum) {
  std::ostringstream out;
  JournalWriter writer(out);
  writer.submit(1, Request({1}), SubmitOptions{}, 0, obs::derive_trace_id(1, 0));
  writer.window(1, 0.1, "flush", {1}, {});
  writer.release(1, 0.2);
  writer.rebalance(0.3, {});
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_NE(line.find("\"len\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"sum\":\""), std::string::npos) << line;
  }
  EXPECT_EQ(n, 4u);
}

TEST(Journal, SchemaViolationNamesTheRecord) {
  std::istringstream in("{\"type\":\"teleport\",\"time\":0}\n");
  try {
    parse_journal(in, "j");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("j:1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("teleport"), std::string::npos) << msg;
  }
}

TEST(Journal, IdThatNoUint64HoldsIsABadRecord) {
  // Ids are written as doubles: lease 2^64 - 1 is written as 2^64, which no
  // uint64_t holds, so parsing it back must fail on its line rather than
  // cast it.  The hand-written lines put a negative seq in a window's
  // members and a fractional node in a rebalance move.
  std::ostringstream written;
  JournalWriter writer(written);
  writer.release(std::numeric_limits<std::uint64_t>::max(), 0.5);
  for (const std::string& line :
       {written.str(),
        std::string("{\"members\":[-1],\"reason\":\"size\",\"shed\":[],"
                    "\"time\":0,\"type\":\"window\",\"window\":1}\n"),
        std::string("{\"moves\":[{\"from\":1.5,\"lease\":1,\"to\":2,"
                    "\"vmtype\":0}],\"time\":0,\"type\":\"rebalance\"}\n")}) {
    std::istringstream in(line);
    try {
      parse_journal(in, "j");
      ADD_FAILURE() << "expected std::invalid_argument for " << line;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("j:1: bad journal record"), std::string::npos)
          << msg;
    }
  }
}

// A number outside double's range is a JSON parse error on its line: mid-file
// it fails with the line's position, on the final line it is a torn tail.
TEST(Journal, OutOfRangeNumberIsAParseErrorOnItsLine) {
  std::ostringstream first, last;
  JournalWriter(first).release(1, 0.25);
  JournalWriter(last).release(2, 0.5);
  const std::string bad = "{\"lease\":1e999,\"time\":0.4,\"type\":\"release\"}\n";

  std::istringstream middle(first.str() + bad + last.str());
  try {
    parse_journal(middle, "j");
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("j:2:", 0), 0u) << msg;
    EXPECT_NE(msg.find("number out of range"), std::string::npos) << msg;
  }

  std::istringstream tail(first.str() + last.str() + bad);
  ::testing::internal::CaptureStderr();
  const auto records = parse_journal(tail, "j");
  const std::string warning = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].lease, 2u);
  EXPECT_NE(warning.find("j:3: ignoring torn final journal line"),
            std::string::npos)
      << warning;
}

TEST(Journal, UnknownRequestClassIsASchemaError) {
  std::istringstream in(
      "{\"type\":\"submit\",\"seq\":1,\"id\":1,\"counts\":[1],\"priority\":0,"
      "\"class\":\"platinum\",\"time\":0}\n");
  EXPECT_THROW(parse_journal(in), std::invalid_argument);
}

TEST(Journal, OutcomeRoundTripsThroughJson) {
  Outcome o;
  o.seq = 9;
  o.request_id = 4;
  o.window_id = 2;
  o.kind = OutcomeKind::kGranted;
  o.lease = 11;
  o.central = 5;
  o.distance = 12.625;
  o.requested_vms = 7;
  o.granted_vms = 7;
  o.submit_time = 0.125;
  o.decide_time = 0.25;
  const Outcome back = outcome_from_json(outcome_to_json(o));
  EXPECT_EQ(back.seq, o.seq);
  EXPECT_EQ(back.request_id, o.request_id);
  EXPECT_EQ(back.window_id, o.window_id);
  EXPECT_EQ(back.kind, o.kind);
  EXPECT_EQ(back.lease, o.lease);
  EXPECT_EQ(back.central, o.central);
  EXPECT_EQ(back.distance, o.distance);
  EXPECT_EQ(back.requested_vms, o.requested_vms);
  EXPECT_EQ(back.granted_vms, o.granted_vms);
  EXPECT_EQ(back.submit_time, o.submit_time);
  EXPECT_EQ(back.decide_time, o.decide_time);
}

TEST(Journal, LeaselessOutcomeOmitsLeaseFields) {
  Outcome o;
  o.seq = 1;
  o.kind = OutcomeKind::kShedDeadline;
  const std::string line = outcome_to_json(o).dump(0);
  EXPECT_EQ(line.find("lease"), std::string::npos);
  EXPECT_EQ(line.find("central"), std::string::npos);
}

TEST(Journal, GrantStreamIsSeqSortedAndOrderInsensitive) {
  Outcome a;
  a.seq = 2;
  a.kind = OutcomeKind::kAbandoned;
  Outcome b;
  b.seq = 1;
  b.kind = OutcomeKind::kAbandoned;
  const std::string forward = grant_stream({a, b});
  const std::string backward = grant_stream({b, a});
  EXPECT_EQ(forward, backward);
  EXPECT_LT(forward.find("\"seq\":1"), forward.find("\"seq\":2"));
}

// The writer emits records straight into a buffer.  Its bytes are pinned
// against the util::JsonObject writer it replaced, kept here as the
// reference: build the object, dump it, add len/sum, dump it again.
class ReferenceWriter {
 public:
  std::string submit(std::uint64_t seq, const Request& request,
                     const SubmitOptions& options, double time,
                     std::uint64_t trace_id) {
    util::JsonObject o;
    o["type"] = "submit";
    o["seq"] = static_cast<double>(seq);
    o["id"] = static_cast<double>(request.id());
    util::JsonArray counts;
    for (std::size_t j = 0; j < request.type_count(); ++j) {
      counts.push_back(util::Json(request.count(j)));
    }
    o["counts"] = util::Json(std::move(counts));
    o["priority"] = options.priority;
    o["class"] = to_string(options.klass);
    if (std::isfinite(options.deadline)) o["deadline"] = options.deadline;
    o["time"] = time;
    o["trace"] = obs::trace_id_hex(trace_id);
    return line(std::move(o));
  }
  std::string window(std::uint64_t window_id, double time, const char* reason,
                     const std::vector<std::uint64_t>& members,
                     const std::vector<std::uint64_t>& shed,
                     std::size_t cell) {
    util::JsonObject o;
    o["type"] = "window";
    o["window"] = static_cast<double>(window_id);
    o["time"] = time;
    o["reason"] = reason;
    if (cell != kNoCell) o["cell"] = static_cast<double>(cell);
    o["members"] = array(members);
    o["shed"] = array(shed);
    return line(std::move(o));
  }
  std::string release(cluster::LeaseId lease, double time) {
    util::JsonObject o;
    o["type"] = "release";
    o["lease"] = static_cast<double>(lease);
    o["time"] = time;
    return line(std::move(o));
  }
  std::string rebalance(double time, const std::vector<RebalanceMove>& moves) {
    util::JsonObject o;
    o["type"] = "rebalance";
    o["time"] = time;
    util::JsonArray arr;
    for (const RebalanceMove& m : moves) {
      util::JsonObject mo;
      mo["lease"] = static_cast<double>(m.lease);
      mo["from"] = static_cast<double>(m.from);
      mo["to"] = static_cast<double>(m.to);
      mo["vmtype"] = static_cast<double>(m.type);
      arr.push_back(util::Json(std::move(mo)));
    }
    o["moves"] = util::Json(std::move(arr));
    return line(std::move(o));
  }

 private:
  static util::Json array(const std::vector<std::uint64_t>& xs) {
    util::JsonArray arr;
    for (std::uint64_t x : xs) {
      arr.push_back(util::Json(static_cast<double>(x)));
    }
    return util::Json(std::move(arr));
  }
  static std::string line(util::JsonObject record) {
    const std::string payload = util::Json(record).dump(0);
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : payload) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    record["len"] = static_cast<double>(payload.size());
    record["sum"] = obs::trace_id_hex(h);
    return util::Json(std::move(record)).dump(0) + "\n";
  }
};

/// Draws record fields with the edge values mixed in: integers around and
/// above 2^53 up to 2^64-1, integral doubles at and above 1e15, negative
/// zero, fractions, negative priorities.
class FieldDraws {
 public:
  explicit FieldDraws(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t u64() {
    static const std::uint64_t kEdges[] = {
        0,
        1,
        (1ULL << 53) - 1,
        1ULL << 53,
        (1ULL << 53) + 1,
        (1ULL << 53) + 3,
        999999999999999ULL,
        1000000000000000ULL,
        1ULL << 63,
        std::numeric_limits<std::uint64_t>::max()};
    switch (rng_.uniform_int(0, 2)) {
      case 0: return kEdges[pick(std::size(kEdges))];
      case 1: return static_cast<std::uint64_t>(rng_.uniform_int(0, 100000));
      default: return rng_();
    }
  }
  double time() {
    static const double kEdges[] = {0.0,
                                    -0.0,
                                    1e15,
                                    1e15 + 1,
                                    -1e15,
                                    999999999999999.0,
                                    999999999999999.5,
                                    0x1p60,
                                    1e300,
                                    0.1,
                                    1.0 / 3.0,
                                    -2.5,
                                    5e-324,
                                    std::numeric_limits<double>::max()};
    switch (rng_.uniform_int(0, 2)) {
      case 0: return kEdges[pick(std::size(kEdges))];
      case 1: return static_cast<double>(rng_.uniform_int(0, 1000000));
      default: return rng_.uniform(0.0, 1e4);
    }
  }
  int priority() {
    static const int kEdges[] = {INT_MIN, -7, -1, 0, 1, 4, INT_MAX};
    return kEdges[pick(std::size(kEdges))];
  }
  std::size_t small(std::size_t n) { return pick(n); }
  std::vector<std::uint64_t> u64s() {
    std::vector<std::uint64_t> xs(pick(5));
    for (std::uint64_t& x : xs) x = u64();
    return xs;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  util::Rng rng_;
};

TEST(JournalBytes, WriterMatchesJsonObjectReference) {
  static const char* kReasons[] = {"size", "wait", "flush", "",
                                   "q\"uote\\back\x01" "ctl\x1f\n\t"};
  static const RequestClass kClasses[] = {
      RequestClass::kInteractive, RequestClass::kBatch,
      RequestClass::kBestEffort};
  FieldDraws draw(20240917);
  ReferenceWriter ref;
  std::ostringstream out;
  JournalWriter writer(out);  // one writer: its buffers are reused
  std::size_t checked = 0;
  for (int i = 0; i < 4000; ++i) {
    out.str("");
    std::string want;
    switch (i % 4) {
      case 0: {
        std::vector<int> counts(1 + draw.small(5));
        for (int& c : counts) c = static_cast<int>(draw.small(1000));
        const Request request(std::move(counts), draw.u64(), draw.priority());
        SubmitOptions opts;
        opts.priority = draw.priority();
        opts.klass = kClasses[draw.small(3)];
        switch (draw.small(3)) {
          case 0: opts.deadline = kNoDeadline; break;
          case 1:
            opts.deadline = -std::numeric_limits<double>::infinity();
            break;
          default: opts.deadline = draw.time();
        }
        const std::uint64_t seq = draw.u64();
        const double time = draw.time();
        const std::uint64_t trace = draw.u64();
        writer.submit(seq, request, opts, time, trace);
        want = ref.submit(seq, request, opts, time, trace);
        break;
      }
      case 1: {
        const std::uint64_t id = draw.u64();
        const double time = draw.time();
        const char* reason = kReasons[draw.small(std::size(kReasons))];
        const std::vector<std::uint64_t> members = draw.u64s();
        const std::vector<std::uint64_t> shed = draw.u64s();
        const std::size_t cell =
            draw.small(2) == 0 ? kNoCell : static_cast<std::size_t>(draw.u64());
        writer.window(id, time, reason, members, shed, cell);
        want = ref.window(id, time, reason, members, shed, cell);
        break;
      }
      case 2: {
        const cluster::LeaseId lease = draw.u64();
        const double time = draw.time();
        writer.release(lease, time);
        want = ref.release(lease, time);
        break;
      }
      default: {
        std::vector<RebalanceMove> moves(draw.small(4));
        for (RebalanceMove& m : moves) {
          m = RebalanceMove{draw.u64(), static_cast<std::size_t>(draw.u64()),
                            static_cast<std::size_t>(draw.u64()),
                            draw.small(8)};
        }
        const double time = draw.time();
        writer.rebalance(time, moves);
        want = ref.rebalance(time, moves);
      }
    }
    ASSERT_EQ(out.str(), want) << "record " << i;
    ++checked;
  }
  EXPECT_EQ(checked, 4000u);
  EXPECT_EQ(writer.records_written(), 4000u);
}

TEST(JournalBytes, EdgeRecordsParseBackThroughTheIntegrityCheck) {
  // The spliced len/sum must be what the parser re-derives, for the records
  // whose bytes are hardest to get right: a reason that needs escaping, an
  // empty window and an empty rebalance.
  std::ostringstream out;
  JournalWriter writer(out);
  SubmitOptions opts;
  opts.priority = -3;
  opts.deadline = 1e15;
  writer.submit(1ULL << 63, Request({0, 5}, 1ULL << 60), opts, -0.0, 1);
  writer.window(3, 0.125, "q\"\\\x02", {}, {}, 7);
  writer.rebalance(1.5, {});
  writer.release(2, 2.75);
  std::istringstream in(out.str());
  const auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].seq, 1ULL << 63);
  EXPECT_EQ(records[0].options.priority, -3);
  EXPECT_EQ(records[0].options.deadline, 1e15);
  EXPECT_EQ(records[1].reason, "q\"\\\x02");
  EXPECT_EQ(records[1].cell, 7u);
  EXPECT_TRUE(records[1].members.empty());
  EXPECT_TRUE(records[2].moves.empty());
  EXPECT_EQ(records[3].lease, 2u);
}

}  // namespace
}  // namespace vcopt::service
