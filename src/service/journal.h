// NDJSON write-ahead journal for the placement service: one JSON object per
// line, appended under the service lock *before* the decision it describes
// executes, so a crashed or restarted service can replay the file and land
// in the same state (same grants, same lease ids, same DC totals —
// byte-identical outcome records; see docs/service.md).
//
// Record schemas (keys sorted by util::Json's object ordering):
//   {"type":"submit","seq":N,"id":I,"counts":[..],"priority":P,
//    "class":"batch","time":T,"trace":"16-hex"} — accepted submission;
//    "deadline":D appears only for finite deadlines.  "trace" is the
//    request's obs trace id; journals written before tracing landed omit it
//    and the parser re-derives it (obs::derive_trace_id is a pure function
//    of seq and id), so old journals still replay byte-identically
//   {"type":"window","window":W,"time":T,"reason":"size|wait|flush",
//    "members":[seq..],"shed":[seq..]}          — a closed decision window:
//    `members` in dispatch order, `shed` the deadline-expired entries.
//    "cell":C appears only for windows routed to a cell (cell-mode serving,
//    docs/cells.md); replay re-plans the window inside that cell.  Flat
//    windows — and cell-mode windows whose members no cell admitted — omit
//    it, so flat journals are byte-identical to pre-cell builds
//   {"type":"release","lease":L,"time":T}       — a lease returned
//   {"type":"rebalance","time":T,"moves":[{"from":F,"lease":L,"to":D,
//    "vmtype":J},..]}                            — a drift-repair pass: the
//    exact live migrations the service applied between windows, so replay
//    reproduces the capacity evolution they caused
//
// Integrity: every line additionally carries "len" (byte length of the
// record serialised WITHOUT len/sum) and "sum" (FNV-1a 64 of those bytes,
// as 16 hex digits).  The hash starts from offset basis 1469598103934665603,
// which is not the FNV spec's 14695981039346656037: it lacks the spec's last
// digit, so a verifier written from the spec rejects every line.  The basis
// stays for byte compatibility until the journal carries a schema version
// (ROADMAP.md item 2, step 2).  The parser re-derives both and rejects a
// mismatched line — except when the damage is confined to the FINAL line,
// the signature of a crash mid-append, which is skipped with a warning
// instead of failing the whole replay.  Lines without len/sum (journals from
// older builds) parse unchanged.
//
// The window record carries the decided membership (not just arrival
// order), so replay never re-runs the window-formation policy — it re-
// executes exactly the windows the live service formed.  Outcome records
// (the grant stream `vcopt_cli serve` prints) use outcome_to_json below;
// they are NOT part of the journal, they are what replay must reproduce.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/service.h"
#include "util/json.h"

namespace vcopt::service {

enum class RecordType { kSubmit, kWindow, kRelease, kRebalance };

const char* to_string(RecordType t);

/// One journaled live migration (a rebalance record holds a batch of them).
struct RebalanceMove {
  cluster::LeaseId lease = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t type = 0;
};

/// One parsed journal line; fields beyond `type`/`time` are meaningful only
/// for the matching record type.
struct JournalRecord {
  RecordType type = RecordType::kSubmit;
  double time = 0;
  // kSubmit
  std::uint64_t seq = 0;
  cluster::Request request;  // id, counts and priority
  SubmitOptions options;
  std::uint64_t trace_id = 0;  // derived when the record predates tracing
  // kWindow
  std::uint64_t window_id = 0;
  std::string reason;
  std::size_t cell = kNoCell;  ///< routed cell; kNoCell when absent (flat)
  std::vector<std::uint64_t> members;
  std::vector<std::uint64_t> shed;
  // kRelease
  cluster::LeaseId lease = 0;
  // kRebalance
  std::vector<RebalanceMove> moves;
};

/// Appends NDJSON records to a stream (one line per call, flushed so the
/// journal survives a crash mid-run).  Each record is written key by key,
/// in util::Json's sorted order, into a buffer the writer reuses; "len" and
/// "sum" are then spliced in at their sorted positions.  The bytes are those
/// of dumping the record as a util::JsonObject, which is what the parser's
/// integrity check re-derives.  Not internally synchronised — the service
/// serialises calls under its own lock.
class JournalWriter {
 public:
  explicit JournalWriter(std::ostream& out) : out_(out) {}

  void submit(std::uint64_t seq, const cluster::Request& request,
              const SubmitOptions& options, double time,
              std::uint64_t trace_id);
  /// `cell` = kNoCell omits the record's "cell" field (flat serving).
  void window(std::uint64_t window_id, double time, const char* reason,
              const std::vector<std::uint64_t>& members,
              const std::vector<std::uint64_t>& shed,
              std::size_t cell = kNoCell);
  void release(cluster::LeaseId lease, double time);
  void rebalance(double time, const std::vector<RebalanceMove>& moves);

  std::uint64_t records_written() const { return records_; }

 private:
  /// Clears the payload buffer and opens the record's object.
  std::string& begin();
  /// Closes the payload, splices len/sum in at len_at_/sum_at_, and writes
  /// and flushes the line.
  void finish();

  std::ostream& out_;
  std::string payload_;     ///< the record without len/sum
  std::string line_;        ///< the record as written
  std::size_t len_at_ = 0;  ///< payload offset of the member "len" precedes
  std::size_t sum_at_ = 0;  ///< payload offset of the member "sum" precedes
  std::uint64_t records_ = 0;
};

/// Parses a journal stream.  Malformed JSON or a schema violation throws
/// std::invalid_argument with a `source:line:col` diagnostic (line = NDJSON
/// record number) in the style of workload::config.
std::vector<JournalRecord> parse_journal(std::istream& in,
                                         const std::string& source = "journal");

/// Serialisation of one decided outcome — the grant stream.  Deterministic
/// (sorted keys, %.17g doubles), so replay equivalence can be checked with
/// a byte compare of the emitted lines.
util::Json outcome_to_json(const Outcome& outcome);

/// Round-trip of outcome_to_json for tools that read a grant stream back.
Outcome outcome_from_json(const util::Json& json);

/// Canonical grant stream: every outcome as one NDJSON line, sorted by seq.
/// Two runs that made the same decisions produce byte-identical streams
/// regardless of the order the outcomes were collected in — this is the form
/// the replay-equivalence tests and `vcopt_cli serve --grants-out` compare.
std::string grant_stream(std::vector<Outcome> outcomes);

}  // namespace vcopt::service
