#include "service/journal.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "check/check.h"
#include "obs/request_context.h"
#include "util/logging.h"

namespace vcopt::service {

using util::Json;
using util::JsonObject;

namespace {

// Every id, index and seq is read back through here.  Casting a double that
// is negative, fractional, non-finite or at least 2^64 to an unsigned
// integer is undefined, so those throw std::logic_error instead, which
// parse_journal reports as a bad record on its line.  Ids are written as
// doubles, so one above 2^64 - 1024 comes back as 2^64 and is refused here.
std::uint64_t as_u64(const Json& j) {
  const double v = j.as_number();
  if (!(v >= 0 && v < 0x1p64) || v != std::floor(v)) {
    std::string msg = "number ";
    util::append_json_number(msg, v);
    throw std::logic_error(msg + " is not an unsigned 64-bit integer");
  }
  return static_cast<std::uint64_t>(v);
}

std::vector<std::uint64_t> from_json_array(const Json& j) {
  std::vector<std::uint64_t> out;
  out.reserve(j.as_array().size());
  for (const Json& e : j.as_array()) out.push_back(as_u64(e));
  return out;
}

std::uint64_t u64_at(const Json& j, const std::string& key) {
  return as_u64(j.at(key));
}

// Per-line integrity: FNV-1a 64 over the record serialised without its
// len/sum fields, from the non-standard offset basis journal.h describes.
// Json objects are key-sorted maps, so stripping the two fields and
// re-dumping reproduces the writer's payload bytes exactly.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The writer emits each record's members in util::Json's sorted key order
// straight into a reused buffer, so its lines are the bytes
// Json(JsonObject).dump(0) would produce, without building the object.
// Every member is written as `"key":value,`: a splice point is then simply
// the offset where the next member starts, and JournalWriter::finish()
// turns the final comma into the closing brace.
void key(std::string& b, std::string_view k) {
  b += '"';
  b += k;
  b += "\":";
}

void number(std::string& b, std::string_view k, double v) {
  key(b, k);
  util::append_json_number(b, v);
  b += ',';
}

void text(std::string& b, std::string_view k, std::string_view v) {
  key(b, k);
  util::append_json_string(b, v);
  b += ',';
}

void hex(std::string& b, std::string_view k, std::uint64_t v) {
  key(b, k);
  b += '"';
  obs::append_hex16(b, v);
  b += "\",";
}

template <class T>
void number_array(std::string& b, std::string_view k,
                  const std::vector<T>& xs) {
  key(b, k);
  b += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) b += ',';
    util::append_json_number(b, static_cast<double>(xs[i]));
  }
  b += "],";
}

/// True when the line's len/sum fields (if present) match its payload.
bool integrity_ok(const Json& j) {
  if (!j.is_object() || !j.contains("len") || !j.contains("sum")) {
    return true;  // legacy line without integrity fields
  }
  if (!j.at("len").is_number() || !j.at("sum").is_string()) return false;
  JsonObject stripped = j.as_object();
  stripped.erase("len");
  stripped.erase("sum");
  const std::string payload = Json(std::move(stripped)).dump(0);
  std::string sum;
  obs::append_hex16(sum, fnv1a(payload));
  return static_cast<double>(payload.size()) == j.at("len").as_number() &&
         sum == j.at("sum").as_string();
}

}  // namespace

const char* to_string(RecordType t) {
  switch (t) {
    case RecordType::kSubmit: return "submit";
    case RecordType::kWindow: return "window";
    case RecordType::kRelease: return "release";
    case RecordType::kRebalance: return "rebalance";
  }
  return "?";
}

std::string& JournalWriter::begin() {
  payload_.clear();
  payload_ += '{';
  return payload_;
}

void JournalWriter::finish() {
  // One compact line per record; flush so a crash loses at most the record
  // being written, never a decided-but-unjournaled one (records are written
  // before their effects execute).  len/sum are computed over the record
  // WITHOUT them, so the parser can strip and re-derive both; "len" sorts
  // before "sum" and neither is ever the last key, so both splice in ahead
  // of a member the payload already holds.
  VCOPT_DCHECK(len_at_ <= sum_at_ && sum_at_ < payload_.size());
  payload_.back() = '}';
  const std::string_view payload = payload_;
  line_.assign(payload.substr(0, len_at_));
  number(line_, "len", static_cast<double>(payload.size()));
  line_ += payload.substr(len_at_, sum_at_ - len_at_);
  hex(line_, "sum", fnv1a(payload));
  line_ += payload.substr(sum_at_);
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  out_.flush();
  ++records_;
}

void JournalWriter::submit(std::uint64_t seq, const cluster::Request& request,
                           const SubmitOptions& options, double time,
                           std::uint64_t trace_id) {
  std::string& b = begin();
  text(b, "class", to_string(options.klass));
  number_array(b, "counts", request.counts());
  if (std::isfinite(options.deadline)) number(b, "deadline", options.deadline);
  number(b, "id", static_cast<double>(request.id()));
  len_at_ = b.size();
  number(b, "priority", options.priority);
  number(b, "seq", static_cast<double>(seq));
  sum_at_ = b.size();
  number(b, "time", time);
  hex(b, "trace", trace_id);
  text(b, "type", "submit");
  finish();
}

void JournalWriter::window(std::uint64_t window_id, double time,
                           const char* reason,
                           const std::vector<std::uint64_t>& members,
                           const std::vector<std::uint64_t>& shed,
                           std::size_t cell) {
  std::string& b = begin();
  if (cell != kNoCell) number(b, "cell", static_cast<double>(cell));
  len_at_ = b.size();
  number_array(b, "members", members);
  text(b, "reason", reason);
  number_array(b, "shed", shed);
  sum_at_ = b.size();
  number(b, "time", time);
  text(b, "type", "window");
  number(b, "window", static_cast<double>(window_id));
  finish();
}

void JournalWriter::release(cluster::LeaseId lease, double time) {
  std::string& b = begin();
  number(b, "lease", static_cast<double>(lease));
  len_at_ = sum_at_ = b.size();
  number(b, "time", time);
  text(b, "type", "release");
  finish();
}

void JournalWriter::rebalance(double time,
                              const std::vector<RebalanceMove>& moves) {
  std::string& b = begin();
  len_at_ = b.size();
  key(b, "moves");
  b += '[';
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const RebalanceMove& m = moves[i];
    b += i > 0 ? ",{" : "{";
    number(b, "from", static_cast<double>(m.from));
    number(b, "lease", static_cast<double>(m.lease));
    number(b, "to", static_cast<double>(m.to));
    number(b, "vmtype", static_cast<double>(m.type));
    b.back() = '}';
  }
  b += "],";
  sum_at_ = b.size();
  number(b, "time", time);
  text(b, "type", "rebalance");
  finish();
}

std::vector<JournalRecord> parse_journal(std::istream& in,
                                         const std::string& source) {
  std::vector<JournalRecord> records;
  std::vector<std::string> lines;
  {
    std::string line;
    while (std::getline(in, line)) lines.push_back(std::move(line));
  }
  // A crash mid-append can only tear the FINAL record: everything earlier
  // was written and flushed whole.  Damage there is survivable (warn, parse
  // what precedes it); the same damage mid-file is corruption and fails.
  std::size_t last_nonempty = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty()) last_nonempty = i + 1;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t lineno = i + 1;
    const bool is_final = lineno == last_nonempty;
    if (line.empty()) continue;  // tolerate a trailing blank line
    Json j;
    try {
      j = Json::parse(line);
    } catch (const util::JsonParseError& e) {
      if (is_final) {
        util::log_warn() << source << ":" << lineno
                         << ": ignoring torn final journal line "
                            "(crash mid-append)";
        break;
      }
      // NDJSON: the record number is the line, the byte offset the column.
      std::ostringstream msg;
      msg << source << ":" << lineno << ":" << (e.offset() + 1) << ": "
          << e.what() << "\n  " << line << "\n  "
          << std::string(std::min(e.offset(), line.size()), ' ') << "^";
      throw std::invalid_argument(msg.str());
    }
    if (!integrity_ok(j)) {
      if (is_final) {
        util::log_warn() << source << ":" << lineno
                         << ": ignoring final journal line with bad checksum";
        break;
      }
      throw std::invalid_argument(
          source + ":" + std::to_string(lineno) +
          ": journal integrity check failed (len/sum mismatch)");
    }
    try {
      JournalRecord rec;
      const std::string& type = j.at("type").as_string();
      rec.time = j.at("time").as_number();
      if (type == "submit") {
        rec.type = RecordType::kSubmit;
        rec.seq = u64_at(j, "seq");
        std::vector<int> counts;
        counts.reserve(j.at("counts").as_array().size());
        for (const Json& c : j.at("counts").as_array()) {
          counts.push_back(c.as_int());
        }
        rec.options.priority = j.at("priority").as_int();
        const auto klass = parse_request_class(j.at("class").as_string());
        if (!klass) {
          throw std::invalid_argument("unknown request class '" +
                                      j.at("class").as_string() + "'");
        }
        rec.options.klass = *klass;
        rec.options.deadline =
            j.contains("deadline") ? j.at("deadline").as_number() : kNoDeadline;
        rec.request = cluster::Request(std::move(counts), u64_at(j, "id"),
                                       rec.options.priority);
        if (j.contains("trace")) {
          rec.trace_id = obs::parse_trace_id(j.at("trace").as_string());
          if (rec.trace_id == 0) {
            throw std::invalid_argument("malformed trace id '" +
                                        j.at("trace").as_string() + "'");
          }
        } else {
          // Journals written before tracing: re-derive (pure function of
          // seq and id, so replay matches what a live run would emit today).
          rec.trace_id = obs::derive_trace_id(rec.seq, rec.request.id());
        }
      } else if (type == "window") {
        rec.type = RecordType::kWindow;
        rec.window_id = u64_at(j, "window");
        rec.reason = j.at("reason").as_string();
        if (j.contains("cell")) {
          rec.cell = static_cast<std::size_t>(u64_at(j, "cell"));
        }
        rec.members = from_json_array(j.at("members"));
        rec.shed = from_json_array(j.at("shed"));
      } else if (type == "release") {
        rec.type = RecordType::kRelease;
        rec.lease = u64_at(j, "lease");
      } else if (type == "rebalance") {
        rec.type = RecordType::kRebalance;
        rec.moves.reserve(j.at("moves").as_array().size());
        for (const Json& m : j.at("moves").as_array()) {
          RebalanceMove mv;
          mv.lease = u64_at(m, "lease");
          mv.from = static_cast<std::size_t>(u64_at(m, "from"));
          mv.to = static_cast<std::size_t>(u64_at(m, "to"));
          mv.type = static_cast<std::size_t>(u64_at(m, "vmtype"));
          rec.moves.push_back(mv);
        }
      } else {
        throw std::invalid_argument("unknown record type '" + type + "'");
      }
      records.push_back(std::move(rec));
    } catch (const std::logic_error& e) {
      throw std::invalid_argument(source + ":" + std::to_string(lineno) +
                                  ": bad journal record: " + e.what());
    }
  }
  return records;
}

util::Json outcome_to_json(const Outcome& outcome) {
  JsonObject o;
  o["type"] = "outcome";
  o["seq"] = static_cast<double>(outcome.seq);
  o["id"] = static_cast<double>(outcome.request_id);
  o["window"] = static_cast<double>(outcome.window_id);
  o["trace"] = obs::trace_id_hex(outcome.trace_id);
  o["status"] = to_string(outcome.kind);
  if (has_lease(outcome.kind)) {
    o["lease"] = static_cast<double>(outcome.lease);
    o["central"] = static_cast<double>(outcome.central);
    o["distance"] = outcome.distance;
  }
  o["requested"] = outcome.requested_vms;
  o["granted"] = outcome.granted_vms;
  o["submitted"] = outcome.submit_time;
  o["decided"] = outcome.decide_time;
  return Json(std::move(o));
}

std::string grant_stream(std::vector<Outcome> outcomes) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.seq < b.seq; });
  std::string out;
  for (const Outcome& o : outcomes) {
    out += outcome_to_json(o).dump(0);
    out += '\n';
  }
  return out;
}

Outcome outcome_from_json(const util::Json& json) {
  VCOPT_ASSERT(json.at("type").as_string() == "outcome")
      << " not an outcome record: " << json.dump(0);
  Outcome out;
  out.seq = u64_at(json, "seq");
  out.request_id = u64_at(json, "id");
  out.window_id = u64_at(json, "window");
  out.trace_id = json.contains("trace")
                     ? obs::parse_trace_id(json.at("trace").as_string())
                     : obs::derive_trace_id(out.seq, out.request_id);
  const std::string& status = json.at("status").as_string();
  bool found = false;
  for (OutcomeKind k :
       {OutcomeKind::kGranted, OutcomeKind::kDegraded, OutcomeKind::kPartial,
        OutcomeKind::kAbandoned, OutcomeKind::kShedDeadline,
        OutcomeKind::kRejectedEmpty, OutcomeKind::kRejectedOverCapacity}) {
    if (status == to_string(k)) {
      out.kind = k;
      found = true;
      break;
    }
  }
  if (!found) {
    throw std::invalid_argument("outcome_from_json: unknown status '" +
                                status + "'");
  }
  if (has_lease(out.kind)) {
    out.lease = u64_at(json, "lease");
    out.central = static_cast<std::size_t>(u64_at(json, "central"));
    out.distance = json.at("distance").as_number();
  }
  out.requested_vms = json.at("requested").as_int();
  out.granted_vms = json.at("granted").as_int();
  out.submit_time = json.at("submitted").as_number();
  out.decide_time = json.at("decided").as_number();
  return out;
}

}  // namespace vcopt::service
