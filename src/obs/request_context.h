// Request-scoped trace ids for the placement service.
//
// Every request admitted by vcopt::service gets a trace id that follows the
// request through admission -> queue -> micro-batch window -> solve ->
// grant/journal.  The id is a *pure function* of the request id and
// admission sequence number (splitmix64 of both), never a random draw: live
// runs and journal replays derive the same id from the same journal bytes,
// which is what keeps replay byte-identical while still letting every grant
// be traced back to its admission.
#pragma once

#include <cstdint>
#include <string>

namespace vcopt::obs {

/// splitmix64 finalizer — a cheap, well-mixed 64-bit hash.  Deterministic
/// across platforms (pure integer arithmetic).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic trace id for a request: mixes the admission sequence number
/// with the request id.  Never zero (zero is reserved for "no trace").
inline std::uint64_t derive_trace_id(std::uint64_t seq,
                                     std::uint64_t request_id) {
  const std::uint64_t id = mix64(seq ^ mix64(request_id));
  return id == 0 ? 1 : id;
}

/// Appends the 16-hex-digit lowercase rendering of `v`, the form journals
/// and grants carry for trace ids and line checksums.
inline void append_hex16(std::string& out, std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) out += kHex[(v >> shift) & 0xF];
}

/// 16-hex-digit lowercase rendering of a trace id.
inline std::string trace_id_hex(std::uint64_t id) {
  std::string out;
  out.reserve(16);
  append_hex16(out, id);
  return out;
}

/// Parses a 16-hex-digit trace id; returns 0 on malformed input.
inline std::uint64_t parse_trace_id(const std::string& hex) {
  if (hex.size() != 16) return 0;
  std::uint64_t id = 0;
  for (const char c : hex) {
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return 0;
    }
  }
  return id;
}

}  // namespace vcopt::obs
