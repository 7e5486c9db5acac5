// Correctness gates of the served-path benchmark, written independently of
// the program's own validators so a defect in those cannot hide here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <streambuf>
#include <string>
#include <vector>

#include "cluster/allocation.h"
#include "cluster/topology.h"
#include "util/matrix.h"

namespace servebench {

/// Definition 1 recomputed from an allocation: min over central nodes k of
/// sum_i (VMs on node i) * D(i, k), with D taken from the topology's tiers.
/// Only used nodes are tried as k: with same_node < same_rack < cross_rack,
/// a used node in k's rack strictly beats an unused k, and when k's rack
/// holds no VM any used node ties or beats it.  Terms are summed in
/// ascending node order.  Returns +inf for an empty allocation.
inline double definition1(const vcopt::cluster::Allocation& alloc,
                          const vcopt::cluster::Topology& topology) {
  std::vector<std::size_t> used;
  std::vector<int> weight;
  for (std::size_t i = 0; i < alloc.node_count(); ++i) {
    int w = 0;
    for (std::size_t j = 0; j < alloc.type_count(); ++j) w += alloc.at(i, j);
    if (w > 0) {
      used.push_back(i);
      weight.push_back(w);
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k : used) {
    double d = 0;
    for (std::size_t u = 0; u < used.size(); ++u) {
      d += static_cast<double>(weight[u]) * topology.distance(used[u], k);
    }
    if (d < best) best = d;
  }
  return best;
}

/// Shadow capacity books: the free slots the benchmark itself derives from
/// the inventory and the grants and releases it observed.  A grant that
/// would drive any slot count below zero exceeds capacity.
class CapacityLedger {
 public:
  explicit CapacityLedger(vcopt::util::IntMatrix max_capacity)
      : free_(std::move(max_capacity)) {}

  /// Debits a granted allocation; false when it exceeds the free slots.
  bool take(const vcopt::cluster::Allocation& alloc) {
    bool ok = alloc.node_count() == free_.rows() &&
              alloc.type_count() == free_.cols();
    for (std::size_t i = 0; ok && i < free_.rows(); ++i) {
      for (std::size_t j = 0; j < free_.cols(); ++j) {
        const int c = alloc.at(i, j);
        if (c < 0) ok = false;
        free_(i, j) -= c;
        if (free_(i, j) < 0) ok = false;
      }
    }
    return ok;
  }
  void give(const vcopt::cluster::Allocation& alloc) {
    for (std::size_t i = 0; i < free_.rows(); ++i) {
      for (std::size_t j = 0; j < free_.cols(); ++j) free_(i, j) += alloc.at(i, j);
    }
  }
  const vcopt::util::IntMatrix& free() const { return free_; }

 private:
  vcopt::util::IntMatrix free_;
};

/// "Every accepted seq gets exactly one outcome."
class ExactCover {
 public:
  void accepted(std::uint64_t seq) { at(seq) |= kAccepted; }
  void outcome(std::uint64_t seq) {
    std::uint8_t& s = at(seq);
    s = (s & kOutcome) ? static_cast<std::uint8_t>(s | kDuplicate)
                       : static_cast<std::uint8_t>(s | kOutcome);
  }
  /// Accepted seqs without an outcome, plus outcomes that are duplicates or
  /// name a seq never accepted.
  std::size_t violations() const {
    std::size_t bad = 0;
    for (std::uint8_t s : state_) {
      if (s == 0) continue;
      if (s != (kAccepted | kOutcome)) ++bad;
    }
    return bad;
  }

 private:
  static constexpr std::uint8_t kAccepted = 1;
  static constexpr std::uint8_t kOutcome = 2;
  static constexpr std::uint8_t kDuplicate = 4;
  std::uint8_t& at(std::uint64_t seq) {
    if (seq >= state_.size()) state_.resize(seq + 1 + seq / 2, 0);
    return state_[seq];
  }
  std::vector<std::uint8_t> state_;
};

/// FNV-1a 64 over a byte string.
inline std::uint64_t fnv1a(const char* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Output sink that counts and hashes the bytes written to it and, when
/// asked, keeps them.  The untimed journal goes here, so no disk I/O lands
/// inside a timed service call.
class HashingSink : public std::streambuf {
 public:
  explicit HashingSink(bool keep) : keep_(keep) {}
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t hash() const { return hash_; }
  const std::string& kept() const { return kept_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::size_t len = static_cast<std::size_t>(n);
    hash_ = fnv1a(s, len, hash_);
    bytes_ += len;
    if (keep_) kept_.append(s, len);
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

 private:
  bool keep_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hash_ = 1469598103934665603ULL;
  std::string kept_;
};

}  // namespace servebench
