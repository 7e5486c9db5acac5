#include "cluster/free_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "check/check.h"

namespace vcopt::cluster {

namespace {

constexpr std::size_t kNoBlock = std::numeric_limits<std::size_t>::max();

}  // namespace

FreeIndex::FreeIndex(const Topology& topology,
                     const util::IntMatrix& max_capacity,
                     const util::IntMatrix& free)
    : m_(free.cols()),
      nodes_(topology.node_count()),
      rack_cloud_(topology.rack_count()),
      rack_free_(topology.rack_count() * free.cols(), 0),
      cloud_free_(topology.cloud_count() * free.cols(), 0),
      cap_(free.cols(), 0),
      stride_(free.cols(), 0) {
  const std::size_t n = topology.node_count();
  if (free.rows() != n || max_capacity.rows() != n ||
      max_capacity.cols() != m_) {
    throw std::invalid_argument("FreeIndex: shape mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    nodes_[i].rack = static_cast<std::uint32_t>(topology.node_racks()[i]);
  }
  for (std::size_t r = 0; r < rack_cloud_.size(); ++r) {
    rack_cloud_[r] = static_cast<std::uint32_t>(topology.cloud_of_rack(r));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      cap_[j] = std::max(cap_[j], max_capacity(i, j));
      const int v = free(i, j);
      rack_free_[nodes_[i].rack * m_ + j] += v;
      cloud_free_[rack_cloud_[nodes_[i].rack] * m_ + j] += v;
    }
  }

  // Class ids: mixed radix over cap_j + 1, kept only up to kMaxClasses.
  std::size_t classes = 1;
  for (std::size_t j = 0; j < m_; ++j) {
    stride_[j] = static_cast<std::uint32_t>(classes);
    classes *= static_cast<std::size_t>(cap_[j]) + 1;
    if (classes > kMaxClasses) return;
  }
  class_free_.resize(classes * m_);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t j = 0; j < m_; ++j) {
      class_free_[c * m_ + j] = static_cast<int>(
          c / stride_[j] % (static_cast<std::size_t>(cap_[j]) + 1));
    }
  }
  words_ = (n + 63) / 64;
  summary_words_ = (words_ + 63) / 64;
  classes_.assign(classes, ClassSlot{0, 0, kNoBlock});
  const int* rows = free.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    nodes_[i].klass = class_id(rows + i * m_);
    insert(nodes_[i].klass, i);
  }
}

std::uint32_t FreeIndex::class_id(const int* row) const {
  std::uint32_t c = 0;
  for (std::size_t j = 0; j < m_; ++j) {
    VCOPT_DCHECK(row[j] >= 0 && row[j] <= cap_[j])
        << " free cell " << row[j] << " of type " << j << " outside [0, "
        << cap_[j] << "]";
    c += static_cast<std::uint32_t>(row[j]) * stride_[j];
  }
  return c;
}

void FreeIndex::insert(std::uint32_t c, std::size_t node) {
  ClassSlot& slot = classes_[c];
  if (slot.count++ == 0) {
    slot.pos = static_cast<std::uint32_t>(nonempty_.size());
    nonempty_.push_back(c);
  }
  if (slot.block == kNoBlock) {
    slot.block = bits_.size();
    bits_.resize(bits_.size() + summary_words_ + words_, 0);
  }
  std::uint64_t* block = bits_.data() + slot.block;
  const std::size_t w = node / 64;
  block[summary_words_ + w] |= std::uint64_t{1} << (node % 64);
  block[w / 64] |= std::uint64_t{1} << (w % 64);
}

void FreeIndex::erase(std::uint32_t c, std::size_t node) {
  ClassSlot& slot = classes_[c];
  if (--slot.count == 0) {
    // Swap-and-pop out of the non-empty list.
    const std::uint32_t pos = slot.pos;
    nonempty_[pos] = nonempty_.back();
    classes_[nonempty_[pos]].pos = pos;
    nonempty_.pop_back();
  }
  std::uint64_t* block = bits_.data() + slot.block;
  const std::size_t w = node / 64;
  std::uint64_t& word = block[summary_words_ + w];
  word &= ~(std::uint64_t{1} << (node % 64));
  if (word == 0) block[w / 64] &= ~(std::uint64_t{1} << (w % 64));
}

std::size_t FreeIndex::next_member(std::uint32_t c, std::size_t from) const {
  const std::size_t n = node_count();
  if (from >= n || classes_[c].block == kNoBlock) return n;
  const std::uint64_t* summary = bits_.data() + classes_[c].block;
  const std::uint64_t* words = summary + summary_words_;
  std::size_t w = from / 64;
  // The word holding `from`, above it.
  if (const std::uint64_t rest = words[w] & (~std::uint64_t{0} << (from % 64))) {
    return w * 64 + static_cast<std::size_t>(std::countr_zero(rest));
  }
  // Then the next non-empty word, from the summary.
  ++w;
  for (std::size_t s = w / 64; s < summary_words_; ++s) {
    std::uint64_t bits = summary[s];
    if (s == w / 64) bits &= ~std::uint64_t{0} << (w % 64);
    if (bits == 0) continue;
    const std::size_t next = s * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    return next * 64 + static_cast<std::size_t>(std::countr_zero(words[next]));
  }
  return n;
}

void FreeIndex::reclass(std::size_t node, const int* row) {
  ++version_;
  if (!has_classes()) return;
  const std::uint32_t to = class_id(row);
  const std::uint32_t from = nodes_[node].klass;
  if (to == from) return;
  erase(from, node);
  insert(to, node);
  nodes_[node].klass = to;
}

bool FreeIndex::same_state(const FreeIndex& other) const {
  if (m_ != other.m_ || rack_free_ != other.rack_free_ ||
      cloud_free_ != other.cloud_free_ ||
      has_classes() != other.has_classes()) {
    return false;
  }
  if (!has_classes()) return true;
  if (nodes_ != other.nodes_ || nonempty_.size() != other.nonempty_.size()) {
    return false;
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].count != other.classes_[c].count) return false;
  }
  for (std::size_t k = 0; k < nonempty_.size(); ++k) {
    const std::uint32_t c = nonempty_[k];
    if (classes_[c].pos != k) return false;
    std::size_t x = next_member(c, 0);
    std::size_t y = other.next_member(c, 0);
    for (; x == y && x < node_count(); x = next_member(c, x + 1)) {
      y = other.next_member(c, y + 1);
    }
    if (x != y) return false;
  }
  return true;
}

}  // namespace vcopt::cluster
