// The cloud's free view grouped by free vector: the structure flat
// Algorithm 1 reads its winner from without a pass over every node
// (docs/algorithms.md, "The class query").
//
// A node's class is the id of its free row: mixed-radix over
// max_i M_ij + 1 per type, so the all-zero row is class 0 and every free
// row the inventory allows has an id.  The index keeps each node's class,
// each class's members and member count, and the list of non-empty
// classes, but only while the shape has at most kMaxClasses ids; above
// that it keeps no classes and placement scans.  It always keeps the
// per-rack and per-cloud free sums by type.
//
// A class's members are a bitset over the nodes with one summary bit per
// 64-node word, so a node moves between classes in O(1) — two words and
// two summary words — and members come out in ascending order, skipping
// empty words through the summary.  A class's bitset is allocated the first
// time the class gains a member.
//
// cluster::Cloud owns one and updates it at every write to its free view:
// O(1) per changed cell for the sums and O(m) per touched node for its
// class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "util/matrix.h"

namespace vcopt::cluster {

class FreeIndex {
 public:
  /// Largest Π_j (max_i M_ij + 1) for which classes are kept.  The three
  /// EC2 types at 0–4 slots each make 125.
  static constexpr std::size_t kMaxClasses = 4096;

  FreeIndex() = default;
  /// Indexes `free`, whose cells satisfy 0 <= free_ij <= max_ij.
  FreeIndex(const Topology& topology, const util::IntMatrix& max_capacity,
            const util::IntMatrix& free);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t type_count() const { return m_; }

  /// False when the shape has more than kMaxClasses class ids; the class
  /// accessors below are then not to be called.
  bool has_classes() const { return !class_free_.empty(); }

  /// The class of `node`'s free row.
  std::uint32_t class_of(std::size_t node) const { return nodes_[node].klass; }
  /// The free row of class `c`: type_count() ints.
  const int* class_free(std::uint32_t c) const {
    return class_free_.data() + static_cast<std::size_t>(c) * m_;
  }
  /// The number of nodes in class `c`.
  std::size_t member_count(std::uint32_t c) const { return classes_[c].count; }
  /// The lowest member of class `c` at or above `from`, or node_count().
  std::size_t next_member(std::uint32_t c, std::size_t from) const;
  /// The classes with at least one member, in no fixed order.
  const std::vector<std::uint32_t>& nonempty() const { return nonempty_; }

  /// Free slots by type summed over the nodes of `rack`: type_count() ints.
  const int* rack_free(std::size_t rack) const {
    return rack_free_.data() + rack * m_;
  }
  /// All rack sums, racks × types, row-major.
  const std::vector<int>& rack_sums() const { return rack_free_; }
  /// All cloud sums, clouds × types, row-major.
  const std::vector<int>& cloud_sums() const { return cloud_free_; }

  /// Bumped by every reclass(): a reader that saw one version knows the
  /// index has not changed while it still reads that version.
  std::uint64_t version() const { return version_; }

  /// A cell of `node`'s free row changed by `delta`: updates the sums.
  void add(std::size_t node, std::size_t type, int delta) {
    const std::uint32_t rack = nodes_[node].rack;
    rack_free_[rack * m_ + type] += delta;
    cloud_free_[rack_cloud_[rack] * m_ + type] += delta;
  }
  /// `node`'s free row is now `row` (type_count() ints): moves the node to
  /// that row's class.  Call once per touched node, after its add()s.
  void reclass(std::size_t node, const int* row);

  /// Same classes, members and sums as `other` (versions aside).
  bool same_state(const FreeIndex& other) const;

 private:
  std::uint32_t class_id(const int* row) const;
  /// Adds or removes `node` in class `c`'s bitset and count.
  void insert(std::uint32_t c, std::size_t node);
  void erase(std::uint32_t c, std::size_t node);

  // What an update reads per node and per class, each in one place so a
  // move touches few cache lines.
  struct NodeSlot {
    std::uint32_t klass = 0;
    std::uint32_t rack = 0;
    bool operator==(const NodeSlot&) const = default;
  };
  struct ClassSlot {
    std::uint32_t count = 0;  ///< members
    std::uint32_t pos = 0;    ///< position in nonempty_ while count > 0
    /// Offset of the class's block in bits_, or kNoBlock: summary_words_
    /// summary words, then words_ member words.
    std::size_t block = 0;
  };

  std::size_t m_ = 0;
  std::vector<NodeSlot> nodes_;
  std::vector<std::uint32_t> rack_cloud_;
  std::vector<int> rack_free_;
  std::vector<int> cloud_free_;
  std::vector<int> cap_;                // max_i M_ij per type
  std::vector<std::uint32_t> stride_;   // mixed-radix place values
  std::vector<int> class_free_;         // class ids × types
  std::vector<ClassSlot> classes_;
  std::vector<std::uint64_t> bits_;
  std::size_t words_ = 0;
  std::size_t summary_words_ = 0;
  std::vector<std::uint32_t> nonempty_;
  std::uint64_t version_ = 0;
};

}  // namespace vcopt::cluster
