// Dense row-major matrix used for the paper's M/C/L capacity matrices, for
// the dense view of an allocation the exact solvers and validators take (a
// lease itself is sparse, cluster::Allocation), and for the dense distance
// matrix D the exact solvers take (an arbitrary or measured metric; the
// topology's own distances are computed per pair, not stored).
// Header-only so it can hold any numeric cell type without dragging in
// template instantiation boilerplate.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "check/check.h"

namespace vcopt::util {

/// Dense row-major matrix with bounds-checked access via at() (throws) and
/// VCOPT_DCHECK-checked access via operator() (aborts with a contextual
/// message in checked builds, unchecked in release).
///
/// row_sum()/col_sum() are served from a lazily built cache: the first call
/// after any mutation rebuilds every row and column sum in one O(rows*cols)
/// pass, and subsequent calls are O(1).  Mutation through a non-const
/// accessor (the caller gets a raw reference we cannot observe) invalidates
/// the cache wholesale; add_at() instead maintains it incrementally, which
/// is how the window debits (Allocation::debit_from) keep the working
/// capacity view's sums warm between placements.  The lazy rebuild mutates
/// mutable state under const, so before sharing a matrix read-only across
/// threads, call warm_sums() (or any row_sum/col_sum) from a single thread
/// first.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      if (r.size() != cols_) {
        throw std::invalid_argument("Matrix: ragged initializer list");
      }
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    VCOPT_DCHECK(r < rows_ && c < cols_)
        << " index (" << r << "," << c << ") out of bounds for " << rows_
        << "x" << cols_ << " matrix";
    sums_valid_ = false;
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    VCOPT_DCHECK(r < rows_ && c < cols_)
        << " index (" << r << "," << c << ") out of bounds for " << rows_
        << "x" << cols_ << " matrix";
    return data_[r * cols_ + c];
  }

  T& at(std::size_t r, std::size_t c) {
    check(r, c);
    sums_valid_ = false;
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  /// Sum of the entries of row r (e.g. number of VMs a node hosts).
  /// Amortised O(1): served from the sum cache (rebuilt lazily on first
  /// call after a cache-invalidating mutation).
  T row_sum(std::size_t r) const {
    check(r, 0);
    warm_sums();
    return row_sums_[r];
  }

  /// Sum of the entries of column c (e.g. cluster-wide count of one VM type).
  /// Amortised O(1), same caching as row_sum().
  T col_sum(std::size_t c) const {
    check(0, c);
    warm_sums();
    return col_sums_[c];
  }

  /// In-place update that keeps the sum cache consistent incrementally —
  /// the mutation path hot loops should prefer over `at(r, c) += d`.
  void add_at(std::size_t r, std::size_t c, T delta) {
    check(r, c);
    data_[r * cols_ + c] += delta;
    if (sums_valid_) {
      row_sums_[r] += delta;
      col_sums_[c] += delta;
    }
  }

  /// True while the row/col sum cache is current, so the next row_sum or
  /// col_sum is O(1) rather than a full rebuild.
  bool sums_warm() const { return sums_valid_; }

  /// Builds the row/col sum cache if stale.  Call from a single thread
  /// before concurrent read-only row_sum/col_sum access (the lazy rebuild
  /// writes mutable state and is not synchronised).
  void warm_sums() const {
    if (sums_valid_) return;
    row_sums_.assign(rows_, T{});
    col_sums_.assign(cols_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        const T& v = data_[r * cols_ + c];
        row_sums_[r] += v;
        col_sums_[c] += v;
      }
    }
    sums_valid_ = true;
  }

  T total() const {
    T s{};
    for (const T& v : data_) s += v;
    return s;
  }

  void fill(T v) {
    data_.assign(data_.size(), v);
    sums_valid_ = false;
  }

  /// Element-wise difference; shapes must match (used for L = M - C).
  Matrix operator-(const Matrix& o) const {
    require_same_shape(o);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] - o.data_[i];
    return out;
  }

  Matrix operator+(const Matrix& o) const {
    require_same_shape(o);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + o.data_[i];
    return out;
  }

  Matrix& operator+=(const Matrix& o) {
    require_same_shape(o);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    sums_valid_ = false;
    return *this;
  }

  Matrix& operator-=(const Matrix& o) {
    require_same_shape(o);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    sums_valid_ = false;
    return *this;
  }

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

  /// True if every entry is >= the corresponding entry of o.
  bool dominates(const Matrix& o) const {
    require_same_shape(o);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      if (data_[i] < o.data_[i]) return false;
    }
    return true;
  }

  bool all_nonnegative() const {
    for (const T& v : data_) {
      if (v < T{}) return false;
    }
    return true;
  }

  const std::vector<T>& data() const { return data_; }

  friend std::ostream& operator<<(std::ostream& os, const Matrix& m) {
    for (std::size_t r = 0; r < m.rows_; ++r) {
      os << (r == 0 ? "[" : " ");
      for (std::size_t c = 0; c < m.cols_; ++c) {
        os << m(r, c) << (c + 1 < m.cols_ ? " " : "");
      }
      os << (r + 1 < m.rows_ ? "\n" : "]");
    }
    return os;
  }

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("Matrix index out of range");
    }
  }
  void require_same_shape(const Matrix& o) const {
    if (rows_ != o.rows_ || cols_ != o.cols_) {
      throw std::invalid_argument("Matrix shape mismatch");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
  // Lazily built row/col sum cache (see class comment for the threading
  // contract).  Copies carry the cache along; mutations invalidate it.
  mutable std::vector<T> row_sums_;
  mutable std::vector<T> col_sums_;
  mutable bool sums_valid_ = false;
};

using IntMatrix = Matrix<int>;
using DoubleMatrix = Matrix<double>;

}  // namespace vcopt::util
