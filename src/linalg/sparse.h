// Sparse LU factorization for MNA systems.
//
// Design: the classic linked-list sparse LU (in the spirit of Sparse 1.3 /
// SPICE): right-looking Gaussian elimination over row maps with
// Markowitz-cost pivot selection under a relative magnitude threshold
// (partial threshold pivoting). MNA matrices are structurally symmetric
// and very sparse (~4 entries/row), so fill-in stays tiny and solves run
// in near-linear time — the dense kernel's O(n^3) only wins below ~30
// unknowns.
//
// Usage mirrors the dense LuFactorization: Factor() once per Newton
// iteration, Solve() per right-hand side. The triplet builder accumulates
// duplicate entries (stamps just add).
#pragma once

#include <unordered_map>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace cmldft::linalg {

/// Coordinate-format accumulator for assembling sparse systems. Duplicate
/// (row, col) insertions add. Deterministic iteration order.
class SparseBuilder {
 public:
  explicit SparseBuilder(size_t n);

  size_t dimension() const { return n_; }
  void Clear();
  void Add(size_t row, size_t col, double value);

  /// Number of stored (structurally nonzero) entries.
  size_t num_entries() const;

  /// Monotonic stamp of the *structure* (which (row, col) slots exist).
  /// Bumped by Clear() and by any Add() that inserts a new slot; value
  /// accumulation leaves it unchanged. Compiled assembly plans cache raw
  /// value pointers and use this to detect that their pattern is stale.
  uint64_t pattern_version() const { return pattern_version_; }

  /// Stable pointer to the value of slot (row, col), or nullptr when the
  /// slot is not part of the current pattern. Never inserts. The pointer
  /// stays valid until the next structural change (see pattern_version()).
  double* SlotPointer(size_t row, size_t col);

  /// Densify (for testing / small systems).
  Matrix ToDense() const;

  /// Visit entries in deterministic (row, col) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t r = 0; r < n_; ++r) {
      for (const auto& [c, v] : rows_[r]) fn(r, c, v);
    }
  }

 private:
  friend class SparseLu;
  size_t n_;
  uint64_t pattern_version_ = 0;
  // Per-row sorted maps keep iteration deterministic; rows are tiny.
  std::vector<std::vector<std::pair<size_t, double>>> rows_;
};

/// Sparse LU with Markowitz pivoting under a magnitude threshold.
class SparseLu {
 public:
  struct Options {
    /// A pivot candidate must satisfy |a| >= threshold * max|column|.
    double pivot_threshold = 0.1;
    /// Relative singularity floor (vs the largest entry in the matrix).
    double singularity_floor = 1e-15;
  };

  explicit SparseLu() = default;
  explicit SparseLu(const Options& options) : options_(options) {}

  /// Factor the system in `builder`. O(sum of row^2 of the filled rows).
  /// Performs full Markowitz pivot selection with threshold pivoting.
  util::Status Factor(const SparseBuilder& builder);

  /// Numeric-only refactorization: reuse the pivot order and symbolic
  /// structure discovered by the last successful Factor() and recompute
  /// the factors for new values on the *same sparsity pattern* (the MNA
  /// case — the Jacobian structure is fixed across Newton iterations and
  /// time steps, only values move). Skips the per-step column-maximum
  /// scan and Markowitz search that dominate Factor(). Falls back to a
  /// full Factor() transparently when there is no prior factorization,
  /// the dimension changed, or a reused pivot has become numerically
  /// unacceptable (absent, below the singularity floor, or tiny relative
  /// to its row).
  util::Status Refactor(const SparseBuilder& builder);

  /// Solve A x = b with the stored factors.
  util::StatusOr<Vector> Solve(const Vector& b) const;

  bool factored() const { return factored_; }
  /// Nonzeros in L+U after fill-in (diagnostics).
  size_t factor_nonzeros() const;

 private:
  struct Entry {
    size_t col;
    double value;
  };
  Options options_;
  size_t n_ = 0;
  bool factored_ = false;
  // Factored rows in elimination order: L part (cols are *elimination
  // positions* < k) then U part (elimination positions >= k).
  std::vector<std::vector<Entry>> lower_;  // multipliers per pivot step
  std::vector<std::vector<Entry>> upper_;  // pivot row tails (incl. pivot)
  std::vector<double> pivots_;
  std::vector<size_t> row_of_step_;  // original row eliminated at step k
  std::vector<size_t> col_of_step_;  // original col chosen as pivot at k
  std::vector<size_t> step_of_col_;  // inverse of col_of_step_
};

}  // namespace cmldft::linalg
