// Sparse LU factorization for MNA systems.
//
// Design: the classic linked-list sparse LU (in the spirit of Sparse 1.3 /
// SPICE): right-looking Gaussian elimination over row maps with
// Markowitz-cost pivot selection under a relative magnitude threshold
// (partial threshold pivoting). MNA matrices are structurally symmetric
// and very sparse (~4 entries/row), so fill-in stays tiny and solves run
// in near-linear time.
//
// Factoring is split into a symbolic and a numeric part, the way CSparse
// splits it. Factor() chooses the pivot order by a full Markowitz search
// over hash-map rows (and factors along the way). The first Refactor() on
// a pattern compiles that order against the builder's full pattern into a
// flat schedule: the slot layout of the filled factors, a builder-entry ->
// slot load map and the update destinations of every elimination step.
// Each Refactor() is then numeric only: load the values, run the slot
// arithmetic in schedule order, check the pivots. It hashes and allocates
// nothing.
//
// Usage mirrors the dense LuFactorization: Factor() or Refactor() once
// per Newton iteration, Solve() per right-hand side. The triplet builder
// accumulates duplicate entries (stamps just add).
#pragma once

#include <cstdint>
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
  /// Zero every stored value. The slots and pattern_version() stay, so an
  /// assembly that re-adds the same entries keeps its compiled schedules.
  void ZeroValues();
  void Add(size_t row, size_t col, double value);

  /// Number of stored (structurally nonzero) entries.
  size_t num_entries() const;

  /// Stamp of the *structure* (which (row, col) slots exist). Clear() and
  /// any Add() that inserts a new slot draw a fresh stamp from one
  /// process-wide counter, so two builders share a stamp only while they
  /// share a pattern (a copy, or two never-filled builders at 0). Value
  /// accumulation and ZeroValues() leave it unchanged. Compiled assembly
  /// plans and SparseLu schedules use it to detect a stale pattern.
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

  /// Numeric-only refactorization: reuse the pivot order of the last
  /// successful Factor() and recompute the factors for new values (the MNA
  /// case — the Jacobian structure is fixed across Newton iterations and
  /// time steps, only values move). When the builder's pattern_version()
  /// differs from the compiled schedule's, the pivot order is first
  /// compiled against the builder's full pattern, exact-zero entries
  /// included (a value that cancelled to zero may be nonzero next time).
  /// Falls back to a full Factor() transparently when there is no prior
  /// factorization, the dimension changed, or a reused pivot has become
  /// numerically unacceptable (absent, at or below the singularity floor,
  /// or tiny relative to its row).
  util::Status Refactor(const SparseBuilder& builder);

  /// Solve A x = b with the stored factors.
  util::StatusOr<Vector> Solve(const Vector& b) const;

  bool factored() const { return factored_; }
  /// Nonzeros in L+U after fill-in (diagnostics).
  size_t factor_nonzeros() const { return val_.size(); }

 private:
  // Compiles the stored pivot order against `builder`'s pattern into
  // load_/dest_ and the factor layout. False when a pivot slot is absent.
  bool CompileSchedule(const SparseBuilder& builder);

  Options options_;
  size_t n_ = 0;
  bool factored_ = false;
  // Factors, flat, in elimination order. Entry k < n_ is step k's pivot
  // (idx_ = its original column). Step k's pivot-row tail is entries
  // [start_[k], mid_[k]) (idx_ = original column, in back-substitution
  // order), its multipliers are [mid_[k], start_[k + 1]) (idx_ = target
  // row).
  std::vector<size_t> start_;
  std::vector<size_t> mid_;
  std::vector<size_t> idx_;
  std::vector<double> val_;
  std::vector<size_t> row_of_step_;  // original row eliminated at step k
  // Numeric schedule for pattern schedule_version_ (valid while
  // schedule_ready_): val_ slot of each builder entry in ForEach order,
  // and the destination slot of every elimination update, step by step,
  // target by target, tail entry by tail entry.
  bool schedule_ready_ = false;
  uint64_t schedule_version_ = 0;
  std::vector<size_t> load_;
  std::vector<size_t> dest_;
};

}  // namespace cmldft::linalg
