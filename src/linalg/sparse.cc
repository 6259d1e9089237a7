#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::linalg {

namespace {
struct SparseLuMetrics {
  util::telemetry::Counter factors =
      util::telemetry::GetCounter("linalg.sparse_lu.factors");
  util::telemetry::Counter refactors =
      util::telemetry::GetCounter("linalg.sparse_lu.refactors");
  util::telemetry::Counter refactor_fallbacks =
      util::telemetry::GetCounter("linalg.sparse_lu.refactor_fallbacks");
};
const SparseLuMetrics& Metrics() {
  static const SparseLuMetrics m;
  return m;
}
// Register at load time so snapshots list these metrics even when no
// sparse solve ran — the telemetry schema must not depend on code paths.
[[maybe_unused]] const SparseLuMetrics& kEagerRegistration = Metrics();
}  // namespace

SparseBuilder::SparseBuilder(size_t n) : n_(n), rows_(n) {}

void SparseBuilder::Clear() {
  for (auto& row : rows_) row.clear();
  ++pattern_version_;
}

void SparseBuilder::Add(size_t row, size_t col, double value) {
  assert(row < n_ && col < n_);
  auto& r = rows_[row];
  // Keep the row sorted by column; rows are tiny so linear search wins.
  auto it = std::lower_bound(
      r.begin(), r.end(), col,
      [](const std::pair<size_t, double>& e, size_t c) { return e.first < c; });
  if (it != r.end() && it->first == col) {
    it->second += value;
  } else {
    r.insert(it, {col, value});
    ++pattern_version_;
  }
}

double* SparseBuilder::SlotPointer(size_t row, size_t col) {
  assert(row < n_ && col < n_);
  auto& r = rows_[row];
  auto it = std::lower_bound(
      r.begin(), r.end(), col,
      [](const std::pair<size_t, double>& e, size_t c) { return e.first < c; });
  if (it == r.end() || it->first != col) return nullptr;
  return &it->second;
}

size_t SparseBuilder::num_entries() const {
  size_t total = 0;
  for (const auto& row : rows_) total += row.size();
  return total;
}

Matrix SparseBuilder::ToDense() const {
  Matrix m(n_, n_);
  ForEach([&](size_t r, size_t c, double v) { m(r, c) += v; });
  return m;
}

util::Status SparseLu::Factor(const SparseBuilder& builder) {
  Metrics().factors.Increment();
  factored_ = false;
  n_ = builder.dimension();
  lower_.assign(n_, {});
  upper_.assign(n_, {});
  pivots_.assign(n_, 0.0);
  row_of_step_.assign(n_, 0);
  col_of_step_.assign(n_, 0);
  step_of_col_.assign(n_, 0);

  // Working matrix: per-row hash maps; per-column active-row sets.
  std::vector<std::unordered_map<size_t, double>> work(n_);
  std::vector<std::unordered_set<size_t>> col_rows(n_);
  double max_entry = 0.0;
  builder.ForEach([&](size_t r, size_t c, double v) {
    if (v == 0.0) return;
    work[r][c] = v;
    col_rows[c].insert(r);
    max_entry = std::max(max_entry, std::fabs(v));
  });
  const double floor_mag =
      (max_entry > 0 ? max_entry : 1.0) * options_.singularity_floor;

  std::vector<char> row_active(n_, 1), col_active(n_, 1);

  for (size_t k = 0; k < n_; ++k) {
    // Column maxima over active rows (for the pivot threshold).
    // Computed per step from the active entry set: O(nnz).
    std::vector<double> colmax(n_, 0.0);
    for (size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      for (const auto& [c, v] : work[r]) {
        colmax[c] = std::max(colmax[c], std::fabs(v));
      }
    }
    // Markowitz selection: minimize (row_nnz-1)*(col_nnz-1) among entries
    // passing the threshold test; break ties toward larger magnitude.
    size_t best_r = n_, best_c = n_;
    size_t best_cost = static_cast<size_t>(-1);
    double best_mag = 0.0;
    for (size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      const size_t row_nnz = work[r].size();
      for (const auto& [c, v] : work[r]) {
        const double mag = std::fabs(v);
        if (mag <= floor_mag) continue;
        if (mag < options_.pivot_threshold * colmax[c]) continue;
        const size_t cost = (row_nnz - 1) * (col_rows[c].size() - 1);
        if (cost < best_cost || (cost == best_cost && mag > best_mag)) {
          best_cost = cost;
          best_mag = mag;
          best_r = r;
          best_c = c;
        }
      }
    }
    if (best_r == n_) {
      return util::Status::SingularMatrix(util::StrPrintf(
          "sparse LU: no acceptable pivot at step %zu (floor %.3e)", k,
          floor_mag));
    }

    const size_t r = best_r, c = best_c;
    const double pivot = work[r][c];
    row_of_step_[k] = r;
    col_of_step_[k] = c;
    step_of_col_[c] = k;
    pivots_[k] = pivot;

    // Snapshot the pivot row tail (active columns except the pivot's).
    auto& urow = upper_[k];
    urow.reserve(work[r].size() - 1);
    for (const auto& [cc, vv] : work[r]) {
      if (cc != c) urow.push_back({cc, vv});
    }

    // Eliminate the pivot column from all remaining active rows.
    auto& lcol = lower_[k];
    std::vector<size_t> targets(col_rows[c].begin(), col_rows[c].end());
    std::sort(targets.begin(), targets.end());  // deterministic
    for (size_t i : targets) {
      if (i == r || !row_active[i]) continue;
      auto it = work[i].find(c);
      if (it == work[i].end()) continue;
      const double m = it->second / pivot;
      work[i].erase(it);
      lcol.push_back({i, m});
      if (m == 0.0) continue;
      for (const auto& entry : urow) {
        auto [fit, inserted] = work[i].try_emplace(entry.col, 0.0);
        fit->second -= m * entry.value;
        if (inserted) col_rows[entry.col].insert(i);
      }
    }

    // Retire the pivot row and column.
    for (const auto& [cc, vv] : work[r]) {
      (void)vv;
      col_rows[cc].erase(r);
    }
    work[r].clear();
    col_rows[c].clear();
    row_active[r] = 0;
    col_active[c] = 0;
  }
  factored_ = true;
  return util::Status::Ok();
}

util::Status SparseLu::Refactor(const SparseBuilder& builder) {
  if (!factored_ || builder.dimension() != n_ || n_ == 0) {
    return Factor(builder);
  }
  // Load the working matrix. Unlike Factor(), exact-zero entries are kept:
  // a value that cancelled to zero on the previous assembly may be nonzero
  // now, and the stored pivot order must still see the full stamp pattern.
  std::vector<std::unordered_map<size_t, double>> work(n_);
  std::vector<std::unordered_set<size_t>> col_rows(n_);
  double max_entry = 0.0;
  builder.ForEach([&](size_t r, size_t c, double v) {
    work[r][c] = v;
    col_rows[c].insert(r);
    max_entry = std::max(max_entry, std::fabs(v));
  });
  const double floor_mag =
      (max_entry > 0 ? max_entry : 1.0) * options_.singularity_floor;

  factored_ = false;
  std::vector<char> row_active(n_, 1);

  for (size_t k = 0; k < n_; ++k) {
    const size_t r = row_of_step_[k];
    const size_t c = col_of_step_[k];
    auto pit = work[r].find(c);
    if (pit == work[r].end()) {
      Metrics().refactor_fallbacks.Increment();
      return Factor(builder);
    }
    const double pivot = pit->second;
    // Stability guard: the stored pivot choice must still be acceptable.
    // Tiny relative to its own row means the old order now amplifies
    // roundoff — redo the full pivot search instead of producing garbage.
    double row_max = 0.0;
    for (const auto& [cc, vv] : work[r]) row_max = std::max(row_max, std::fabs(vv));
    if (std::fabs(pivot) <= floor_mag ||
        std::fabs(pivot) < 1e-6 * row_max) {
      Metrics().refactor_fallbacks.Increment();
      return Factor(builder);
    }
    pivots_[k] = pivot;

    auto& urow = upper_[k];
    urow.clear();
    urow.reserve(work[r].size() - 1);
    for (const auto& [cc, vv] : work[r]) {
      if (cc != c) urow.push_back({cc, vv});
    }

    auto& lcol = lower_[k];
    lcol.clear();
    std::vector<size_t> targets(col_rows[c].begin(), col_rows[c].end());
    std::sort(targets.begin(), targets.end());  // deterministic
    for (size_t i : targets) {
      if (i == r || !row_active[i]) continue;
      auto it = work[i].find(c);
      if (it == work[i].end()) continue;
      const double m = it->second / pivot;
      work[i].erase(it);
      lcol.push_back({i, m});
      if (m == 0.0) continue;
      for (const auto& entry : urow) {
        auto [fit, inserted] = work[i].try_emplace(entry.col, 0.0);
        fit->second -= m * entry.value;
        if (inserted) col_rows[entry.col].insert(i);
      }
    }

    for (const auto& [cc, vv] : work[r]) {
      (void)vv;
      col_rows[cc].erase(r);
    }
    work[r].clear();
    col_rows[c].clear();
    row_active[r] = 0;
  }
  factored_ = true;
  Metrics().refactors.Increment();
  return util::Status::Ok();
}

util::StatusOr<Vector> SparseLu::Solve(const Vector& b) const {
  if (!factored_) {
    return util::Status::FailedPrecondition("Solve called before Factor");
  }
  if (b.size() != n_) {
    return util::Status::InvalidArgument("rhs dimension mismatch");
  }
  Vector y = b;
  // Forward elimination in pivot order.
  for (size_t k = 0; k < n_; ++k) {
    const double yk = y[row_of_step_[k]];
    if (yk == 0.0) continue;
    for (const Entry& e : lower_[k]) {
      y[e.col] -= e.value * yk;  // e.col holds the target *row* index here
    }
  }
  // Back substitution in reverse pivot order; unknowns are indexed by the
  // original column.
  Vector x(n_, 0.0);
  for (size_t k = n_; k-- > 0;) {
    double acc = y[row_of_step_[k]];
    for (const Entry& e : upper_[k]) acc -= e.value * x[e.col];
    x[col_of_step_[k]] = acc / pivots_[k];
  }
  return x;
}

size_t SparseLu::factor_nonzeros() const {
  size_t total = n_;  // pivots
  for (const auto& v : lower_) total += v.size();
  for (const auto& v : upper_) total += v.size();
  return total;
}

}  // namespace cmldft::linalg
