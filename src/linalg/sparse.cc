#include "linalg/sparse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>
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
  util::telemetry::Counter schedule_compiles =
      util::telemetry::GetCounter("linalg.sparse_lu.schedule_compiles");
};
const SparseLuMetrics& Metrics() {
  static const SparseLuMetrics m;
  return m;
}
// Register at load time so snapshots list these metrics even when no
// sparse solve ran — the telemetry schema must not depend on code paths.
[[maybe_unused]] const SparseLuMetrics& kEagerRegistration = Metrics();

// Process-wide source of pattern stamps: a SparseLu schedule keyed on a
// stamp can never be replayed against another builder's pattern.
uint64_t NextPatternStamp() {
  static std::atomic<uint64_t> last{0};
  return ++last;
}
}  // namespace

SparseBuilder::SparseBuilder(size_t n) : n_(n), rows_(n) {}

void SparseBuilder::Clear() {
  for (auto& row : rows_) row.clear();
  pattern_version_ = NextPatternStamp();
}

void SparseBuilder::ZeroValues() {
  for (auto& row : rows_) {
    for (auto& entry : row) entry.second = 0.0;
  }
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
    pattern_version_ = NextPatternStamp();
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
  schedule_ready_ = false;  // a new pivot order needs a new schedule
  n_ = builder.dimension();
  start_.assign(n_ + 1, n_);
  mid_.assign(n_, n_);
  idx_.assign(n_, 0);
  val_.assign(n_, 0.0);
  row_of_step_.assign(n_, 0);

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
    idx_[k] = c;
    val_[k] = pivot;

    // Snapshot the pivot row tail (active columns except the pivot's).
    start_[k] = val_.size();
    for (const auto& [cc, vv] : work[r]) {
      if (cc == c) continue;
      idx_.push_back(cc);
      val_.push_back(vv);
    }
    const size_t u_begin = start_[k];
    const size_t u_end = val_.size();
    mid_[k] = u_end;

    // Eliminate the pivot column from all remaining active rows.
    std::vector<size_t> targets(col_rows[c].begin(), col_rows[c].end());
    std::sort(targets.begin(), targets.end());  // deterministic
    for (size_t i : targets) {
      if (i == r || !row_active[i]) continue;
      auto it = work[i].find(c);
      if (it == work[i].end()) continue;
      const double m = it->second / pivot;
      work[i].erase(it);
      idx_.push_back(i);
      val_.push_back(m);
      if (m == 0.0) continue;
      for (size_t j = u_begin; j < u_end; ++j) {
        auto [fit, inserted] = work[i].try_emplace(idx_[j], 0.0);
        fit->second -= m * val_[j];
        if (inserted) col_rows[idx_[j]].insert(i);
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
  start_[n_] = val_.size();
  factored_ = true;
  return util::Status::Ok();
}

bool SparseLu::CompileSchedule(const SparseBuilder& builder) {
  // Symbolic elimination in the stored pivot order over the full pattern.
  // Slots are numbered builder entries first (ForEach order), then fills
  // as they appear. The hash-map operations are Factor()'s elimination on
  // the full pattern, so each pivot-row tail comes out in the order that
  // elimination gives it, and Solve() accumulates in that order. On a
  // pattern without exact zeros (which Factor() drops) that is Factor()'s
  // own order, so a Refactor() on Factor()'s values is bit-identical.
  std::vector<std::unordered_map<size_t, size_t>> work(n_);
  std::vector<std::unordered_set<size_t>> col_rows(n_);
  size_t num_slots = 0;
  builder.ForEach([&](size_t r, size_t c, double) {
    work[r][c] = num_slots++;
    col_rows[c].insert(r);
  });
  const size_t num_loaded = num_slots;

  // Factor entries (k >= n_) in layout order: their slot and their idx_.
  std::vector<size_t> pivot_slot(n_);
  std::vector<size_t> entry_slot;
  std::vector<size_t> entry_idx;
  std::vector<size_t> dest_slot;
  std::vector<char> row_active(n_, 1);
  for (size_t k = 0; k < n_; ++k) {
    const size_t r = row_of_step_[k];
    const size_t c = idx_[k];
    auto pit = work[r].find(c);
    if (pit == work[r].end()) return false;
    pivot_slot[k] = pit->second;

    const size_t u_begin = entry_slot.size();
    start_[k] = n_ + u_begin;
    for (const auto& [cc, slot] : work[r]) {
      if (cc == c) continue;
      entry_idx.push_back(cc);
      entry_slot.push_back(slot);
    }
    const size_t u_end = entry_slot.size();
    mid_[k] = n_ + u_end;

    std::vector<size_t> targets(col_rows[c].begin(), col_rows[c].end());
    std::sort(targets.begin(), targets.end());
    for (size_t i : targets) {
      if (i == r || !row_active[i]) continue;
      auto it = work[i].find(c);
      if (it == work[i].end()) continue;
      entry_idx.push_back(i);
      entry_slot.push_back(it->second);
      work[i].erase(it);
      for (size_t j = u_begin; j < u_end; ++j) {
        auto [fit, inserted] = work[i].try_emplace(entry_idx[j], num_slots);
        if (inserted) {
          ++num_slots;
          col_rows[entry_idx[j]].insert(i);
        }
        dest_slot.push_back(fit->second);
      }
    }

    for (const auto& [cc, slot] : work[r]) {
      (void)slot;
      col_rows[cc].erase(r);
    }
    work[r].clear();
    col_rows[c].clear();
    row_active[r] = 0;
  }
  start_[n_] = n_ + entry_slot.size();

  // Every slot ends up as exactly one pivot, tail entry or multiplier; lay
  // the slots out as the factors are stored.
  std::vector<size_t> position(num_slots);
  for (size_t k = 0; k < n_; ++k) position[pivot_slot[k]] = k;
  for (size_t j = 0; j < entry_slot.size(); ++j) {
    position[entry_slot[j]] = n_ + j;
  }
  idx_.resize(n_);
  idx_.insert(idx_.end(), entry_idx.begin(), entry_idx.end());
  val_.resize(idx_.size());
  load_.resize(num_loaded);
  for (size_t e = 0; e < num_loaded; ++e) load_[e] = position[e];
  dest_.resize(dest_slot.size());
  for (size_t q = 0; q < dest_slot.size(); ++q) {
    dest_[q] = position[dest_slot[q]];
  }
  schedule_ready_ = true;
  schedule_version_ = builder.pattern_version();
  Metrics().schedule_compiles.Increment();
  return true;
}

util::Status SparseLu::Refactor(const SparseBuilder& builder) {
  if (!factored_ || builder.dimension() != n_ || n_ == 0) {
    return Factor(builder);
  }
  factored_ = false;
  if (!schedule_ready_ || schedule_version_ != builder.pattern_version()) {
    if (!CompileSchedule(builder)) {  // a stored pivot is not in the pattern
      Metrics().refactor_fallbacks.Increment();
      return Factor(builder);
    }
  }

  // Load: fills start at zero, builder entries (exact zeros included) land
  // in their slots.
  std::fill(val_.begin(), val_.end(), 0.0);
  double max_entry = 0.0;
  const size_t* load = load_.data();
  builder.ForEach([&](size_t, size_t, double v) {
    val_[*load++] = v;
    max_entry = std::max(max_entry, std::fabs(v));
  });
  const double floor_mag =
      (max_entry > 0 ? max_entry : 1.0) * options_.singularity_floor;

  // Eliminate. Every slot receives its updates in Factor()'s order: step
  // by step, each step writing distinct slots.
  double* val = val_.data();
  const size_t* dest = dest_.data();
  for (size_t k = 0; k < n_; ++k) {
    const double pivot = val[k];
    const size_t u_begin = start_[k], u_end = mid_[k];
    // Stability guard: the stored pivot choice must still be acceptable.
    // Tiny relative to its own row means the old order now amplifies
    // roundoff — redo the full pivot search instead of producing garbage.
    double row_max = std::fabs(pivot);
    for (size_t j = u_begin; j < u_end; ++j) {
      row_max = std::max(row_max, std::fabs(val[j]));
    }
    if (std::fabs(pivot) <= floor_mag || std::fabs(pivot) < 1e-6 * row_max) {
      Metrics().refactor_fallbacks.Increment();
      return Factor(builder);
    }
    const size_t tail = u_end - u_begin;
    for (size_t j = u_end; j < start_[k + 1]; ++j, dest += tail) {
      const double m = val[j] / pivot;
      val[j] = m;
      if (m == 0.0) continue;
      for (size_t q = 0; q < tail; ++q) val[dest[q]] -= m * val[u_begin + q];
    }
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
    for (size_t j = mid_[k]; j < start_[k + 1]; ++j) {
      y[idx_[j]] -= val_[j] * yk;
    }
  }
  // Back substitution in reverse pivot order; unknowns are indexed by the
  // original column.
  Vector x(n_, 0.0);
  for (size_t k = n_; k-- > 0;) {
    double acc = y[row_of_step_[k]];
    for (size_t j = start_[k]; j < mid_[k]; ++j) acc -= val_[j] * x[idx_[j]];
    x[idx_[k]] = acc / val_[k];
  }
  return x;
}

}  // namespace cmldft::linalg
