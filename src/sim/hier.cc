#include "sim/hier.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "netlist/device.h"
#include "sim/mna.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace {

struct HierMetrics {
  util::telemetry::Counter cells =
      util::telemetry::GetCounter("sim.hier.cells");
  util::telemetry::Counter border_unknowns =
      util::telemetry::GetCounter("sim.hier.border_unknowns");
  util::telemetry::Counter schur_factor_shares =
      util::telemetry::GetCounter("sim.hier.schur_factor_shares");
  util::telemetry::Counter cell_refactors =
      util::telemetry::GetCounter("sim.hier.cell_refactors");
};

const HierMetrics& Metrics() {
  static const HierMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const HierMetrics& kEagerRegistration = Metrics();

}  // namespace

/// Routes one cell's stamps into its dense local block: rows/columns are
/// the cell's combined local ids (internals first, touched border after).
/// Any unknown a cell device stamps is in the cell's local map by
/// construction of the partition. Everything a device reads comes from
/// the MnaSystem, which the engines keep configuring exactly as on the
/// flat path; states are written straight into its current-state vector.
class HierSolver::CellStampContext : public netlist::StampContext {
 public:
  CellStampContext(const MnaSystem& mna, Cell* cell,
                   const linalg::Vector* iterate)
      : StampContext(mna), cell_(cell) {
    set_iterate(iterate);
  }

 protected:
  void AddMatrix(int r, int c, double v) override {
    cell_->local(LocalOf(r), LocalOf(c)) += v;
  }
  void AddRhs(int r, double v) override { cell_->rhs[LocalOf(r)] += v; }

 private:
  size_t LocalOf(int unknown) const {
    auto it = cell_->local_of.find(unknown);
    assert(it != cell_->local_of.end() &&
           "cell device stamped an unknown outside its partition");
    return static_cast<size_t>(it->second);
  }

  Cell* cell_;
};

/// Routes the global (outside-every-cell) devices' stamps into the
/// border system. Every unknown a global device touches is border by
/// construction.
class HierSolver::BorderStampContext : public netlist::StampContext {
 public:
  BorderStampContext(HierSolver* solver, const linalg::Vector* iterate)
      : StampContext(*solver->mna_), solver_(solver) {
    set_iterate(iterate);
  }

 protected:
  void AddMatrix(int r, int c, double v) override {
    solver_->AddBorderMatrix(BorderOf(r), BorderOf(c), v);
  }
  void AddRhs(int r, double v) override {
    solver_->border_rhs_[static_cast<size_t>(BorderOf(r))] += v;
  }

 private:
  int BorderOf(int unknown) const {
    const int b = solver_->border_index_of_[static_cast<size_t>(unknown)];
    assert(b >= 0 && "global device stamped a cell-internal unknown");
    return b;
  }

  HierSolver* solver_;
};

HierSolver::HierSolver(MnaSystem* mna) : mna_(mna) { BuildPartition(); }

void HierSolver::AddBorderMatrix(int r, int c, double v) {
  if (border_sparse_) {
    border_builder_.Add(static_cast<size_t>(r), static_cast<size_t>(c), v);
  } else {
    border_mat_(static_cast<size_t>(r), static_cast<size_t>(c)) += v;
  }
}

void HierSolver::BuildPartition() {
  const netlist::Netlist& nl = mna_->netlist();
  const int num_devices = nl.num_devices();
  const int num_unknowns = mna_->num_unknowns();

  // Resolve the (name-based) cell annotations against the live devices.
  // Defect injection may have removed members (shorted resistors) — skip
  // missing names; a device claimed twice stays with its first cell.
  std::vector<int> cell_of_device(static_cast<size_t>(num_devices), -1);
  for (const netlist::CellInstance& inst : nl.cell_instances()) {
    Cell cell;
    cell.name = inst.name;
    cell.type = inst.type;
    for (const std::string& dev_name : inst.devices) {
      const netlist::Device* dev = nl.FindDevice(dev_name);
      if (dev == nullptr) continue;
      if (cell_of_device[static_cast<size_t>(dev->ordinal())] != -1) continue;
      cell_of_device[static_cast<size_t>(dev->ordinal())] =
          static_cast<int>(cells_.size());
      cell.device_ordinals.push_back(dev->ordinal());
    }
    if (cell.device_ordinals.empty()) continue;
    cells_.push_back(std::move(cell));
  }

  // Ownership from the live topology: an unknown is internal to cell k
  // iff every device touching it belongs to cell k. -2 = unseen,
  // -1 = border (contested, global-device, or untouched).
  std::vector<int> owner(static_cast<size_t>(num_unknowns), -2);
  auto merge = [&](int unknown, int cell) {
    if (unknown < 0) return;
    int& o = owner[static_cast<size_t>(unknown)];
    if (o == -2) {
      o = cell;
    } else if (o != cell) {
      o = -1;
    }
  };
  // Owner computation, re-runnable after the empty-cell demotion below.
  auto compute_owner = [&] {
    std::fill(owner.begin(), owner.end(), -2);
    for (int i = 0; i < num_devices; ++i) {
      const netlist::Device& dev = nl.device(i);
      const int cell = cell_of_device[static_cast<size_t>(i)];
      for (netlist::NodeId n : dev.nodes()) merge(mna_->UnknownOfNode(n), cell);
      for (int s = 0; s < dev.num_branches(); ++s) {
        merge(mna_->UnknownOfBranch(dev, s), cell);
      }
    }
    for (int& o : owner) {
      if (o == -2) o = -1;
    }
    // Branch unknowns are eliminable only when they pivot against one of
    // their own device's node unknowns inside the block: a branch row
    // (e.g. a voltage source's v_p - v_n = E) has a structurally zero
    // diagonal, so a claimed source whose nodes are all border would hand
    // A_II a zero pivot. Such branches ride the border instead, where the
    // global solve pivots across cells exactly like the flat path.
    for (int i = 0; i < num_devices; ++i) {
      const netlist::Device& dev = nl.device(i);
      if (dev.num_branches() == 0) continue;
      const int cell = cell_of_device[static_cast<size_t>(i)];
      if (cell < 0) continue;
      bool node_internal = false;
      for (netlist::NodeId n : dev.nodes()) {
        const int u = mna_->UnknownOfNode(n);
        if (u >= 0 && owner[static_cast<size_t>(u)] == cell) {
          node_internal = true;
          break;
        }
      }
      if (node_internal) continue;
      for (int s = 0; s < dev.num_branches(); ++s) {
        const int u = mna_->UnknownOfBranch(dev, s);
        if (u >= 0) owner[static_cast<size_t>(u)] = -1;
      }
    }
  };
  compute_owner();

  for (int u = 0; u < num_unknowns; ++u) {
    const int o = owner[static_cast<size_t>(u)];
    if (o >= 0) cells_[static_cast<size_t>(o)].internal.push_back(u);
  }

  // Cells with nothing to eliminate (e.g. level shifters, whose every
  // node couples to a neighbouring gate) would add bookkeeping for no
  // Schur win: demote their devices to the global border pass. Demotion
  // can only widen the border, and never empties a kept cell's internal
  // set (a kept internal unknown is touched by that cell's devices only),
  // so one recompute pass suffices.
  {
    std::vector<Cell> kept;
    for (Cell& cell : cells_) {
      if (!cell.internal.empty()) kept.push_back(std::move(cell));
    }
    cells_ = std::move(kept);
    for (int& c : cell_of_device) c = -1;
    for (size_t k = 0; k < cells_.size(); ++k) {
      for (int ordinal : cells_[k].device_ordinals) {
        cell_of_device[static_cast<size_t>(ordinal)] = static_cast<int>(k);
      }
    }
    compute_owner();
    for (Cell& cell : cells_) cell.internal.clear();
    for (int u = 0; u < num_unknowns; ++u) {
      const int o = owner[static_cast<size_t>(u)];
      if (o >= 0) cells_[static_cast<size_t>(o)].internal.push_back(u);
    }
  }

  // Border numbering (ascending global unknown order).
  border_index_of_.assign(static_cast<size_t>(num_unknowns), -1);
  for (int u = 0; u < num_unknowns; ++u) {
    if (owner[static_cast<size_t>(u)] == -1) {
      border_index_of_[static_cast<size_t>(u)] =
          static_cast<int>(border_unknowns_.size());
      border_unknowns_.push_back(u);
    }
  }

  for (int i = 0; i < num_devices; ++i) {
    if (cell_of_device[static_cast<size_t>(i)] == -1) {
      global_devices_.push_back(i);
    }
  }

  // Per-cell local maps and scratch. Touched border = every border
  // unknown any member device stamps.
  for (Cell& cell : cells_) {
    for (int ordinal : cell.device_ordinals) {
      const netlist::Device& dev = nl.device(ordinal);
      auto touch = [&](int u) {
        if (u < 0) return;
        if (owner[static_cast<size_t>(u)] == -1) cell.border.push_back(u);
      };
      for (netlist::NodeId n : dev.nodes()) touch(mna_->UnknownOfNode(n));
      for (int s = 0; s < dev.num_branches(); ++s) {
        touch(mna_->UnknownOfBranch(dev, s));
      }
    }
    std::sort(cell.border.begin(), cell.border.end());
    cell.border.erase(std::unique(cell.border.begin(), cell.border.end()),
                      cell.border.end());

    const size_t ni = cell.internal.size();
    const size_t nb = cell.border.size();
    for (size_t i = 0; i < ni; ++i) {
      cell.local_of[cell.internal[i]] = static_cast<int>(i);
    }
    for (size_t j = 0; j < nb; ++j) {
      cell.local_of[cell.border[j]] = static_cast<int>(ni + j);
    }
    cell.local = linalg::Matrix(ni + nb, ni + nb);
    cell.rhs.assign(ni + nb, 0.0);
    cell.a_ii = linalg::Matrix(ni, ni);
    cell.a_ib = linalg::Matrix(ni, nb);
    cell.a_bi = linalg::Matrix(nb, ni);
  }

  usable_ = !cells_.empty();
  if (!usable_) return;

  // Border solver storage: dense up to 256 border unknowns, sparse above.
  // This is the border's own threshold, set independently of the flat
  // kAuto one (NewtonOptions::solver).
  border_sparse_ = border_unknowns_.size() > 256;
  if (border_sparse_) {
    border_builder_ = linalg::SparseBuilder(border_unknowns_.size());
  } else {
    border_mat_ =
        linalg::Matrix(border_unknowns_.size(), border_unknowns_.size());
  }
  border_rhs_.assign(border_unknowns_.size(), 0.0);
}

std::string HierSolver::SignatureOf(const Cell& cell) {
  std::string sig;
  const size_t ni = cell.internal.size();
  const size_t nb = cell.border.size();
  sig.reserve(cell.type.size() + 16 + 8 * (ni * ni + 2 * ni * nb));
  sig += cell.type;
  sig.push_back('\0');
  auto append_u32 = [&sig](uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    sig.append(buf, 4);
  };
  append_u32(static_cast<uint32_t>(ni));
  append_u32(static_cast<uint32_t>(nb));
  auto append_matrix = [&sig](const linalg::Matrix& m) {
    sig.append(reinterpret_cast<const char*>(m.data()),
               m.rows() * m.cols() * sizeof(double));
  };
  append_matrix(cell.a_ii);
  append_matrix(cell.a_ib);
  append_matrix(cell.a_bi);
  return sig;
}

util::Status HierSolver::AssembleAndSolve(const linalg::Vector& iterate,
                                          linalg::Vector* x_new,
                                          const NewtonOptions& opts) {
  assert(usable_);
  const size_t nu = static_cast<size_t>(mna_->num_unknowns());
  assert(iterate.size() == nu);
  const int threads = opts.hier_threads;

  // P1: per-cell local assembly — disjoint per-cell storage, and each
  // device's state slots are written by exactly one worker.
  util::ParallelFor(
      cells_.size(),
      [&](size_t k) {
        Cell& cell = cells_[k];
        cell.local.Fill(0.0);
        std::fill(cell.rhs.begin(), cell.rhs.end(), 0.0);
        CellStampContext ctx(*mna_, &cell, &iterate);
        for (int ordinal : cell.device_ordinals) {
          mna_->netlist().device(ordinal).Stamp(ctx);
        }
        // Split the combined block for factoring and signatures.
        const size_t ni = cell.internal.size();
        const size_t nb = cell.border.size();
        for (size_t r = 0; r < ni; ++r) {
          for (size_t c = 0; c < ni; ++c) cell.a_ii(r, c) = cell.local(r, c);
          for (size_t c = 0; c < nb; ++c) {
            cell.a_ib(r, c) = cell.local(r, ni + c);
          }
        }
        for (size_t r = 0; r < nb; ++r) {
          for (size_t c = 0; c < ni; ++c) {
            cell.a_bi(r, c) = cell.local(ni + r, c);
          }
        }
        cell.signature = SignatureOf(cell);
      },
      threads);

  // S1: factor-share grouping, serial in cell order so the chosen
  // representatives (and thus all shared factors) are deterministic.
  Metrics().cells.Add(cells_.size());
  Metrics().border_unknowns.Add(border_unknowns_.size());
  cur_map_.clear();
  std::vector<size_t> to_factor;
  for (size_t k = 0; k < cells_.size(); ++k) {
    Cell& cell = cells_[k];
    auto it = cur_map_.find(cell.signature);
    if (it != cur_map_.end()) {
      cell.factors = it->second;
      continue;
    }
    auto prev = prev_map_.find(cell.signature);
    if (prev != prev_map_.end()) {
      // Cross-timepoint hit: the previous solve factored a bit-identical
      // block — deep in a settled chain this is the common case.
      cell.factors = prev->second;
      cur_map_.emplace(cell.signature, cell.factors);
      continue;
    }
    cell.factors = std::make_shared<linalg::BbdBlockFactors>();
    cur_map_.emplace(cell.signature, cell.factors);
    to_factor.push_back(k);
  }
  Metrics().cell_refactors.Add(to_factor.size());
  Metrics().schur_factor_shares.Add(cells_.size() - to_factor.size());

  // P2: factor the unique representatives.
  std::vector<util::Status> factor_status(to_factor.size(),
                                          util::Status::Ok());
  util::ParallelFor(
      to_factor.size(),
      [&](size_t i) {
        Cell& cell = cells_[to_factor[i]];
        factor_status[i] =
            cell.factors->Factor(cell.a_ii, cell.a_ib, cell.a_bi);
      },
      threads);
  for (size_t i = 0; i < factor_status.size(); ++i) {
    if (!factor_status[i].ok()) {
      prev_map_.clear();  // never share a half-factored block
      cur_map_.clear();
      return util::Status(factor_status[i].code(),
                          "hierarchical cell block '" +
                              cells_[to_factor[i]].name +
                              "': " + std::string(factor_status[i].message()));
    }
  }

  // P3: per-cell rhs reduction against the (possibly shared) factors.
  std::vector<util::Status> reduce_status(cells_.size(), util::Status::Ok());
  util::ParallelFor(
      cells_.size(),
      [&](size_t k) {
        Cell& cell = cells_[k];
        const size_t ni = cell.internal.size();
        linalg::Vector b_i(cell.rhs.begin(),
                           cell.rhs.begin() + static_cast<std::ptrdiff_t>(ni));
        reduce_status[k] = cell.factors->ReduceRhs(b_i, &cell.y, &cell.c);
      },
      threads);
  for (size_t k = 0; k < reduce_status.size(); ++k) {
    if (!reduce_status[k].ok()) {
      prev_map_.clear();
      cur_map_.clear();
      return reduce_status[k];
    }
  }

  // S2: border assembly, serial in cell order then netlist device order —
  // a fixed summation order keeps results thread-count independent.
  std::fill(border_rhs_.begin(), border_rhs_.end(), 0.0);
  if (border_sparse_) {
    // Values only: the border pattern is the same every solve, so keeping
    // the slots keeps the border LU's compiled schedule.
    border_builder_.ZeroValues();
  } else {
    border_mat_.Fill(0.0);
  }
  for (const Cell& cell : cells_) {
    const size_t ni = cell.internal.size();
    const size_t nb = cell.border.size();
    const linalg::Matrix& schur = cell.factors->schur();
    for (size_t i = 0; i < nb; ++i) {
      const int gr = border_index_of_[static_cast<size_t>(cell.border[i])];
      border_rhs_[static_cast<size_t>(gr)] += cell.rhs[ni + i] - cell.c[i];
      for (size_t j = 0; j < nb; ++j) {
        const int gc = border_index_of_[static_cast<size_t>(cell.border[j])];
        AddBorderMatrix(gr, gc, cell.local(ni + i, ni + j) - schur(i, j));
      }
    }
  }
  {
    BorderStampContext ctx(this, &iterate);
    for (int ordinal : global_devices_) {
      mna_->netlist().device(ordinal).Stamp(ctx);
    }
  }

  // Border solve.
  if (border_sparse_) {
    util::Status st = border_factored_once_
                          ? border_lu_.Refactor(border_builder_)
                          : border_lu_.Factor(border_builder_);
    if (!st.ok()) return st;
    border_factored_once_ = true;
    auto solved = border_lu_.Solve(border_rhs_);
    if (!solved.ok()) return solved.status();
    border_x_ = std::move(*solved);
  } else {
    linalg::LuFactorization lu;
    CMLDFT_RETURN_IF_ERROR(lu.Factor(border_mat_));
    auto solved = lu.Solve(border_rhs_);
    if (!solved.ok()) return solved.status();
    border_x_ = std::move(*solved);
  }

  // P4: back-substitution. Border values land first (serial), internal
  // writes are disjoint across cells.
  x_new->assign(nu, 0.0);
  for (size_t b = 0; b < border_unknowns_.size(); ++b) {
    (*x_new)[static_cast<size_t>(border_unknowns_[b])] = border_x_[b];
  }
  util::ParallelFor(
      cells_.size(),
      [&](size_t k) {
        Cell& cell = cells_[k];
        const size_t nb = cell.border.size();
        cell.x_b.resize(nb);
        for (size_t j = 0; j < nb; ++j) {
          cell.x_b[j] = border_x_[static_cast<size_t>(
              border_index_of_[static_cast<size_t>(cell.border[j])])];
        }
        cell.factors->BackSubstitute(cell.y, cell.x_b, &cell.x_i);
        for (size_t i = 0; i < cell.internal.size(); ++i) {
          (*x_new)[static_cast<size_t>(cell.internal[i])] = cell.x_i[i];
        }
      },
      threads);

  // Age the factor cache: next solve's lookups see this solve's factors.
  prev_map_ = std::move(cur_map_);
  cur_map_.clear();
  return util::Status::Ok();
}

}  // namespace cmldft::sim
