// Modified Nodal Analysis system: unknown numbering, assembly, and the
// StampContext implementation devices stamp into.
//
// Assembly fast path (see docs/performance.md, "Layer 4"): the
// first Assemble() records every matrix/RHS/state destination each device
// touches and compiles the sequence into a flat plan of resolved write
// targets (dense: pointer into the row-major Jacobian; sparse: pointer into
// the builder's frozen slot). Steady-state Assemble() then replays the plan
// — branch-free sequential writes with zero hash lookups — while validating
// each stamp call against the recorded (row, col); any divergence (a device
// taking a different conditional stamp path, or a sparsity-pattern change)
// falls back to a full re-record. Replay is bit-identical to the legacy
// path and on by default for sparse routing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "netlist/netlist.h"
#include "netlist/stamp_context.h"
#include "util/status.h"

namespace cmldft::sim {

class HierSolver;

/// Owns the unknown numbering for a netlist (node voltages first, then
/// branch currents), the assembled Jacobian/RHS, and the integrator state
/// vectors. One MnaSystem is reused across all Newton iterations and
/// timepoints of an analysis.
class MnaSystem : public netlist::StampContext {
 public:
  explicit MnaSystem(const netlist::Netlist& netlist);
  ~MnaSystem();  // out-of-line: hier_ is incomplete here

  // The compiled stamp plan caches raw pointers into this object's own
  // Jacobian storage; copying would alias them onto the source.
  MnaSystem(const MnaSystem&) = delete;
  MnaSystem& operator=(const MnaSystem&) = delete;

  const netlist::Netlist& netlist() const { return *netlist_; }

  int num_unknowns() const { return num_unknowns_; }
  int num_node_unknowns() const { return num_node_unknowns_; }

  /// Unknown index of a node (-1 for ground).
  int UnknownOfNode(netlist::NodeId node) const;
  /// Unknown index of a device branch slot.
  int UnknownOfBranch(const netlist::Device& dev, int slot) const;

  // --- analysis configuration (set by the engines) ----------------------
  void set_mode(netlist::AnalysisMode m) { mode_ = m; }
  void set_time(double t) { time_ = t; }
  void set_dt(double dt) { dt_ = dt; }
  void set_method(netlist::IntegrationMethod m) { method_ = m; }
  void set_gmin(double g) { gmin_ = g; }
  void set_temperature(double t) { temperature_ = t; }
  // first_iteration is advisory: no device model consults it (see the
  // contract in StampContext).
  void set_first_iteration(bool b) { first_iteration_ = b; }
  void set_source_scale(double s) { source_scale_ = s; }
  void set_initializing_state(bool b) { initializing_state_ = b; }

  /// Assemble Jacobian and RHS at the given iterate (solving J x = rhs
  /// yields the next Newton iterate directly). In sparse mode the Jacobian
  /// goes into sparse_jacobian() instead of jacobian().
  void Assemble(const linalg::Vector& iterate);

  /// Route stamps into a sparse builder instead of the dense matrix
  /// (worth it above a few hundred unknowns; results are identical).
  void set_sparse(bool sparse);
  bool sparse() const { return sparse_; }

  const linalg::Matrix& jacobian() const { return jacobian_; }
  const linalg::SparseBuilder& sparse_jacobian() const { return sparse_jac_; }
  const linalg::Vector& rhs() const { return rhs_; }

  /// Persistent sparse solver: because the MNA sparsity pattern is fixed
  /// for the lifetime of this system, the solver's symbolic factorization
  /// and pivot order survive across Newton iterations *and* timepoints —
  /// callers use SparseLu::Refactor() for numeric-only refactorization.
  linalg::SparseLu& sparse_solver() { return sparse_lu_; }

  // --- assembly fast path ------------------------------------------------
  /// Compiled stamp plan policy. Replay is bit-identical to the legacy
  /// path wherever it runs; the mode only decides *when* it runs:
  ///  - kAuto (default): replay iff sparse — replay eliminates the
  ///    SparseBuilder hash accumulation. Dense assembly keeps the legacy
  ///    direct-index path, which per-stamp validation cannot beat.
  ///  - kForce: always replay (tests and benchmarks of the replay path).
  ///  - kOff: always legacy.
  enum class StampPlanMode : uint8_t { kOff, kAuto, kForce };
  void set_stamp_plan_mode(StampPlanMode mode);
  StampPlanMode stamp_plan_mode() const { return plan_mode_; }

  // --- integrator state --------------------------------------------------
  /// Promote the states written during the last converged solve to
  /// "previous" (call when a timepoint is accepted).
  void RotateStates();
  /// Copy previous states into current (call when a step is rejected so a
  /// retry starts clean).
  void ResetCurrentStates();

  // --- StampContext ------------------------------------------------------
  netlist::AnalysisMode mode() const override { return mode_; }
  double time() const override { return time_; }
  double dt() const override { return dt_; }
  netlist::IntegrationMethod method() const override { return method_; }
  double gmin() const override { return gmin_; }
  double temperature() const override { return temperature_; }
  bool first_iteration() const override { return first_iteration_; }
  double source_scale() const override { return source_scale_; }
  bool initializing_state() const override { return initializing_state_; }

  double V(netlist::NodeId n) const override;
  double BranchCurrent(const netlist::Device& dev, int slot) const override;

  void AddNodeMatrix(netlist::NodeId row, netlist::NodeId col, double g) override;
  void AddNodeRhs(netlist::NodeId row, double value) override;
  void AddBranchNodeMatrix(const netlist::Device& dev, int slot,
                           netlist::NodeId col, double value) override;
  void AddNodeBranchMatrix(netlist::NodeId row, const netlist::Device& dev,
                           int slot, double value) override;
  void AddBranchBranchMatrix(const netlist::Device& dev, int slot,
                             double value) override;
  void AddBranchRhs(const netlist::Device& dev, int slot, double value) override;

  double PrevState(const netlist::Device& dev, int slot) const override;
  void SetState(const netlist::Device& dev, int slot, double value) override;

  /// Lazily built hierarchical bordered-block-diagonal solver over the
  /// netlist's cell-instance annotations (sim/hier.h); nullptr when the
  /// netlist carries none worth eliminating. The Newton loop consults
  /// this only when NewtonOptions::hierarchical is set.
  HierSolver* GetHierSolver();

 private:
  friend class HierSolver;  // reads slots_/prev_states_/curr_states_
  struct DeviceSlots {
    int branch_offset = -1;  // first branch unknown (absolute index)
    int state_offset = -1;   // first state slot
  };
  const DeviceSlots& SlotsOf(const netlist::Device& dev) const;

  // --- compiled stamp plan ------------------------------------------------
  // One resolved matrix write, packed to 16 bytes so replay validation is
  // a single 64-bit compare: key = row << 33 | col << 1 | assign. The
  // assign bit marks the first touch of a slot in the assembly sequence:
  // replay stores instead of accumulating, which lets it skip the O(n^2)
  // dense zero-fill / sparse Clear(). The stored value is
  // `v + plan_assign_bias_` to reproduce each backend's signed-zero
  // behavior bit for bit: dense legacy accumulates into a zeroed matrix
  // (`0.0 += -0.0` gives +0.0, bias +0.0 normalizes the same way) while
  // sparse legacy inserts the raw value (-0.0 survives, bias -0.0 is the
  // IEEE identity `x + -0.0 == x`).
  struct MatrixWrite {
    double* target;
    uint64_t key;
  };
  static constexpr uint64_t kAssignBit = 1;
  static uint64_t PackRc(int32_t r, int32_t c) {
    return static_cast<uint64_t>(static_cast<uint32_t>(r)) << 33 |
           static_cast<uint64_t>(static_cast<uint32_t>(c)) << 1;
  }
  // Per-device ranges into the three plan streams.
  struct DeviceSpan {
    uint32_t mat_begin = 0, mat_end = 0;
    uint32_t rhs_begin = 0, rhs_end = 0;
    uint32_t state_begin = 0, state_end = 0;
  };
  enum class AssemblyPhase : uint8_t { kLegacy, kRecording, kReplaying };

  void LegacyAssemble();
  void RecordAssemble();
  bool ReplayAssemble();  // false on plan mismatch (plan is dropped)
  void CompilePlan();

  // Stamp write routing shared by all Add* overrides.
  void StampMatrix(int r, int c, double v);
  void StampRhs(int r, double v);

  const netlist::Netlist* netlist_;
  std::unique_ptr<HierSolver> hier_;
  bool hier_checked_ = false;
  std::vector<DeviceSlots> slots_;  // indexed by Device::ordinal()
  int num_devices_ = 0;
  int num_node_unknowns_ = 0;
  int num_unknowns_ = 0;
  int num_states_ = 0;

  netlist::AnalysisMode mode_ = netlist::AnalysisMode::kDcOperatingPoint;
  double time_ = 0.0;
  double dt_ = 0.0;
  netlist::IntegrationMethod method_ = netlist::IntegrationMethod::kTrapezoidal;
  double gmin_ = 1e-12;
  double temperature_ = 300.15;
  bool first_iteration_ = false;
  double source_scale_ = 1.0;
  bool initializing_state_ = false;

  const linalg::Vector* iterate_ = nullptr;
  bool sparse_ = false;
  linalg::SparseBuilder sparse_jac_{0};
  linalg::SparseLu sparse_lu_;
  linalg::Matrix jacobian_;
  linalg::Vector rhs_;
  std::vector<double> prev_states_;
  std::vector<double> curr_states_;

  // Plan state.
  StampPlanMode plan_mode_ = StampPlanMode::kAuto;
  bool plan_ready_ = false;
  bool plan_sparse_ = false;
  uint64_t plan_pattern_version_ = 0;  // sparse builder structure snapshot
  AssemblyPhase phase_ = AssemblyPhase::kLegacy;
  bool plan_mismatch_ = false;
  double plan_assign_bias_ = 0.0;  // +0.0 dense, -0.0 sparse (see above)
  // Each plan stream ends in a sentinel that can never match a real stamp
  // (key ~0 / row -1), so the replay hot path needs no bounds checks: a
  // device stamping past its recorded span hits the sentinel and flags a
  // mismatch instead of running off the end.
  std::vector<MatrixWrite> mat_plan_;
  std::vector<int32_t> rhs_plan_;    // validated row per RHS write
  std::vector<int32_t> state_plan_;  // absolute state slot per SetState
  std::vector<DeviceSpan> spans_;
  std::vector<std::pair<int32_t, int32_t>> rec_mat_;  // record scratch
  size_t mat_cursor_ = 0, rhs_cursor_ = 0, state_cursor_ = 0;
};

}  // namespace cmldft::sim
