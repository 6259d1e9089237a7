// Modified Nodal Analysis system: unknown numbering, assembly, and the
// StampContext implementation devices stamp into.
//
// Sparse assembly replays a compiled stamp plan (see docs/performance.md,
// "Layer 4"): the first sparse Assemble() records every matrix/RHS/state
// destination each device touches and compiles the sequence into a flat
// plan of resolved pointers into the builder's frozen slots. Later sparse
// assemblies replay the plan — sequential writes with zero hash lookups —
// while validating each stamp call against the recording; any divergence
// (a device taking a different conditional stamp path, or a
// sparsity-pattern change) falls back to a full re-record. Replay is
// bit-identical to recording. Dense assembly accumulates directly.
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

  // The StampContext base and the compiled stamp plan hold pointers into
  // this object's own storage; copying would alias them onto the source.
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
  void set_mode(netlist::AnalysisMode m) { analysis_.mode = m; }
  void set_time(double t) { analysis_.time = t; }
  void set_dt(double dt) { analysis_.dt = dt; }
  void set_method(netlist::IntegrationMethod m) { analysis_.method = m; }
  void set_gmin(double g) { analysis_.gmin = g; }
  void set_temperature(double t) { analysis_.temperature = t; }
  void set_source_scale(double s) { analysis_.source_scale = s; }
  void set_initializing_state(bool b) { analysis_.initializing_state = b; }

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

  // --- integrator state --------------------------------------------------
  /// Promote the states written during the last converged solve to
  /// "previous" (call when a timepoint is accepted).
  void RotateStates();
  /// Copy previous states into current (call when a step is rejected so a
  /// retry starts clean).
  void ResetCurrentStates();
  /// States written by the last assembly.
  const std::vector<double>& current_states() const { return curr_states_; }

  /// Lazily built hierarchical bordered-block-diagonal solver over the
  /// netlist's cell-instance annotations (sim/hier.h); nullptr when the
  /// netlist carries none worth eliminating. The Newton loop consults
  /// this only when NewtonOptions::hierarchical is set.
  HierSolver* GetHierSolver();

 protected:
  // --- StampContext write sinks -------------------------------------------
  void AddMatrix(int row, int col, double value) override;
  void AddRhs(int row, double value) override;
  void WriteState(int slot, double value) override;

 private:
  // --- compiled stamp plan ------------------------------------------------
  // One resolved matrix write, packed to 16 bytes so replay validation is
  // a single 64-bit compare: key = row << 33 | col << 1 | assign. The
  // assign bit marks the first touch of a slot in the assembly sequence:
  // replay stores the value instead of accumulating, which lets it skip
  // the builder's Clear(). That is bit-exact: the recording's Clear()
  // dropped the slot, so its first Add() inserted the raw value too,
  // sign of zero included.
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
  // Sparse routing always records or replays; dense routing accumulates.
  enum class AssemblyPhase : uint8_t { kDense, kRecording, kReplaying };

  void DenseAssemble();
  void RecordAssemble();
  bool ReplayAssemble();  // false on plan mismatch (plan is dropped)
  void CompilePlan();

  const netlist::Netlist* netlist_;
  std::unique_ptr<HierSolver> hier_;
  bool hier_checked_ = false;
  std::vector<netlist::DeviceSlots> slots_;  // indexed by Device::ordinal()
  int num_devices_ = 0;
  int num_node_unknowns_ = 0;
  int num_unknowns_ = 0;
  int num_states_ = 0;

  netlist::AnalysisState analysis_;
  bool sparse_ = false;
  linalg::SparseBuilder sparse_jac_{0};
  linalg::SparseLu sparse_lu_;
  linalg::Matrix jacobian_;
  linalg::Vector rhs_;
  std::vector<double> prev_states_;
  std::vector<double> curr_states_;

  // Plan state.
  bool plan_ready_ = false;
  uint64_t plan_pattern_version_ = 0;  // sparse builder structure snapshot
  AssemblyPhase phase_ = AssemblyPhase::kDense;
  bool plan_mismatch_ = false;
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
