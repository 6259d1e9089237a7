// The context through which devices load (stamp) their linearized companion
// models into the MNA system. Everything a device reads — the analysis
// state, the present iterate, previous integrator states — and the
// node/branch -> unknown translation live here, concrete. Only the three
// write sinks are virtual: sim::MnaSystem routes them into its dense or
// sparse Jacobian, and the hierarchical solver into per-cell blocks and
// the border system. Declared here so that device models depend only on
// the netlist layer.
#pragma once

#include <cassert>
#include <vector>

#include "netlist/node.h"

namespace cmldft::netlist {

class Device;

/// What the engine is currently computing. Devices adapt their companion
/// models: capacitors are open in DC, sources evaluate at `time` in
/// transient, etc.
enum class AnalysisMode {
  kDcOperatingPoint,
  kDcSweep,
  kTransient,
};

/// Numerical integration method for charge-storage elements.
enum class IntegrationMethod {
  kBackwardEuler,
  kTrapezoidal,
};

/// Analysis state the engines configure and devices read.
struct AnalysisState {
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  /// Current simulation time [s]; 0 in DC analyses.
  double time = 0.0;
  /// Present timestep [s]; 0 in DC analyses.
  double dt = 0.0;
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  /// Shunt conductance added across semiconductor junctions to aid
  /// convergence (SPICE gmin). Devices add it themselves.
  double gmin = 1e-12;
  /// Simulation temperature [K].
  double temperature = 300.15;
  /// Homotopy factor in [0, 1] applied by independent sources (source
  /// stepping). 1 in normal operation.
  double source_scale = 1.0;
  /// True while solving the DC operating point that initializes a
  /// transient (capacitor states must be seeded, not differentiated).
  bool initializing_state = false;
};

/// Where a device's branch-current unknowns and integrator state slots
/// start (-1 when it has none). Indexed by Device::ordinal().
struct DeviceSlots {
  int branch_offset = -1;  // first branch unknown (absolute index)
  int state_offset = -1;   // first state slot
};

/// Per-iteration stamping interface.
///
/// Unknown numbering: node n > 0 is unknown n - 1 (ground has none and its
/// stamps are dropped here, before any sink sees them); branch unknowns
/// follow at the offsets in the DeviceSlots table.
///
/// Sign conventions: the MNA system is J x = rhs, where KCL rows state
/// "sum of currents *leaving* the node equals zero". StampCurrent() handles
/// the Newton linearization bookkeeping for nonlinear branch currents.
class StampContext {
 public:
  virtual ~StampContext() = default;

  // --- analysis state -------------------------------------------------
  AnalysisMode mode() const { return analysis_->mode; }
  double time() const { return analysis_->time; }
  double dt() const { return analysis_->dt; }
  IntegrationMethod method() const { return analysis_->method; }
  double gmin() const { return analysis_->gmin; }
  double temperature() const { return analysis_->temperature; }
  double source_scale() const { return analysis_->source_scale; }
  bool initializing_state() const { return analysis_->initializing_state; }

  // --- present Newton iterate ------------------------------------------
  /// Voltage of node `n` at the present iterate (0 for ground).
  double V(NodeId n) const {
    assert(iterate_ != nullptr && "V() outside assembly");
    return n == kGroundNode ? 0.0 : (*iterate_)[static_cast<size_t>(n - 1)];
  }

  // --- raw stamps -------------------------------------------------------
  /// J(row_node, col_node) += g; either node may be ground (ignored).
  void AddNodeMatrix(NodeId row, NodeId col, double g) {
    if (row == kGroundNode || col == kGroundNode) return;
    AddMatrix(row - 1, col - 1, g);
  }
  /// rhs(row_node) += value.
  void AddNodeRhs(NodeId row, double value) {
    if (row == kGroundNode) return;
    AddRhs(row - 1, value);
  }
  /// Stamps coupling between a device's branch-current unknown and nodes.
  void AddBranchNodeMatrix(const Device& dev, int slot, NodeId col,
                           double value) {
    if (col == kGroundNode) return;
    AddMatrix(BranchUnknown(dev, slot), col - 1, value);
  }
  void AddNodeBranchMatrix(NodeId row, const Device& dev, int slot,
                           double value) {
    if (row == kGroundNode) return;
    AddMatrix(row - 1, BranchUnknown(dev, slot), value);
  }
  void AddBranchRhs(const Device& dev, int slot, double value) {
    AddRhs(BranchUnknown(dev, slot), value);
  }

  // --- convenience stamps ----------------------------------------------
  /// Linear conductance g between a and b.
  void StampConductance(NodeId a, NodeId b, double g) {
    AddNodeMatrix(a, a, g);
    AddNodeMatrix(b, b, g);
    AddNodeMatrix(a, b, -g);
    AddNodeMatrix(b, a, -g);
  }

  /// Nonlinear branch current I flowing from `a` to `b`, evaluated at the
  /// present iterate, with conductance g = dI/d(Va - Vb). Stamps the Newton
  /// companion (g plus equivalent current source).
  void StampCurrent(NodeId a, NodeId b, double current, double g) {
    StampConductance(a, b, g);
    const double ieq = current - g * (V(a) - V(b));
    AddNodeRhs(a, -ieq);
    AddNodeRhs(b, ieq);
  }

  // --- integrator state -------------------------------------------------
  /// Value of state slot `slot` at the previous accepted timepoint.
  double PrevState(const Device& dev, int slot) const {
    return (*prev_states_)[static_cast<size_t>(StateSlot(dev, slot))];
  }
  /// Record state slot value for the timepoint being solved. Must be called
  /// every Stamp() so the accepted values are the converged ones.
  void SetState(const Device& dev, int slot, double value) {
    WriteState(StateSlot(dev, slot), value);
  }

 protected:
  /// Binds the context to state the owning system keeps: every reference
  /// must outlive the context.
  StampContext(const AnalysisState& analysis,
               const std::vector<DeviceSlots>& slots,
               const std::vector<double>& prev_states,
               std::vector<double>& curr_states)
      : analysis_(&analysis),
        slots_(&slots),
        prev_states_(&prev_states),
        curr_states_(&curr_states) {}
  /// A sub-context shares the read side of the system it stamps for and
  /// supplies only its own write sinks.
  StampContext(const StampContext&) = default;
  StampContext& operator=(const StampContext&) = delete;

  /// The iterate V() reads; set for the duration of one assembly.
  void set_iterate(const std::vector<double>* iterate) { iterate_ = iterate; }

  /// Absolute unknown / state slot of a device's local branch / state.
  /// Defined in device.h, where Device is complete.
  inline int BranchUnknown(const Device& dev, int slot) const;
  inline int StateSlot(const Device& dev, int slot) const;

  // --- write sinks (global ids; ground already dropped) ------------------
  virtual void AddMatrix(int row, int col, double value) = 0;
  virtual void AddRhs(int row, double value) = 0;
  /// Stores a state for the timepoint being solved.
  virtual void WriteState(int slot, double value) {
    (*curr_states_)[static_cast<size_t>(slot)] = value;
  }

 private:
  const AnalysisState* analysis_;
  const std::vector<DeviceSlots>* slots_;
  const std::vector<double>* prev_states_;
  std::vector<double>* curr_states_;
  const std::vector<double>* iterate_ = nullptr;
};

}  // namespace cmldft::netlist
