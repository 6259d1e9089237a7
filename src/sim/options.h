// Solver option structs shared by DC and transient analyses.
#pragma once

#include "netlist/stamp_context.h"

namespace cmldft::sim {

/// Newton-Raphson controls.
struct NewtonOptions {
  int max_iterations = 150;
  /// Node-voltage convergence: |dV| < abstol_v + reltol * |V|.
  double abstol_v = 1e-6;
  /// Branch-current convergence: |dI| < abstol_i + reltol * |I|.
  double abstol_i = 1e-9;
  double reltol = 1e-4;
  /// Per-iteration clamp on node-voltage updates [V]; tames the exponential
  /// BJT characteristics without per-junction limiting state.
  double max_delta_v = 0.25;
  /// Junction shunt conductance [S].
  double gmin = 1e-12;
  /// Linear solver. kAuto uses the dense LU below ~256 unknowns (measured
  /// crossover for CML-like MNA patterns: the sparse code's Markowitz scan
  /// and hash-map constants dominate on small systems) and the sparse LU
  /// above.
  enum class Solver { kAuto, kDense, kSparse };
  Solver solver = Solver::kAuto;

  // --- hierarchical solver (opt-in; see docs/performance.md Layer 6) -----
  /// Bordered-block-diagonal elimination over the netlist's cell-instance
  /// annotations (sim/hier.h): per-cell internal blocks are factored and
  /// Schur-eliminated into a small interconnect border, in parallel, with
  /// factorizations shared across same-type cells whose blocks agree bit
  /// for bit.
  /// Same linear system as the flat solve in a different elimination
  /// order, so solutions are tolerance-equivalent (gated like dense ==
  /// sparse). Falls back to the flat path when the netlist carries no
  /// usable cell annotations. Default off.
  bool hierarchical = false;
  /// Worker threads for the per-cell assembly/factor phases: 0 = auto
  /// (CMLDFT_THREADS or hardware concurrency), 1 = serial. Results are
  /// bit-identical for any thread count.
  int hier_threads = 0;
};

/// DC operating-point controls (Newton + homotopy fallbacks).
struct DcOptions {
  NewtonOptions newton;
  /// gmin stepping ladder: start value and per-stage reduction factor.
  double gmin_start = 1e-3;
  double gmin_reduction = 10.0;
  /// Source-stepping stages used if gmin stepping also fails.
  int source_steps = 10;
  double temperature_k = 300.15;
};

/// Transient controls.
struct TransientOptions {
  double tstop = 0.0;            ///< end time [s] (required)
  double dt_initial = 1e-12;     ///< first step [s]
  double dt_min = 1e-16;         ///< give up below this [s]
  double dt_max = 2.5e-11;       ///< step ceiling [s]
  netlist::IntegrationMethod method =
      netlist::IntegrationMethod::kTrapezoidal;
  /// Step controller: target max per-node voltage change per step [V].
  double max_voltage_step = 0.03;
  /// Grow dt by this factor when steps are comfortably small.
  double growth_factor = 1.5;
  DcOptions dc;                  ///< used for the t=0 operating point
};

}  // namespace cmldft::sim
