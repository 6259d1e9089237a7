// Unit-cost probes: time one public library call on the workload's own
// inputs, many times, and report the median. A probe multiplied by the
// telemetry count of the same operation estimates that layer's share of
// the run; the estimate is labelled as such wherever it is printed.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace perfbench {

/// Median microseconds of util::ParallelFor(256, empty body, threads).
double ForkJoinUs(int threads);

struct DenseProbe {
  double assemble_us = 0.0;      ///< MnaSystem::Assemble, transient mode
  double factor_solve_us = 0.0;  ///< LuFactorization::Factor + Solve
  int unknowns = 0;
};
/// Assemble the circuit's MNA system at its DC operating point (transient
/// companion models, trapezoidal, 10 ps step) and factor + solve the
/// resulting dense Jacobian. Zeros when the DC point does not solve.
DenseProbe ProbeDenseSolve(const cmldft::netlist::Netlist& netlist);

/// Median microseconds of HierSolver::AssembleAndSolve at the circuit's
/// DC point with `threads` workers; 0 when the netlist has no usable cell
/// partition or the DC point does not solve.
double ProbeHierSolve(const cmldft::netlist::Netlist& netlist, int threads);

/// Mean microseconds per StoreWriter::AppendRecord when `records` are
/// appended to a fresh store at `path` with the given fsync batch. The
/// file is removed afterwards.
double ProbeStoreAppend(const std::vector<std::string>& records,
                        const std::string& path, int fsync_batch);

}  // namespace perfbench
