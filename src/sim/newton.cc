#include "sim/newton.h"

#include <algorithm>
#include <cmath>

#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "sim/hier.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace {
// Registered eagerly on first solve so every metric appears in snapshots
// even when its branch never fires (stable schema for golden checks).
struct NewtonMetrics {
  util::telemetry::Counter solves =
      util::telemetry::GetCounter("sim.newton.solves");
  util::telemetry::Counter iterations =
      util::telemetry::GetCounter("sim.newton.iterations");
  util::telemetry::Counter damped_iterations =
      util::telemetry::GetCounter("sim.newton.damped_iterations");
  util::telemetry::Counter convergence_failures =
      util::telemetry::GetCounter("sim.newton.convergence_failures");
  util::telemetry::Counter singular_failures =
      util::telemetry::GetCounter("sim.newton.singular_failures");
};
const NewtonMetrics& Metrics() {
  static const NewtonMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const NewtonMetrics& kEagerRegistration = Metrics();
}  // namespace

util::StatusOr<NewtonResult> SolveNewton(MnaSystem& mna,
                                         const linalg::Vector& initial_guess,
                                         const NewtonOptions& opts) {
  const int n = mna.num_unknowns();
  if (static_cast<int>(initial_guess.size()) != n) {
    return util::Status::InvalidArgument("initial guess dimension mismatch");
  }
  const NewtonMetrics& metrics = Metrics();
  metrics.solves.Increment();
  linalg::Vector x = initial_guess;
  // Hierarchical path (opt-in): the bordered-block-diagonal solver
  // replaces assembly + factorization + solve wholesale and falls through
  // to the flat path when the netlist carries no usable cell annotations.
  HierSolver* hier = opts.hierarchical ? mna.GetHierSolver() : nullptr;
  const bool use_sparse =
      opts.solver == NewtonOptions::Solver::kSparse ||
      (opts.solver == NewtonOptions::Solver::kAuto && n > 256);
  if (hier == nullptr) mna.set_sparse(use_sparse);
  linalg::LuFactorization lu;
  // The sparse solver lives in the MnaSystem so its symbolic factorization
  // and pivot order are reused across iterations and timepoints; Refactor
  // does a full Factor on first use or when a reused pivot goes bad.
  linalg::SparseLu& sparse_lu = mna.sparse_solver();
  const int n_nodes = mna.num_node_unknowns();

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    metrics.iterations.Increment();

    linalg::Vector x_new;
    if (hier != nullptr) {
      // The hierarchical solve replaces assembly + factor + solve in one
      // call; its solution feeds the shared damping/convergence logic below.
      util::Status st = hier->AssembleAndSolve(x, &x_new, opts);
      if (!st.ok()) {
        metrics.singular_failures.Increment();
        return util::Status(st.code(), util::StrPrintf("newton iter %d: %s",
                                                       iter,
                                                       st.message().c_str()));
      }
    } else {
      mna.Assemble(x);
      util::Status st = use_sparse ? sparse_lu.Refactor(mna.sparse_jacobian())
                                   : lu.Factor(mna.jacobian());
      if (!st.ok()) {
        metrics.singular_failures.Increment();
        return util::Status::SingularMatrix(util::StrPrintf(
            "newton iter %d: %s", iter, st.message().c_str()));
      }
      auto solved = use_sparse ? sparse_lu.Solve(mna.rhs()) : lu.Solve(mna.rhs());
      if (!solved.ok()) return solved.status();
      x_new = std::move(solved.value());
    }

    // Clamp node-voltage updates (global damping); find convergence metric.
    bool converged = true;
    double max_v_step = 0.0;
    for (int i = 0; i < n_nodes; ++i) {
      max_v_step = std::max(max_v_step,
                            std::fabs(x_new[static_cast<size_t>(i)] -
                                      x[static_cast<size_t>(i)]));
    }
    double damp = 1.0;
    if (max_v_step > opts.max_delta_v) {
      damp = opts.max_delta_v / max_v_step;
      metrics.damped_iterations.Increment();
    }

    for (int i = 0; i < n; ++i) {
      const double xi = x[static_cast<size_t>(i)];
      const double delta = x_new[static_cast<size_t>(i)] - xi;
      const double step = (i < n_nodes ? damp : 1.0) * delta;
      const double tol = (i < n_nodes ? opts.abstol_v : opts.abstol_i) +
                         opts.reltol * std::fabs(xi + step);
      if (std::fabs(delta) > tol) converged = false;
      x[static_cast<size_t>(i)] = xi + step;
      if (!std::isfinite(x[static_cast<size_t>(i)])) {
        metrics.convergence_failures.Increment();
        return util::Status::NoConvergence(
            util::StrPrintf("newton diverged (non-finite) at iter %d", iter));
      }
    }
    if (converged && damp == 1.0) {
      return NewtonResult{std::move(x), iter + 1};
    }
  }
  CMLDFT_LOG(kDebug) << "newton exhausted " << opts.max_iterations
                     << " iterations";
  metrics.convergence_failures.Increment();
  return util::Status::NoConvergence(util::StrPrintf(
      "newton did not converge in %d iterations", opts.max_iterations));
}

}  // namespace cmldft::sim
