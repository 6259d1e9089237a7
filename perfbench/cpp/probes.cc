#include "probes.h"

#include <cstdio>
#include <functional>

#include "campaign/store.h"
#include "harness.h"
#include "linalg/lu.h"
#include "sim/dc.h"
#include "sim/hier.h"
#include "sim/mna.h"
#include "util/parallel.h"

namespace perfbench {

namespace {

using namespace cmldft;

/// Median seconds of `fn` over at least `min_reps` calls and `min_seconds`.
double MedianCallSeconds(const std::function<void()>& fn, int min_reps,
                         double min_seconds) {
  std::vector<double> samples;
  const double start = NowSeconds();
  while (static_cast<int>(samples.size()) < min_reps ||
         NowSeconds() - start < min_seconds) {
    const double t0 = NowSeconds();
    fn();
    samples.push_back(NowSeconds() - t0);
  }
  return Median(std::move(samples));
}

/// The circuit's DC solution as an MNA iterate (node voltages; branch
/// currents start at zero, which costs a device evaluation the same).
bool DcIterate(const netlist::Netlist& nl, const sim::MnaSystem& mna,
               linalg::Vector* x) {
  auto dc = sim::SolveDc(nl);
  if (!dc.ok()) return false;
  x->assign(static_cast<size_t>(mna.num_unknowns()), 0.0);
  for (netlist::NodeId n = 1; n < nl.num_nodes(); ++n) {
    const int u = mna.UnknownOfNode(n);
    if (u >= 0) (*x)[static_cast<size_t>(u)] = dc->V(n);
  }
  return true;
}

}  // namespace

double ForkJoinUs(int threads) {
  return 1e6 * MedianCallSeconds(
                   [threads] { util::ParallelFor(256, [](size_t) {}, threads); },
                   200, 0.2);
}

DenseProbe ProbeDenseSolve(const netlist::Netlist& nl) {
  DenseProbe out;
  sim::MnaSystem mna(nl);
  linalg::Vector x;
  if (!DcIterate(nl, mna, &x)) return out;
  out.unknowns = mna.num_unknowns();
  mna.set_mode(netlist::AnalysisMode::kTransient);
  mna.set_method(netlist::IntegrationMethod::kTrapezoidal);
  mna.set_dt(1e-11);
  mna.Assemble(x);  // records the stamp plan once, as the engine does
  out.assemble_us =
      1e6 * MedianCallSeconds([&] { mna.Assemble(x); }, 200, 0.2);
  linalg::LuFactorization lu;
  bool solved = true;
  out.factor_solve_us = 1e6 * MedianCallSeconds(
                                  [&] {
                                    solved = lu.Factor(mna.jacobian()).ok() &&
                                             lu.Solve(mna.rhs()).ok() && solved;
                                  },
                                  200, 0.2);
  if (!solved) out.factor_solve_us = 0.0;
  return out;
}

double ProbeHierSolve(const netlist::Netlist& nl, int threads) {
  sim::MnaSystem mna(nl);
  sim::HierSolver* hier = mna.GetHierSolver();
  linalg::Vector x;
  if (hier == nullptr || !hier->usable() || !DcIterate(nl, mna, &x)) return 0.0;
  sim::NewtonOptions opts;
  opts.hierarchical = true;
  opts.hier_threads = threads;
  linalg::Vector x_new;
  bool solved = true;
  const double us = 1e6 * MedianCallSeconds(
                              [&] {
                                solved = hier->AssembleAndSolve(x, &x_new, opts)
                                             .ok() &&
                                         solved;
                              },
                              20, 0.3);
  return solved ? us : 0.0;
}

double ProbeStoreAppend(const std::vector<std::string>& records,
                        const std::string& path, int fsync_batch) {
  std::vector<double> per_record;
  for (int rep = 0; rep < 3 && !records.empty(); ++rep) {
    campaign::StoreHeader header;
    header.total_units = records.size();
    auto writer = campaign::StoreWriter::Create(path, header, fsync_batch);
    if (!writer.ok()) break;
    bool appended = true;
    const double t0 = NowSeconds();
    for (const std::string& r : records) appended = appended && writer->AppendRecord(r).ok();
    const double seconds = NowSeconds() - t0;
    (void)writer->Close();
    if (!appended) break;
    per_record.push_back(seconds / static_cast<double>(records.size()));
  }
  std::remove(path.c_str());
  return per_record.size() == 3 ? 1e6 * Median(per_record) : 0.0;
}

}  // namespace perfbench
