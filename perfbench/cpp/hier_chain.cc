// `hier_chain`: one 256-cell clocked CML buffer chain, simulated with
// sim::RunTransient on the hierarchical solver — the BM_HierTransient/256
// configuration.
//
// Seed: the clock frequency. An iteration simulates the chain over a 2 ns
// window at fc(1+d) and at fc(1-d), fc = 500 MHz and d uniform in
// [0, 0.6), so both frequencies lie in 200-800 MHz. Step count grows
// roughly linearly with frequency, so the pair costs nearly the same for
// every seed while the inputs differ. Preset: d = 0, both at 500 MHz.
// Check, per transient: the last stage, which the clock front (~40 ps per
// stage) cannot reach within the window, holds the technology's nominal
// swing within 10% and never toggles; the first stage toggles once per
// clock half period, each crossing within 150 ps after its clock edge.
#include <algorithm>
#include <cmath>

#include "cml/builder.h"
#include "probes.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "util/strings.h"
#include "waveform/measure.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cmldft;

constexpr int kCells = 256;
constexpr double kWindow = 2e-9;
constexpr double kCenterHz = 500e6;
constexpr double kMaxOffset = 0.6;
constexpr double kSwingTolerance = 0.10;
constexpr double kEdgeToCrossing = 150e-12;

struct Chain {
  double frequency = 0.0;
  netlist::Netlist nl;
  cml::DiffPort first;
  cml::DiffPort last;
};

class HierChain final : public Workload {
 public:
  HierChain(uint64_t seed, int nproc) : nproc_(nproc) {
    double offset = 0.0;
    if (seed != kPresetSeed) {
      SeedStream rng(seed);
      offset = rng.Uniform(0.0, kMaxOffset);
    }
    frequencies_ = {kCenterHz * (1.0 + offset), kCenterHz * (1.0 - offset)};
  }

  std::string DescribeInputs() const override {
    return util::StrPrintf("hier_chain cells=%d window=%g freqs_hz=%.17g,%.17g",
                           kCells, kWindow, frequencies_[0], frequencies_[1]);
  }

  int threads() const override { return nproc_; }
  // Each of an iteration's ~13,000 fork-joins waits for the slowest vCPU.
  // On a shared VM whose vCPU speeds drift, ten 4-thread runs spread 0.5
  // (IQR/median) against 0.15 at 1 thread, so the end-to-end runs use 1;
  // the traced run times both.
  int timed_threads() const override { return 1; }

  void Setup(Tracer* tracer) override {
    ScopedSpan span(tracer, "cml.build_chains");
    chains_.clear();
    for (double f : frequencies_) {
      Chain c;
      c.frequency = f;
      cml::CmlTechnology tech;
      cml::CellBuilder cells(c.nl, tech);
      const cml::DiffPort in = cells.AddDifferentialClock("in", f);
      const auto outs = cells.AddBufferChain("x", in, kCells);
      c.first = outs.front();
      c.last = outs.back();
      chains_.push_back(std::move(c));
    }
  }

  Outcome Run(const RunOptions& ro) override {
    Outcome out;
    for (const Chain& c : chains_) {
      out.attempted += 1;
      out.items += kCells * kWindow * 1e9;  // cell*ns
      sim::TransientOptions opts;
      opts.tstop = kWindow;
      opts.dc.newton.hierarchical = true;
      opts.dc.newton.hier_threads = ro.threads;
      util::StatusOr<sim::TransientResult> r = [&] {
        ScopedSpan span(ro.tracer, "sim.tran");
        return sim::RunTransient(c.nl, opts);
      }();
      if (!r.ok()) {
        out.Fail(util::StrPrintf("%.0f MHz: %s", c.frequency / 1e6,
                                 r.status().ToString().c_str()));
        continue;
      }
      if (unknowns_ == 0) unknowns_ = sim::MnaSystem(c.nl).num_unknowns();
      out.result_mb = std::max(out.result_mb, static_cast<double>(r->num_points()) *
                                                  unknowns_ * 8.0 / (1024.0 * 1024.0));
      ScopedSpan span(ro.tracer, "waveform.measure");
      Check(c, *r, ro.tamper == "swing", out);
    }
    return out;
  }

  double ParallelForCalls(const Counts& counts) const override {
    // HierSolver::AssembleAndSolve forks four times per Newton iteration.
    return 4.0 * static_cast<double>(counts.Get("sim.newton.iterations"));
  }

  Probes Probe(Tracer* tracer) override {
    Probes p;
    ScopedSpan span(tracer, "probe.hier_solve");
    p.hier_us = ProbeHierSolve(chains_.front().nl, nproc_);
    p.hier_us_1t = ProbeHierSolve(chains_.front().nl, 1);
    return p;
  }

 private:
  static void Check(const Chain& c, const sim::TransientResult& r, bool tamper,
                    Outcome& out) {
    const cml::CmlTechnology tech;
    const waveform::Trace last = r.Differential(c.last.p_name, c.last.n_name);
    double level = std::max(std::fabs(last.Max()), std::fabs(last.Min()));
    if (tamper) level *= 2.0;
    const size_t last_toggles = waveform::Crossings(last, 0.0).size();
    const std::vector<double> crossings = waveform::Crossings(
        r.Differential(c.first.p_name, c.first.n_name), 0.0);

    const double half_period = 0.5 / c.frequency;
    size_t sure = 0, possible = 0;
    for (double edge = 0.0; edge < kWindow; edge += half_period) {
      ++possible;
      if (edge + kEdgeToCrossing <= kWindow) ++sure;
    }
    std::string why;
    if (std::fabs(level - tech.swing) > kSwingTolerance * tech.swing) {
      why = util::StrPrintf("last-stage swing %.4f V vs nominal %.4f V", level,
                            tech.swing);
    } else if (last_toggles != 0) {
      why = util::StrPrintf("last stage toggled %zu times", last_toggles);
    } else if (crossings.size() < sure || crossings.size() > possible) {
      why = util::StrPrintf("first stage toggled %zu times, expected %zu-%zu",
                            crossings.size(), sure, possible);
    } else {
      for (size_t k = 0; k < sure; ++k) {
        const double edge = static_cast<double>(k) * half_period;
        if (crossings[k] < edge || crossings[k] > edge + kEdgeToCrossing) {
          why = util::StrPrintf("first-stage toggle %zu at %.4g s, clock edge %.4g s",
                                k, crossings[k], edge);
          break;
        }
      }
    }
    if (!why.empty()) {
      out.Fail(util::StrPrintf("%.0f MHz: %s", c.frequency / 1e6, why.c_str()));
    }
  }

  int nproc_;
  std::vector<double> frequencies_;
  std::vector<Chain> chains_;
  int unknowns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeHierChain(uint64_t seed, int nproc, const Paths&) {
  return std::make_unique<HierChain>(seed, nproc);
}

}  // namespace perfbench
