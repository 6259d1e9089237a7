// `screen`: the coverage_comparison defect universe (3-buffer chain,
// 111 defects, 50 ns windows) run as a durable one-shard campaign into a
// fresh store, then merged — the default screening path.
//
// Seed: the four pipe resistances, log-uniform in 1-10 kOhm (rounded to
// whole ohms so defect ids stay distinct). Preset: {1, 2, 4, 8} kOhm.
// Check: every unit present exactly once in universe order; no unit
// unresolved; every defect the golden knows (all but the seed's pipes)
// keeps its golden class; on the preset seed the whole merged report
// matches golden/coverage_comparison.json.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>

#include "bench/paper_bench.h"
#include "campaign/merge.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "core/detector.h"
#include "core/screening.h"
#include "probes.h"
#include "report/golden.h"
#include "report/json.h"
#include "report/report.h"
#include "sim/mna.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cmldft;
namespace fs = std::filesystem;

/// The fault-free instrumented chain ScreenBufferChain simulates (built
/// from the same public builders), for probes and record-size estimates.
netlist::Netlist InstrumentedChain(const core::ScreeningOptions& opt) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialClock("va", opt.frequency);
  const auto outs = cells.AddBufferChain("x", in, opt.chain_length);
  core::DetectorBuilder det(cells, opt.detector);
  for (int i = 0; i < opt.chain_length; ++i) {
    det.AttachVariant2(util::StrPrintf("det%d", i), outs[static_cast<size_t>(i)]);
  }
  (void)core::SetTestMode(nl, true, opt.detector.vtest_test_mode, tech.vgnd);
  return nl;
}

class Screen final : public Workload {
 public:
  Screen(uint64_t seed, int nproc, const Paths& paths)
      : preset_(seed == kPresetSeed),
        nproc_(nproc),
        dir_(paths.work_dir + "/screen") {
    options_ = campaign::ScreeningPreset("coverage_comparison").value();
    if (!preset_) {
      SeedStream rng(seed);
      std::vector<double> pipes;
      while (pipes.size() < 4) {
        const double r = std::round(rng.LogUniform(1e3, 10e3));
        if (std::find(pipes.begin(), pipes.end(), r) == pipes.end()) {
          pipes.push_back(r);
        }
      }
      std::sort(pipes.begin(), pipes.end());
      options_.enumeration.pipe_values = pipes;
    }
    auto golden =
        report::ReadJsonFile(paths.repo_root + "/golden/coverage_comparison.json");
    if (golden.ok()) {
      golden_ = std::move(golden).value();
      LoadGoldenClasses();
    } else {
      golden_error_ = golden.status().ToString();
    }
  }

  std::string DescribeInputs() const override {
    std::string pipes;
    for (double p : options_.enumeration.pipe_values) {
      pipes += util::StrPrintf("%s%.0f", pipes.empty() ? "" : ",", p);
    }
    return util::StrPrintf("screen pipes_ohm=%s chain=%d sim_time=%g",
                           pipes.c_str(), options_.chain_length,
                           options_.sim_time);
  }

  int threads() const override { return nproc_; }
  int timed_threads() const override { return nproc_; }

  void Setup(Tracer* tracer) override {
    {
      ScopedSpan span(tracer, "core.screening.enumerate");
      universe_ids_.clear();
      for (const defects::Defect& d : core::ScreeningUniverse(options_)) {
        universe_ids_.push_back(d.Id());
      }
    }
    ScopedSpan span(tracer, "campaign.store_dir");
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_, ec);
    last_store_.clear();
  }

  Outcome Run(const RunOptions& ro) override {
    Outcome out;
    out.attempted = static_cast<int>(universe_ids_.size());
    out.items = static_cast<double>(universe_ids_.size());
    const std::string store =
        util::StrPrintf("%s/run-%d.campaign", dir_.c_str(), run_index_++);
    campaign::CampaignOptions copts;
    copts.screening = options_;
    copts.screening.threads = ro.threads;
    copts.store_path = store;
    fsync_batch_ = copts.fsync_batch;

    const auto before = util::telemetry::Capture();
    util::StatusOr<campaign::CampaignRunStats> stats = [&] {
      ScopedSpan span(ro.tracer, "campaign.run");
      return campaign::RunScreeningCampaign(copts);
    }();
    const Counts counts = Delta(before, util::telemetry::Capture());
    std::error_code ec;
    if (!last_store_.empty()) fs::remove(last_store_, ec);
    last_store_ = store;
    if (!stats.ok()) {
      FailAll(out, "campaign: " + stats.status().ToString());
      return out;
    }
    util::StatusOr<campaign::MergeResult> merged = [&] {
      ScopedSpan span(ro.tracer, "campaign.merge");
      return campaign::MergeCampaignStores({store});
    }();
    if (!merged.ok()) {
      FailAll(out, "merge: " + merged.status().ToString());
      return out;
    }
    if (ro.tamper == "flip") Flip(merged->report);
    {
      ScopedSpan span(ro.tracer, "check");
      Check(merged->report, out);
    }
    const double runs = static_cast<double>(counts.Get("sim.tran.runs"));
    if (runs > 0) {
      const double points =
          static_cast<double>(counts.Get("sim.tran.accepted_steps")) / runs + 1.0;
      out.result_mb = points * Unknowns() * 8.0 / (1024.0 * 1024.0);
    }
    return out;
  }

  double ParallelForCalls(const Counts&) const override {
    return 1.0;  // ScreenBufferChain's defect sweep; no hier solves
  }

  Probes Probe(Tracer* tracer) override {
    Probes p;
    {
      ScopedSpan span(tracer, "probe.dense_solve");
      const DenseProbe dense = ProbeDenseSolve(InstrumentedChain(options_));
      p.assemble_us = dense.assemble_us;
      p.factor_solve_us = dense.factor_solve_us;
    }
    ScopedSpan span(tracer, "probe.store_append");
    auto scan = campaign::ScanStore(last_store_);
    if (scan.ok()) {
      p.store_append_us =
          ProbeStoreAppend(scan->records, dir_ + "/probe.campaign", fsync_batch_);
    }
    return p;
  }

 private:
  void LoadGoldenClasses() {
    const report::Json* tables = golden_.Find("tables");
    for (size_t t = 0; tables != nullptr && t < tables->size(); ++t) {
      const report::Json& table = tables->at(t);
      if (table.GetString("name") != "per_defect") continue;
      const report::Json* rows = table.Find("rows");
      for (size_t r = 0; rows != nullptr && r < rows->size(); ++r) {
        const report::Json& row = rows->at(r);
        if (row.size() >= 2) {
          golden_class_[row.at(0).AsString()] = row.at(1).AsString();
        }
      }
    }
  }

  static void FailAll(Outcome& out, const std::string& why) {
    out.Fail(why);
    out.failed = out.attempted;
  }

  /// Test hook: flip one golden-known defect's logic verdict, which always
  /// changes its class.
  void Flip(core::ScreeningReport& report) const {
    for (core::DefectOutcome& o : report.outcomes) {
      if (o.converged && golden_class_.count(o.defect.Id()) != 0) {
        o.logic_fail = !o.logic_fail;
        return;
      }
    }
  }

  void Check(const core::ScreeningReport& report, Outcome& out) const {
    if (!golden_error_.empty()) {
      FailAll(out, "golden: " + golden_error_);
      return;
    }
    if (report.outcomes.size() != universe_ids_.size()) {
      FailAll(out, util::StrPrintf("merged %zu units, universe has %zu",
                                   report.outcomes.size(), universe_ids_.size()));
      return;
    }
    std::set<std::string> seen;
    for (size_t i = 0; i < report.outcomes.size(); ++i) {
      const core::DefectOutcome& o = report.outcomes[i];
      const std::string id = o.defect.Id();
      const core::FaultClass cls = o.Classify();
      const auto golden = golden_class_.find(id);
      if (id != universe_ids_[i] || !seen.insert(id).second) {
        out.Fail(util::StrPrintf("unit %zu: %s out of place or repeated", i,
                                 id.c_str()));
      } else if (cls == core::FaultClass::kUnresolved) {
        out.Fail(id + ": unresolved: " + o.error);
      } else if (golden != golden_class_.end() &&
                 golden->second != core::FaultClassName(cls)) {
        out.Fail(id + ": class " + std::string(core::FaultClassName(cls)) +
                 " != golden " + golden->second);
      } else if (preset_ && golden == golden_class_.end()) {
        out.Fail(id + ": not in golden");
      }
    }
    if (!preset_) return;
    report::Report rep(bench::kCoverageComparisonExperiment,
                       bench::kCoverageComparisonPaperRef,
                       bench::kCoverageComparisonSummary);
    bench::FillCoverageComparisonReport(report, options_, rep);
    const report::GoldenDiff diff = report::CompareReports(rep.ToJson(), golden_);
    if (!diff.ok() && out.failed == 0) {
      out.Fail("report vs golden: " + diff.mismatches.front());
    }
  }

  double Unknowns() {
    if (unknowns_ == 0) {
      const netlist::Netlist nl = InstrumentedChain(options_);
      unknowns_ = sim::MnaSystem(nl).num_unknowns();
    }
    return unknowns_;
  }

  bool preset_;
  int nproc_;
  std::string dir_;
  core::ScreeningOptions options_;
  report::Json golden_;
  std::string golden_error_;
  std::map<std::string, std::string> golden_class_;
  std::vector<std::string> universe_ids_;
  std::string last_store_;
  int run_index_ = 0;
  int fsync_batch_ = 0;  ///< the campaign's, for the append probe
  int unknowns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeScreen(uint64_t seed, int nproc, const Paths& paths) {
  return std::make_unique<Screen>(seed, nproc, paths);
}

}  // namespace perfbench
