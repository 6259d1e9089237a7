// `detector_sweep`: fig08/fig10 detector characterization points run one
// after another on one thread, each making the calls
// bench::RunDetectorPoint makes: a 3-buffer chain with a C-E pipe on the
// middle (DUT) gate, one variant-1 or variant-2 detector on its output,
// one long transient, then trace extraction and MeasureDetectorResponse.
//
// An iteration is eight points: two for each of four slots (variant,
// load, window) taken from the figures. Seed: per slot, an offset d
// uniform in [0, 0.15) and a pipe p log-uniform over the figure's pipe
// range. The slot's two points run at fc(1+d) and fc(1-d); the faster one
// gets the weaker of p and p mirrored in log space. Step count grows with
// frequency and with pipe strength, so every seed does nearly the same
// work and keeps the largest transient record, which sets peak memory,
// nearly the same size. Preset: d = 0 and golden pipes.
// Check: on the preset seed each point's row matches its golden row
// within the golden's tolerances; on every seed each amplitude matches
// the golden amplitude-vs-pipe curve (interpolated in log pipe and log
// frequency) within the golden's amplitude tolerance, and the response
// is well-formed.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "bench/paper_bench.h"
#include "cml/builder.h"
#include "core/detector.h"
#include "defects/defect.h"
#include "probes.h"
#include "report/golden.h"
#include "report/json.h"
#include "report/report.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "util/strings.h"
#include "waveform/measure.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cmldft;

struct Slot {
  int variant;
  double load;
  double window;
  double center_hz;
  double pipe_lo, pipe_hi;
  double preset_pipes[2];
  const char* golden;  ///< golden/<name>.json holding this variant's table
  const char* table;
};

constexpr Slot kSlots[] = {
    {1, 10e-12, 2.0e-6, 100e6, 1e3, 3e3, {1e3, 1.5e3}, "fig08_v1_tstability",
     "v1_characterization"},
    {2, 10e-12, 1.0e-6, 100e6, 1e3, 5e3, {2e3, 3e3}, "fig10_v2_tstability",
     "v2_characterization"},
    {1, 1e-12, 0.3e-6, 500e6, 1e3, 3e3, {1e3, 2e3}, "fig08_v1_tstability",
     "v1_characterization"},
    {2, 1e-12, 0.25e-6, 500e6, 1e3, 5e3, {3e3, 5e3}, "fig10_v2_tstability",
     "v2_characterization"},
};
constexpr double kMaxOffset = 0.15;

struct Point {
  const Slot* slot = nullptr;
  double frequency = 0.0;
  double pipe = 0.0;
  // Built by Setup().
  netlist::Netlist nl;
  std::string dut_p, dut_n, vout;
  int unknowns = 0;
};

/// "1.5k" -> 1500.
double ParseEngineering(const std::string& text) {
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end != nullptr && *end == 'k') v *= 1e3;
  return v;
}

/// Linear interpolation of y over x (ascending), clamped at the ends.
double Interpolate(const std::vector<std::pair<double, double>>& xy, double x) {
  if (x <= xy.front().first) return xy.front().second;
  for (size_t i = 1; i < xy.size(); ++i) {
    if (x <= xy[i].first) {
      const double t = (x - xy[i - 1].first) / (xy[i].first - xy[i - 1].first);
      return xy[i - 1].second + t * (xy[i].second - xy[i - 1].second);
    }
  }
  return xy.back().second;
}

/// One golden characterization table: its JSON and the amplitude curve
/// per load.
struct GoldenTable {
  report::Json doc;    ///< the whole golden report
  report::Json table;  ///< the characterization table
  double amplitude_tol = 0.0;
  /// load text -> log(freq MHz) -> [(log pipe, amplitude)]
  std::map<std::string, std::map<double, std::vector<std::pair<double, double>>>>
      curves;

  double ExpectedAmplitude(const std::string& load, double freq_hz,
                           double pipe) const {
    std::vector<std::pair<double, double>> by_freq;
    for (const auto& [log_f, curve] : curves.at(load)) {
      by_freq.push_back({log_f, Interpolate(curve, std::log(pipe))});
    }
    return Interpolate(by_freq, std::log(freq_hz / 1e6));
  }
};

util::StatusOr<GoldenTable> LoadGolden(const std::string& path,
                                       const std::string& table_name) {
  auto doc = report::ReadJsonFile(path);
  if (!doc.ok()) return doc.status();
  GoldenTable g;
  g.doc = std::move(doc).value();
  const report::Json* tables = g.doc.Find("tables");
  for (size_t i = 0; tables != nullptr && i < tables->size(); ++i) {
    if (tables->at(i).GetString("name") == table_name) g.table = tables->at(i);
  }
  const report::Json* cols = g.table.Find("columns");
  const report::Json* rows = g.table.Find("rows");
  if (cols == nullptr || rows == nullptr || cols->size() < 4) {
    return util::Status::InvalidArgument(path + ": no table " + table_name);
  }
  const report::Json* tol = cols->at(3).Find("tol");
  g.amplitude_tol = tol != nullptr ? tol->GetNumber("value") : 0.0;
  for (size_t r = 0; r < rows->size(); ++r) {
    const report::Json& row = rows->at(r);
    auto& curve = g.curves[row.at(0).AsString()][std::log(row.at(2).AsNumber())];
    curve.push_back({std::log(ParseEngineering(row.at(1).AsString())),
                     row.at(3).AsNumber()});
  }
  for (auto& [load, by_freq] : g.curves) {
    for (auto& [f, curve] : by_freq) std::sort(curve.begin(), curve.end());
  }
  return g;
}

class DetectorSweep final : public Workload {
 public:
  DetectorSweep(uint64_t seed, const Paths& paths) : preset_(seed == kPresetSeed) {
    SeedStream rng(seed);
    for (const Slot& s : kSlots) {
      double offset = 0.0;
      double pipe = s.preset_pipes[0];
      double mirrored = s.preset_pipes[1];
      if (!preset_) {
        offset = rng.Uniform(0.0, kMaxOffset);
        const double p = std::round(rng.LogUniform(s.pipe_lo, s.pipe_hi));
        const double q = std::round(s.pipe_lo * s.pipe_hi / p);
        pipe = std::max(p, q);
        mirrored = std::min(p, q);
      }
      AddPoint(s, s.center_hz * (1.0 + offset), pipe);
      AddPoint(s, s.center_hz * (1.0 - offset), mirrored);
    }
    for (const Slot& s : kSlots) {
      if (goldens_.count(s.golden) != 0) continue;
      auto g = LoadGolden(paths.repo_root + "/golden/" + s.golden + ".json", s.table);
      if (g.ok()) {
        goldens_.emplace(s.golden, std::move(g).value());
      } else {
        golden_error_ = g.status().ToString();
      }
    }
  }

  std::string DescribeInputs() const override {
    std::string out = "detector_sweep points=";
    for (const Point& p : points_) {
      out += util::StrPrintf("v%d/%gF/%gs/%.17gHz/%.0fohm;", p.slot->variant,
                             p.slot->load, p.slot->window, p.frequency, p.pipe);
    }
    return out;
  }

  int threads() const override { return 1; }
  int timed_threads() const override { return 1; }

  void Setup(Tracer* tracer) override {
    ScopedSpan span(tracer, "cml.build_points");
    for (Point& p : points_) {
      netlist::Netlist nl;
      cml::CmlTechnology tech;
      cml::CellBuilder cells(nl, tech);
      const cml::DiffPort in = cells.AddDifferentialClock("va", p.frequency);
      const cml::DiffPort o0 = cells.AddBuffer("x0", in);
      const cml::DiffPort dut = cells.AddBuffer("dut", o0);
      cells.AddBuffer("x1", dut);
      core::DetectorOptions dopt;
      dopt.load_cap = p.slot->load;
      core::DetectorBuilder det(cells, dopt);
      p.vout = p.slot->variant == 1 ? det.AttachVariant1("det", dut)
                                    : det.AttachVariant2("det", dut);
      auto faulty = defects::WithDefect(nl, bench::DutPipe(p.pipe));
      p.nl = faulty.ok() ? std::move(faulty).value() : std::move(nl);
      if (p.slot->variant == 2) {
        (void)core::SetTestMode(p.nl, true, dopt.vtest_test_mode, tech.vgnd);
      }
      p.dut_p = dut.p_name;
      p.dut_n = dut.n_name;
    }
  }

  Outcome Run(const RunOptions& ro) override {
    Outcome out;
    const cml::CmlTechnology tech;
    for (size_t i = 0; i < points_.size(); ++i) {
      Point& p = points_[i];
      out.attempted += 1;
      out.items += 1.0;
      const double window = p.slot->window;
      sim::TransientOptions opts;
      opts.tstop = window;
      opts.dt_max = std::min(1e-10, 0.05 / p.frequency);
      util::StatusOr<sim::TransientResult> r = [&] {
        ScopedSpan span(ro.tracer, "sim.tran");
        return sim::RunTransient(p.nl, opts);
      }();
      if (!r.ok()) {
        out.Fail(Label(p) + ": " + r.status().ToString());
        continue;
      }
      if (p.unknowns == 0) p.unknowns = sim::MnaSystem(p.nl).num_unknowns();
      out.result_mb = std::max(out.result_mb, static_cast<double>(r->num_points()) *
                                                  p.unknowns * 8.0 / (1024.0 * 1024.0));
      bench::DetectorPoint pt;
      {
        ScopedSpan span(ro.tracer, "waveform.measure");
        pt.frequency = p.frequency;
        pt.pipe = p.pipe;
        const waveform::Trace diff =
            r->Differential(p.dut_p, p.dut_n).Window(window * 0.25, window);
        pt.amplitude = std::max(std::abs(diff.Max()), std::abs(diff.Min()));
        const waveform::Trace vout = r->Voltage(p.vout);
        pt.response = waveform::MeasureDetectorResponse(vout);
        pt.fired = vout.Min() < tech.vgnd - 0.1;
      }
      if (ro.tamper == "amplitude" && i == 0) pt.amplitude += 0.2;
      ScopedSpan span(ro.tracer, "check");
      const std::string why = Check(p, pt);
      if (!why.empty()) out.Fail(Label(p) + ": " + why);
    }
    return out;
  }

  double ParallelForCalls(const Counts&) const override { return 0.0; }

  Probes Probe(Tracer* tracer) override {
    Probes p;
    ScopedSpan span(tracer, "probe.dense_solve");
    const DenseProbe dense = ProbeDenseSolve(points_.front().nl);
    p.assemble_us = dense.assemble_us;
    p.factor_solve_us = dense.factor_solve_us;
    return p;
  }

 private:
  void AddPoint(const Slot& slot, double frequency, double pipe) {
    Point p;
    p.slot = &slot;
    p.frequency = frequency;
    p.pipe = pipe;
    points_.push_back(std::move(p));
  }

  static std::string Label(const Point& p) {
    return util::StrPrintf("v%d %s %s %.0f MHz", p.slot->variant,
                           util::FormatEngineering(p.slot->load, "F").c_str(),
                           util::FormatEngineering(p.pipe).c_str(),
                           p.frequency / 1e6);
  }

  std::string Check(const Point& p, const bench::DetectorPoint& pt) const {
    if (!golden_error_.empty()) return "golden: " + golden_error_;
    const GoldenTable& g = goldens_.at(p.slot->golden);
    const std::string load = util::FormatEngineering(p.slot->load, "F");
    const waveform::DetectorResponse& resp = pt.response;
    if (!std::isfinite(pt.amplitude) || !std::isfinite(resp.vmax) ||
        !std::isfinite(resp.vmin) || resp.vmin > resp.vmax ||
        resp.t_stability < 0.0 || resp.t_stability > p.slot->window) {
      return util::StrPrintf("malformed response (tstability %g s, vmin %g V, "
                             "vmax %g V)",
                             resp.t_stability, resp.vmin, resp.vmax);
    }
    const double expected = g.ExpectedAmplitude(load, p.frequency, p.pipe);
    if (std::fabs(pt.amplitude - expected) > g.amplitude_tol) {
      return util::StrPrintf("amplitude %.4f V, golden curve %.4f V +- %.3f",
                             pt.amplitude, expected, g.amplitude_tol);
    }
    if (!preset_) return "";
    // Preset: the full golden row, compared by the golden checker itself.
    report::Table table(g.table.GetString("name"), bench::DetectorPointColumns());
    bench::AddDetectorPointRow(table, p.slot->load, p.pipe, pt);
    const report::Json actual_table = table.ToJson();
    const report::Json& arow = actual_table.Find("rows")->at(0);
    const report::Json* grows = g.table.Find("rows");
    for (size_t r = 0; r < grows->size(); ++r) {
      const report::Json& grow = grows->at(r);
      if (grow.at(0).AsString() != arow.at(0).AsString() ||
          grow.at(1).AsString() != arow.at(1).AsString() ||
          grow.at(2).AsNumber() != arow.at(2).AsNumber()) {
        continue;
      }
      const report::GoldenDiff diff = report::CompareReports(
          OneRowReport(g.doc, actual_table, arow), OneRowReport(g.doc, g.table, grow));
      return diff.ok() ? "" : diff.mismatches.front();
    }
    return "no golden row for " + arow.Dump(0);
  }

  /// A report holding just `row` of `table`, titled like `golden_doc`.
  static report::Json OneRowReport(const report::Json& golden_doc,
                                   const report::Json& table,
                                   const report::Json& row) {
    report::Json t = report::Json::Object();
    t.Set("name", report::Json::Str(table.GetString("name")));
    t.Set("columns", *table.Find("columns"));
    report::Json rows = report::Json::Array();
    rows.Append(row);
    t.Set("rows", std::move(rows));
    report::Json tables = report::Json::Array();
    tables.Append(std::move(t));
    report::Json doc = report::Json::Object();
    doc.Set("experiment", report::Json::Str(golden_doc.GetString("experiment")));
    doc.Set("tables", std::move(tables));
    return doc;
  }

  bool preset_;
  std::vector<Point> points_;
  std::map<std::string, GoldenTable> goldens_;
  std::string golden_error_;
};

}  // namespace

std::unique_ptr<Workload> MakeDetectorSweep(uint64_t seed, int, const Paths& paths) {
  return std::make_unique<DetectorSweep>(seed, paths);
}

}  // namespace perfbench
