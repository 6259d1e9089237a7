// perfbench: end-to-end and per-layer benchmark of the cmldft library.
//
//   perfbench --workload <screen|hier_chain|detector_sweep> --seed <n>
//             --seconds <s> --trace <0|1> --repo-root <dir> --work-dir <dir>
//             [--tamper <flip|swing|amplitude>] [--inputs-only]
//
// --trace 0 runs checked iterations until --seconds have passed and
// reports the median iteration. Before each iteration it times a few
// blocks of repeated input builds; setup_s is the mean over iterations of
// the median block's time per build. --trace 1 runs a fixed sequence
// instead (see TracedRun): traced and untraced iterations at the
// workload's thread count (nproc for screen and hier_chain), one traced
// iteration at 1 thread for those two, then the unit-cost probes. It
// reports the per-layer metrics, flags telemetry counts that differ
// between repeats or thread counts as findings, and writes the spans to
// <work-dir>/spans-<workload>-seed<n>.json.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status is 0 only when every unit passed its check, 1 when
// some did not, 2 on a usage or environment error (no JSON then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace perfbench {

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                       int nproc, const Paths& paths) {
  if (name == "screen") return MakeScreen(seed, nproc, paths);
  if (name == "hier_chain") return MakeHierChain(seed, nproc, paths);
  if (name == "detector_sweep") return MakeDetectorSweep(seed, nproc, paths);
  return nullptr;
}

void Outcome::Fail(std::string why) {
  failed += 1;
  if (problems.size() < 10) problems.push_back(std::move(why));
}

namespace {

using cmldft::util::StrPrintf;
namespace tel = cmldft::util::telemetry;

// setup_s: builds are timed in blocks of at least kSetupBlockSeconds, so
// sub-millisecond builds are not lost in timer and scheduler jitter.
// kSetupBlocksPerIteration blocks run before every iteration, and their
// median is that iteration's sample. The host switches between a fast and
// a slow speed for seconds at a time, and a sample sees one of the two; the
// mean of the samples follows the share of slow time over the run, where
// their median would jump between the two speeds from run to run.
constexpr double kSetupBlockSeconds = 0.02;
constexpr int kSetupBlocksPerIteration = 5;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;

  void Add(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& p : o.problems) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
    }
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Timed {
  Outcome outcome;
  double wall = 0.0;
  double cpu = 0.0;
};

Timed RunOnce(Workload& w, const RunOptions& ro) {
  Timed t;
  const double c0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  t.outcome = w.Run(ro);
  t.wall = NowSeconds() - t0;
  t.cpu = ProcessCpuSeconds() - c0;
  return t;
}

/// --trace 0: the end-to-end metrics.
Result TimedRun(Workload& w, double seconds, const std::string& tamper) {
  Result res;
  double t0 = NowSeconds();
  w.Setup(nullptr);
  const int per_block = static_cast<int>(
      std::ceil(kSetupBlockSeconds / std::max(NowSeconds() - t0, 1e-6)));
  RunOptions ro;
  ro.threads = w.timed_threads();
  ro.tamper = tamper;
  std::vector<double> setups, walls, cpus;
  double items = 0.0;
  const double start = NowSeconds();
  do {
    std::vector<double> blocks;
    for (int b = 0; b < kSetupBlocksPerIteration; ++b) {
      t0 = NowSeconds();
      for (int i = 0; i < per_block; ++i) w.Setup(nullptr);
      blocks.push_back((NowSeconds() - t0) / per_block);
    }
    setups.push_back(Median(blocks));
    const Timed t = RunOnce(w, ro);
    res.Add(t.outcome);
    walls.push_back(t.wall);
    cpus.push_back(t.cpu);
    items = t.outcome.items;
  } while (NowSeconds() - start < seconds);
  const double wall = Median(walls);
  std::fprintf(stderr, "perfbench: %zu iterations, walls:", walls.size());
  for (double x : walls) std::fprintf(stderr, " %.3f", x);
  std::fprintf(stderr, "\n");
  res.metrics = {
      {"wall_s", wall, "s"},
      {"items_per_s", Ratio(items, wall), "1/s"},
      {"cpu_s", Median(cpus), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"setup_s", std::accumulate(setups.begin(), setups.end(), 0.0) / setups.size(),
       "s"},
  };
  return res;
}

/// --trace 1: the per-layer metrics.
Result TracedRun(Workload& w, const Host& host, const std::string& tamper,
                 const std::string& spans_path) {
  Result res;
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "setup");
    w.Setup(&tracer);
  }
  // Iteration order: traced A, untraced U, traced B, and for multi-threaded
  // workloads traced C at 1 thread. A absorbs the cold start, so B and U
  // are both warm: B gives the per-layer metrics, B - U the tracing
  // overhead, C / B the thread scaling. A's, B's and C's telemetry counts
  // must all agree.
  RunOptions ro;
  ro.threads = w.threads();
  ro.tamper = tamper;
  struct Traced {
    Timed timed;
    Counts counts;
    size_t first_span = 0, last_span = 0;
  };
  auto traced_iteration = [&](int threads) {
    RunOptions traced = ro;
    traced.threads = threads;
    traced.tracer = &tracer;
    Traced t;
    t.first_span = tracer.spans().size();
    const tel::Snapshot before = tel::Capture();
    {
      ScopedSpan span(&tracer, "iteration");
      t.timed = RunOnce(w, traced);
    }
    t.counts = Delta(before, tel::Capture());
    t.last_span = tracer.spans().size();
    res.Add(t.timed.outcome);
    return t;
  };
  const Traced first = traced_iteration(w.threads());
  const Timed untraced = RunOnce(w, ro);
  res.Add(untraced.outcome);
  const Traced main = traced_iteration(w.threads());
  std::vector<std::string> mismatches;
  for (const std::string& m : CountMismatches(first.counts, main.counts)) {
    mismatches.push_back("repeat: " + m);
  }
  double wall_1t = main.timed.wall;
  if (w.threads() > 1) {
    const Traced one = traced_iteration(1);
    wall_1t = one.timed.wall;
    for (const std::string& m : CountMismatches(main.counts, one.counts)) {
      mismatches.push_back(StrPrintf("%d vs 1 threads: ", w.threads()) + m);
    }
  }
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "perfbench: FINDING telemetry count mismatch %s\n",
                 m.c_str());
  }
  std::fprintf(stderr, "perfbench: telemetry count mismatches: %zu\n",
               mismatches.size());

  double fork_join_us = 0.0;
  {
    ScopedSpan span(&tracer, "probe.fork_join");
    fork_join_us = ForkJoinUs(w.threads());
  }
  const Probes probes = w.Probe(&tracer);

  const Counts& counts = main.counts;
  const double wall = main.timed.wall;
  auto span_total = [&](const char* name) {
    return tracer.Total(name, main.first_span, main.last_span);
  };
  const double thread_time = wall * w.threads();
  const double iterations = static_cast<double>(counts.Get("sim.newton.iterations"));
  const double accepted = static_cast<double>(counts.Get("sim.tran.accepted_steps"));
  const double rejected = static_cast<double>(counts.Get("sim.tran.rejected_steps"));
  const double dense_factors = static_cast<double>(counts.Get("linalg.dense_lu.factors"));
  const double shares = static_cast<double>(counts.Get("sim.hier.schur_factor_shares"));
  const double cell_refactors = static_cast<double>(counts.Get("sim.hier.cell_refactors"));
  res.metrics = {
      {"util.parallel.fork_join_us", fork_join_us, "us"},
      {"util.parallel.fork_join_share",
       Ratio(fork_join_us * 1e-6 * w.ParallelForCalls(counts), wall), "ratio"},
      {"util.parallel.scaling", Ratio(wall_1t, wall), "ratio"},
      {"sim.newton.iterations", iterations, "count"},
      {"sim.newton.iters_per_step", Ratio(iterations, accepted), "ratio"},
      {"sim.tran.accepted_steps", accepted, "count"},
      {"sim.tran.reject_ratio", Ratio(rejected, accepted + rejected), "ratio"},
      {"sim.tran.us_per_step", Ratio(wall * 1e6, accepted), "us"},
      {"sim.tran.busy_s", counts.Seconds("sim.tran.wall"), "s"},
      {"sim.dc.busy_s", counts.Seconds("sim.dc.wall"), "s"},
      {"sim.dc.solves", static_cast<double>(counts.Get("sim.dc.solves")), "count"},
      {"sim.dc.gmin_stages", static_cast<double>(counts.Get("sim.dc.gmin_stages")),
       "count"},
      {"sim.mna.assemble_us", probes.assemble_us, "us"},
      {"sim.mna.assemble_share",
       Ratio(probes.assemble_us * 1e-6 * iterations, thread_time), "ratio"},
      {"linalg.dense_lu.factors", dense_factors, "count"},
      {"linalg.dense_lu.factor_solve_us", probes.factor_solve_us, "us"},
      {"linalg.dense_lu.share",
       Ratio(probes.factor_solve_us * 1e-6 * dense_factors, thread_time), "ratio"},
      {"linalg.sparse_lu.refactors",
       static_cast<double>(counts.Get("linalg.sparse_lu.refactors")), "count"},
      {"sim.hier.assemble_solve_us", probes.hier_us, "us"},
      {"sim.hier.assemble_solve_us_1t", probes.hier_us_1t, "us"},
      {"sim.hier.share_ratio", Ratio(shares, shares + cell_refactors), "ratio"},
      {"sim.hier.cell_refactors", cell_refactors, "count"},
      {"core.screening.enumerate_s", tracer.Total("core.screening.enumerate"), "s"},
      {"campaign.run_s", span_total("campaign.run"), "s"},
      {"campaign.merge_s", span_total("campaign.merge"), "s"},
      {"campaign.records_written",
       static_cast<double>(counts.Get("campaign.records_written")), "count"},
      {"campaign.store.append_us", probes.store_append_us, "us"},
      {"waveform.measure_s", span_total("waveform.measure"), "s"},
      {"sim.tran.result_mb", main.timed.outcome.result_mb, "MiB"},
      {"trace.wall_s", wall, "s"},
      {"trace.wall_1t_s", wall_1t, "s"},
      {"trace.overhead_s", wall - untraced.wall, "s"},
  };

  std::fprintf(stderr, "%s", tracer.SummaryTable().c_str());
  std::ofstream(spans_path) << tracer.ToJson(host);
  return res;
}

void PrintResult(const Result& res) {
  for (const Metric& m : res.metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %.6g ratio (%d of %d units)\n", "failed_ratio",
              Ratio(res.failed, res.attempted), res.failed, res.attempted);
  std::string json = StrPrintf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
      res.failed == 0 && res.attempted > 0 ? "true" : "false", res.attempted,
      res.failed);
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    json += StrPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<screen|hier_chain|detector_sweep> --seed <n> --seconds <s> "
               "--trace <0|1> --repo-root <dir> --work-dir <dir> "
               "[--tamper <flip|swing|amplitude>] [--inputs-only]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, repo_root, work_dir, tamper;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  bool inputs_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inputs-only") {
      inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--repo-root") {
      repo_root = value;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--tamper") {
      tamper = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (repo_root.empty() || work_dir.empty()) {
    return Usage("--repo-root and --work-dir are required");
  }

  const Host host = DetectHost();
  if (host.assertions) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a build with assertions enabled "
                 "(%s); build with -DCMAKE_BUILD_TYPE=Release.\n",
                 host.Stamp().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  const Paths paths{repo_root, work_dir};
  std::unique_ptr<Workload> w = MakeWorkload(workload, seed, host.nproc, paths);
  if (w == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());

  const std::string inputs = w->DescribeInputs();
  const std::string threads =
      trace == 0 ? std::to_string(w->timed_threads())
                 : std::to_string(w->threads()) + (w->threads() > 1 ? ",1" : "");
  std::printf("# perfbench workload=%s seed=%llu trace=%d threads=%s %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed), trace,
              threads.c_str(), host.Stamp().c_str());
  std::printf("# inputs digest=%016llx %s\n",
              static_cast<unsigned long long>(Fnv1a(inputs)), inputs.c_str());
  std::fflush(stdout);
  if (inputs_only) return 0;

  const Result res =
      trace != 0
          ? TracedRun(*w, host, tamper,
                      StrPrintf("%s/spans-%s-seed%llu.json", work_dir.c_str(),
                                workload.c_str(),
                                static_cast<unsigned long long>(seed)))
          : TimedRun(*w, seconds, tamper);
  PrintResult(res);
  return res.failed == 0 && res.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
