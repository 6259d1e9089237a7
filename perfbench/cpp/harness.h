// Measurement plumbing shared by the workloads: host provenance, clocks,
// resource usage, in-memory spans and telemetry deltas. Everything here
// observes the library from outside; nothing is compiled into it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/telemetry.h"

namespace perfbench {

/// What a measurement was taken on. Stamped into every output so numbers
/// from different host classes or build types are never compared blind.
struct Host {
  int nproc = 1;            ///< CPUs this process may run on
  std::string cpu_model;    ///< /proc/cpuinfo "model name"
  std::string build_type;   ///< CMAKE_BUILD_TYPE of this binary
  bool assertions = false;  ///< true when NDEBUG was not defined

  /// One line: nproc, CPU model, build type, assertion state.
  std::string Stamp() const;
};
Host DetectHost();

double NowSeconds();          ///< steady_clock
double ProcessCpuSeconds();   ///< getrusage(RUSAGE_SELF) user + sys
double PeakRssMiB();          ///< getrusage(RUSAGE_SELF) ru_maxrss

double Median(std::vector<double> values);

/// Spans recorded around the benchmark's calls into each library layer.
/// Kept in memory; written once when the run ends. Untraced runs pass a
/// null tracer, so they pay one branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     ///< index into spans(), -1 for a root span
  };

  Tracer();

  /// Open a span as a child of the innermost open one; returns its id.
  int Begin(std::string name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span called `name` among spans()[first, last).
  double Total(std::string_view name, size_t first = 0,
               size_t last = SIZE_MAX) const;

  /// JSON document: the host stamp, then every span.
  std::string ToJson(const Host& host) const;
  /// Per-name count / total / self time, widest total first.
  std::string SummaryTable() const;

 private:
  double ChildTime(size_t index) const;

  double origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Difference of two telemetry snapshots: counters by value, timers by
/// accumulated seconds.
struct Counts {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> timer_seconds;

  uint64_t Get(std::string_view name) const;
  double Seconds(std::string_view name) const;
};
Counts Delta(const cmldft::util::telemetry::Snapshot& before,
             const cmldft::util::telemetry::Snapshot& after);

/// Names of counters whose deltas differ between `a` and `b`, each with
/// both values ("name a!=b"). Timers are wall-clock and never compared.
std::vector<std::string> CountMismatches(const Counts& a, const Counts& b);

/// 64-bit FNV-1a; digests of generated inputs.
uint64_t Fnv1a(std::string_view text);

/// Deterministic generator for workload inputs (splitmix64). Owned by the
/// benchmark rather than borrowed from the library, so a change to the
/// library's own RNG can never change what the benchmark feeds it.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Log-uniform in [lo, hi).
  double LogUniform(double lo, double hi);

 private:
  uint64_t state_;
};

}  // namespace perfbench
