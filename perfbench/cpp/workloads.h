// The three reference workloads. Each draws its inputs from the seed,
// builds them in Setup(), and runs one checked iteration per Run() call
// through the library's public entry points. Seed 0 is the preset: it
// reproduces configurations that committed goldens check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench {

inline constexpr uint64_t kPresetSeed = 0;

struct Paths {
  std::string repo_root;  ///< checkout root; goldens are read from here
  std::string work_dir;   ///< scratch directory for stores and spans
};

/// One iteration's verdict.
struct Outcome {
  int attempted = 0;   ///< units run: defects, transients or points
  int failed = 0;      ///< units that errored or failed their check
  double items = 0.0;  ///< work done, for items_per_s
  /// Largest transient record held at once, in MiB (computed from the
  /// recorded points and unknowns; estimated from counts when the record
  /// never leaves the library).
  double result_mb = 0.0;
  std::vector<std::string> problems;  ///< first few failure messages

  void Fail(std::string why);
};

struct RunOptions {
  int threads = 1;
  Tracer* tracer = nullptr;
  /// Test hook: corrupt one result before it is checked ("" = off).
  std::string tamper;
};

/// Unit costs from probes.h, in microseconds; 0 where the layer is not on
/// the workload's path.
struct Probes {
  double assemble_us = 0.0;
  double factor_solve_us = 0.0;
  double hier_us = 0.0;     ///< at the workload's thread count
  double hier_us_1t = 0.0;  ///< at 1 thread
  double store_append_us = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Canonical text of the inputs drawn from the seed.
  virtual std::string DescribeInputs() const = 0;
  /// Threads of the workload's traced iterations (nproc or 1). Above 1,
  /// the traced run also measures scaling and thread-invariance of counts.
  virtual int threads() const = 0;
  /// Threads of its timed (end-to-end) iterations.
  virtual int timed_threads() const = 0;

  /// Build the inputs (netlists, defect universe, store directory).
  /// Repeated calls rebuild them from scratch.
  virtual void Setup(Tracer* tracer) = 0;
  /// Run one iteration and check its outputs.
  virtual Outcome Run(const RunOptions& options) = 0;
  /// util::ParallelFor calls one iteration made, derived from its counts.
  virtual double ParallelForCalls(const Counts& counts) const = 0;
  /// Unit-cost probes on this workload's own circuits.
  virtual Probes Probe(Tracer* tracer) = 0;
};

std::unique_ptr<Workload> MakeScreen(uint64_t seed, int nproc, const Paths& paths);
std::unique_ptr<Workload> MakeHierChain(uint64_t seed, int nproc, const Paths& paths);
std::unique_ptr<Workload> MakeDetectorSweep(uint64_t seed, int nproc,
                                            const Paths& paths);

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                       int nproc, const Paths& paths);

}  // namespace perfbench
