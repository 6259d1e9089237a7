// Durable, resumable execution of one campaign shard — for every payload
// in the table (payload.h):
//
//   1. Plan: unit count and fingerprint (no simulation).
//   2. If the store file exists: scan it, refuse a fingerprint/shard/size
//      mismatch, truncate a torn tail record, and collect the unit ids
//      already completed. Otherwise create the store.
//   3. Prepare (screening simulates the fault-free reference once), then
//      append the singleton record — or, on resume, require the stored one
//      to be bit-identical to it.
//   4. Evaluate the shard's pending units in parallel, appending each as a
//      CRC-framed record, fsync'd in batches.
//
// `kill -9` at any instant leaves a valid store prefix; rerunning the
// same command line resumes where the file ends. After all shards
// complete, merge.h reassembles the exact monolithic result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/codec.h"
#include "campaign/payload.h"
#include "campaign/planner.h"
#include "core/screening.h"
#include "util/status.h"

namespace cmldft::campaign {

struct RunOptions {
  ShardPlan shard;
  /// Path of this shard's `.campaign` result store.
  std::string store_path;
  /// Worker threads for unit evaluation (0 = auto, see util/parallel.h).
  int threads = 0;
  /// fsync after this many appended records (and always on completion).
  int fsync_batch = 8;
  /// Crash injection for tests/CI: SIGKILL this process the moment the
  /// store would exceed this many bytes (0 = off). See util::AppendFile.
  uint64_t abort_at_bytes = 0;
  /// Print a rate-limited units-done/ETA line to stderr (campaign_run
  /// --progress). Never affects stores or reports.
  bool progress = false;
};

struct CampaignRunStats {
  uint64_t total_units = 0;    ///< universe size under these options
  uint64_t shard_units = 0;    ///< units belonging to this shard
  uint64_t resumed_skips = 0;  ///< shard units already complete in the store
  uint64_t executed = 0;       ///< units evaluated by this run
  bool resumed = false;             ///< store existed before this run
  bool torn_tail_recovered = false; ///< a torn tail record was truncated
};

/// Run (or resume) one shard of `plan`. The store at `options.store_path`
/// is created if absent; an existing store must match the plan's
/// fingerprint/shard/universe or the run is refused.
util::StatusOr<CampaignRunStats> RunShard(const PayloadPlan& plan,
                                          const RunOptions& options);

/// The records a service worker streams back for the leased `ids`: the
/// singleton first, then one record per id, in `ids` order. Evaluated
/// through the same prepare/evaluate and parallel loop as RunShard.
util::StatusOr<std::vector<std::string>> EvaluateLease(
    const PayloadPlan& plan, const std::vector<uint64_t>& ids, int threads);

// ---- Screening entry point ----

/// RunOptions for a typed screening configuration; the remaining fields
/// mean what they mean there.
struct CampaignOptions {
  /// `screening.threads` sets the evaluation threads.
  core::ScreeningOptions screening;
  ShardPlan shard;
  std::string store_path;
  int fsync_batch = 8;
  uint64_t abort_at_bytes = 0;
  bool progress = false;
};

/// RunShard over PlanScreening(options.screening).
util::StatusOr<CampaignRunStats> RunScreeningCampaign(
    const CampaignOptions& options);

/// Named ScreeningOptions presets shared by the campaign tools, the
/// benches and `cmldft_cli screen`:
///   "coverage_comparison" — exactly the bench/coverage_comparison.cc
///       configuration, so a merged campaign reproduces its golden.
///   "quick" — a small 2-stage universe for CI smoke and local iteration.
util::StatusOr<core::ScreeningOptions> ScreeningPreset(std::string_view name);

}  // namespace cmldft::campaign
