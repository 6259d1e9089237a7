// Run (or resume) one shard of a durable campaign.
//
//   campaign_run --store <path.campaign> [--shard i/N] [--preset NAME]
//                [--resume] [--overwrite] [--threads N] [--fsync-batch N]
//                [--telemetry <path.json>] [--abort-after-bytes N]
//
// The store is an append-only, CRC-checked binary file (docs/campaign.md):
// `kill -9` at any instant leaves a valid prefix, and rerunning the same
// command with --resume continues where the file ends — completed defects
// are never re-simulated. When every shard's store is complete,
// campaign_merge reassembles the monolithic report bit-identically.
//
// An existing store is only touched when --resume (continue it) or
// --overwrite (discard it) says so. The preset picks the payload through
// the campaign-payload table (campaign/payload.h): coverage_comparison and
// quick screen defects, pattern_coverage and pattern_quick sweep toggle
// coverage, characterization and characterization_quick run the
// corner/Monte-Carlo characterization — same store format, durability,
// and resume semantics, different payloads.
// --abort-after-bytes is the crash-injection hook used by tests and CI:
// the process SIGKILLs itself mid-write once the store reaches that size.
//
// Exit codes: 0 = shard complete, 1 = evaluation/store failure,
// 2 = usage error (bad flags, store/flag mismatch).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "campaign/payload.h"
#include "campaign/runner.h"
#include "report/telemetry_json.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "util/telemetry.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --store <path.campaign> [--shard i/N] [--preset NAME]\n"
      "          [--resume] [--overwrite] [--threads N] [--fsync-batch N]\n"
      "          [--telemetry <path.json>]\n"
      "          [--abort-after-bytes N] [--progress]\n"
      "presets (default coverage_comparison):",
      argv0);
  for (const campaign::Payload* p : campaign::Payloads()) {
    for (std::string_view preset : p->presets) {
      std::fprintf(stderr, " %.*s", static_cast<int>(preset.size()),
                   preset.data());
    }
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parse an integer flag value in [0, max] or exit 2 naming the flag.
uint64_t IntFlag(const char* argv0, const char* flag, const char* value,
                 uint64_t max) {
  auto v = util::ParseBoundedUint(value, max);
  if (!v.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, flag,
                 v.status().message().c_str());
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string shard_spec = "0/1";
  std::string preset = "coverage_comparison";
  std::string telemetry_path;
  bool resume = false;
  bool overwrite = false;
  campaign::RunOptions run;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--store") {
      run.store_path = next("--store");
    } else if (arg == "--shard") {
      shard_spec = next("--shard");
    } else if (arg == "--preset") {
      preset = next("--preset");
    } else if (arg == "--telemetry") {
      telemetry_path = next("--telemetry");
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--overwrite") {
      overwrite = true;
    } else if (arg == "--progress") {
      run.progress = true;
    } else if (arg == "--threads") {
      run.threads = static_cast<int>(
          IntFlag(argv[0], "--threads", next("--threads"), 4096));
    } else if (arg == "--fsync-batch") {
      run.fsync_batch = static_cast<int>(
          IntFlag(argv[0], "--fsync-batch", next("--fsync-batch"), 1 << 20));
    } else if (arg == "--abort-after-bytes") {
      run.abort_at_bytes = IntFlag(argv[0], "--abort-after-bytes",
                                   next("--abort-after-bytes"), UINT64_MAX);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (run.store_path.empty()) {
    std::fprintf(stderr, "%s: --store is required\n", argv[0]);
    return Usage(argv[0]);
  }

  auto shard = campaign::ParseShardSpec(shard_spec);
  if (!shard.ok()) {
    std::fprintf(stderr, "%s\n", shard.status().ToString().c_str());
    return 2;
  }
  run.shard = *shard;
  auto plan = campaign::PlanPreset(preset);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 2;
  }

  const bool store_exists = util::FileSizeOf(run.store_path).ok();
  if (store_exists && !resume && !overwrite) {
    std::fprintf(stderr,
                 "%s: store %s already exists — pass --resume to continue the "
                 "campaign or --overwrite to discard it\n",
                 argv[0], run.store_path.c_str());
    return 2;
  }
  if (store_exists && overwrite) {
    std::remove(run.store_path.c_str());
  }

  auto stats = campaign::RunShard(*plan, run);
  if (!stats.ok()) {
    std::fprintf(stderr, "campaign shard failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("shard %s of %llu-unit universe: %llu unit(s) in shard, "
              "%llu resumed, %llu executed%s\n",
              shard->ToString().c_str(),
              static_cast<unsigned long long>(stats->total_units),
              static_cast<unsigned long long>(stats->shard_units),
              static_cast<unsigned long long>(stats->resumed_skips),
              static_cast<unsigned long long>(stats->executed),
              stats->torn_tail_recovered ? " (torn tail truncated)" : "");

  if (!telemetry_path.empty()) {
    util::Status st = report::WriteTelemetrySnapshotFile(
        telemetry_path, util::telemetry::Capture());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
