// The pattern-coverage payload (§6.6): its record codec, its presets and
// its entry in the payload table (payload.h).
//
// Each sweep unit (testgen/pattern_sweep.h) is an independent pure
// function of (config, unit_id), so it runs on the same durable shard
// runner and merge as defect screening. The suite record — the store's
// singleton — carries the full sweep configuration, so a merge needs no
// side-channel preset: the store says what was swept, and the header
// fingerprint (testgen::SweepFingerprint) cross-checks it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/payload.h"
#include "testgen/pattern_sweep.h"
#include "util/status.h"

namespace cmldft::campaign {

// ---- Record codec (framing and CRC belong to store.h) ----

std::string EncodePatternSuiteRecord(const testgen::PatternSweepConfig& sweep);
std::string EncodePatternUnitRecord(uint64_t unit_id,
                                    const testgen::SweepUnitResult& unit);

/// A parsed pattern-store record: `type` says which payload is live.
struct DecodedPatternRecord {
  RecordType type = RecordType::kPatternUnit;
  /// kPatternSuite only.
  testgen::PatternSweepConfig suite;
  /// kPatternUnit only.
  uint64_t unit_id = 0;
  testgen::SweepUnitResult unit;
};

/// Rejects truncated payloads, trailing garbage, and other record types.
util::StatusOr<DecodedPatternRecord> DecodePatternRecord(
    std::string_view payload);

// ---- Presets, plan and merged view ----

/// Named sweep presets shared by the campaign tools and the bench:
///   "pattern_coverage" — exactly the bench/pattern_coverage.cc sweep, so
///       a merged campaign reproduces its golden byte-for-byte.
///   "pattern_quick" — a 2-benchmark, 2-rung ladder for CI smoke.
util::StatusOr<testgen::PatternSweepConfig> PatternSweepPreset(
    std::string_view name);

/// The "pattern" table entry.
const Payload& PatternPayload();

/// Plan a typed sweep (validated: benchmarks exist, ladder positive).
util::StatusOr<PayloadPlan> PlanPatternSweep(
    const testgen::PatternSweepConfig& sweep);

/// The sweep and its unit results in universe order, decoded from a
/// merged pattern campaign.
struct MergedSweep {
  testgen::PatternSweepConfig sweep;
  std::vector<testgen::SweepUnitResult> units;
};
util::StatusOr<MergedSweep> DecodeMergedSweep(const MergedStores& merged);

}  // namespace cmldft::campaign
