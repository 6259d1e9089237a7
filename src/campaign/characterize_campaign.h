// The characterization payload: corner × Monte-Carlo die sweeps of the
// detector thresholds (core/characterize.h) — its record codec, its
// presets and its entry in the payload table (payload.h).
//
// The universe is (corner × die): temperature × supply × vtest corners,
// each evaluating the nominal die plus Monte-Carlo process draws. Every
// unit is an independent pure function of (config, unit_id), so it runs
// on the same durable shard runner and merge as the other payloads. The
// suite record — the store's singleton — carries the full configuration,
// so a merge needs no side-channel preset, and the header fingerprint
// (core::CharacterizationFingerprint) cross-checks it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/payload.h"
#include "core/characterize.h"
#include "util/status.h"

namespace cmldft::campaign {

// ---- Record codec (framing and CRC belong to store.h) ----

std::string EncodeCharacterizationSuiteRecord(
    const core::CharacterizationConfig& config);
std::string EncodeCharacterizationUnitRecord(
    uint64_t unit_id, const core::CharacterizationUnitResult& unit);

/// A parsed characterization-store record: `type` says which payload is
/// live.
struct DecodedCharacterizationRecord {
  RecordType type = RecordType::kCharacterizationUnit;
  /// kCharacterizationSuite only.
  core::CharacterizationConfig suite;
  /// kCharacterizationUnit only.
  uint64_t unit_id = 0;
  core::CharacterizationUnitResult unit;
};

/// Rejects truncated payloads, trailing garbage, and other record types.
util::StatusOr<DecodedCharacterizationRecord> DecodeCharacterizationRecord(
    std::string_view payload);

// ---- Presets, plan and merged view ----

/// Named presets shared by the campaign tools and the bench:
///   "characterization" — exactly the bench/characterization.cc grid, so a
///       merged campaign reproduces its golden byte-for-byte.
///   "characterization_quick" — a 2-corner grid for tests/CI smoke.
util::StatusOr<core::CharacterizationConfig> CharacterizationPreset(
    std::string_view name);

/// The "characterization" table entry.
const Payload& CharacterizationPayload();

/// Plan a typed configuration (validated: non-empty grid, positive steps).
util::StatusOr<PayloadPlan> PlanCharacterization(
    const core::CharacterizationConfig& config);

/// The configuration and its unit results in universe order, decoded
/// from a merged characterization campaign.
struct MergedCharacterization {
  core::CharacterizationConfig config;
  std::vector<core::CharacterizationUnitResult> units;
};
util::StatusOr<MergedCharacterization> DecodeMergedCharacterization(
    const MergedStores& merged);

}  // namespace cmldft::campaign
