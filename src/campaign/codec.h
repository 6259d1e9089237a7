// The defect-screening payload (§6): its record codec and its entry in
// the payload table (payload.h). Its presets are in runner.h.
//
// Records are self-describing payloads (first byte = record type) framed
// by the store layer with a length prefix and CRC-32. The encoding is
// explicit little-endian with IEEE-754 bit patterns for doubles, so a
// value round-trips *bit-identically*: the merge stage can rebuild a
// ScreeningReport byte-for-byte equal to one produced by a monolithic
// in-memory run — the campaign runtime's headline invariant.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/payload.h"
#include "core/screening.h"
#include "util/status.h"

namespace cmldft::campaign {

/// A parsed store record: `type` says which of the two payloads is live.
struct DecodedRecord {
  RecordType type = RecordType::kOutcome;
  /// kOutcome only.
  uint64_t unit_id = 0;
  core::DefectOutcome outcome;
  /// kReference only: reference fields populated, outcomes empty.
  core::ScreeningReport reference;
};

std::string EncodeReferenceRecord(const core::ScreeningReport& reference);
std::string EncodeOutcomeRecord(uint64_t unit_id,
                                const core::DefectOutcome& outcome);

/// Rejects truncated payloads, trailing garbage, and other record types.
util::StatusOr<DecodedRecord> DecodeRecord(std::string_view payload);

/// Stable digest of *what is being screened*: every ScreeningOptions field
/// that affects classification (never `threads` — execution layout must
/// not invalidate a store) plus the full enumerated defect universe in
/// execution order. Stores record it in their header; resume and merge
/// refuse a store whose fingerprint does not match the current plan.
uint64_t CampaignFingerprint(const core::ScreeningOptions& options,
                             const std::vector<defects::Defect>& universe);

/// The "screening" table entry.
const Payload& ScreeningPayload();

/// Plan a typed screening configuration: enumerate the universe and
/// fingerprint it (no simulation; `prepare` simulates the reference).
util::StatusOr<PayloadPlan> PlanScreening(
    const core::ScreeningOptions& options);

/// The merged report of a screening campaign: reference measurements from
/// the singleton, outcomes in universe order.
util::StatusOr<core::ScreeningReport> MergedScreeningReport(
    const MergedStores& merged);

}  // namespace cmldft::campaign
