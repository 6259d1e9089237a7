// Recombination: fold N shard stores of one payload back into the result
// of a monolithic, uninterrupted run, bit for bit.
//
// Merge trusts nothing a header *claims* about completeness: coverage
// totals are recomputed from the outcome records actually present, and
// the merge fails loudly if any universe unit is missing (a truncated or
// unfinished shard can therefore never silently inflate coverage) or
// present twice (overlapping/duplicated stores). Singleton records (the
// screening reference, the suites) must agree bit-for-bit across shards —
// they are re-derived deterministically by every shard run, so any
// divergence means the shards were produced by different engines or
// configurations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/codec.h"
#include "campaign/payload.h"
#include "core/screening.h"
#include "util/status.h"

namespace cmldft::campaign {

/// Merge one or more shard stores of `payload`. Every store must carry
/// the same fingerprint, universe size, shard count and bit-identical
/// singleton record; together they must cover every unit id exactly once.
/// A record another payload owns is refused, naming that payload.
util::StatusOr<MergedStores> MergeStores(const Payload& payload,
                                         const std::vector<std::string>& paths);

/// The payload a store belongs to, read off its first record's tag.
/// Errors on an unreadable or empty store.
util::StatusOr<const Payload*> StorePayload(const std::string& path);

/// A merged screening campaign.
struct MergeResult {
  /// Outcomes in universe order — bit-identical to a monolithic run.
  core::ScreeningReport report;
  uint64_t fingerprint = 0;
  uint64_t total_units = 0;
  uint32_t shard_count = 0;
  /// (shard index, outcome records contributed), in input order.
  std::vector<std::pair<uint32_t, uint64_t>> shard_outcomes;
};

/// MergeStores over the screening payload, decoded into its report.
util::StatusOr<MergeResult> MergeCampaignStores(
    const std::vector<std::string>& paths);

/// Streaming incremental merge: fold record payloads one at a time, in any
/// order, as they arrive from workers — without waiting for campaign
/// completion. The campaign service feeds it every record it appends to
/// the store (and every record already there on restart) and reads a live
/// coverage estimate off it for the status API.
///
/// Idempotent by construction: a unit record delivered twice (a reclaimed
/// lease whose original worker also finished, a re-sent batch) is accepted
/// when bit-identical to the first delivery and refused otherwise — the
/// first record wins, the duplicate is only cross-checked, and
/// `units_done` never double-counts. Singleton records (the screening
/// reference, the pattern/characterization suite) get the same treatment,
/// which is exactly the PR 4 drift guard extended across hosts: two
/// workers running different engine builds cannot contribute to one
/// campaign.
///
/// The payload is fixed at construction; a record another payload owns
/// is refused. `LiveCoverage` is the payload's headline ratio (its Tally)
/// over the units folded so far — screening: combined fault coverage;
/// pattern: toggle coverage; characterization: fraction of corner x die
/// units with every measurement clean. At completion it equals the value
/// the final merged report derives from the same records.
class StreamingMerge {
 public:
  StreamingMerge(const Payload& payload, uint64_t total_units);

  struct FoldResult {
    /// A unit not seen before was folded in.
    bool new_unit = false;
    /// First delivery of the singleton record (reference/suite).
    bool new_singleton = false;
    /// Bit-identical re-delivery of an already-folded record; ignored.
    bool duplicate = false;
    /// Set for unit records (valid when new_unit or duplicate).
    uint64_t unit_id = 0;
  };

  /// Fold one record payload (store framing already stripped). Refuses a
  /// foreign payload's record, an out-of-universe unit id, and any
  /// duplicate that is not bit-identical to the first delivery.
  util::StatusOr<FoldResult> Fold(std::string_view payload);

  uint64_t total_units() const { return total_units_; }
  uint64_t units_done() const { return units_done_; }
  bool complete() const { return units_done_ == total_units_; }
  bool UnitDone(uint64_t id) const { return seen_[id] != 0; }

  /// Payload headline ratio over the units folded so far (0 when none).
  double LiveCoverage() const;

 private:
  const Payload* payload_;
  uint64_t total_units_;
  uint64_t units_done_ = 0;
  /// Per-unit: 0 = unseen, 1 = seen (hash in unit_hash_).
  std::vector<uint8_t> seen_;
  std::vector<uint64_t> unit_hash_;
  /// First delivery of the singleton record.
  std::optional<std::string> singleton_;
  Tally tally_;
};

}  // namespace cmldft::campaign
