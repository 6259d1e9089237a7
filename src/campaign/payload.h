// The campaign-payload table: the one seam between the durable campaign
// machinery and what a campaign computes.
//
// A payload is a universe of independent units — defects to screen
// (§6), pattern-count rungs to sweep (§6.6), corner × die points to
// characterize — plus one singleton record every store carries (the
// fault-free screening reference, or the sweep/characterization suite).
// Each payload registers one `Payload` entry by name. The shard runner
// (runner.h), the store merge and the streaming merge (merge.h), the
// service queue and worker, and both campaign CLIs look a payload up here
// — by preset name or by record tag — and never switch on kind.
//
// Adding a payload is one file: its record codec (two tags, registered in
// RecordType below), its presets, and its entry; then one line in the
// table in payload.cc. docs/campaign.md, "Adding a payload".
//
// Only this table's own lookups (payload.cc) reference every entry. A
// payload file references no other payload, so a binary that uses one
// payload's presets links — and registers the telemetry of — that payload
// alone.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "report/report.h"
#include "util/status.h"

namespace cmldft::campaign {

/// First byte of every `.campaign` record payload. One registry for all
/// payloads, so a store of the wrong kind decodes to a clear error naming
/// its owner instead of garbage.
enum class RecordType : uint8_t {
  /// Screening: fault-free reference measurements (singleton).
  kReference = 1,
  /// Screening: one defect outcome.
  kOutcome = 2,
  /// Pattern coverage: the sweep suite (singleton).
  kPatternSuite = 3,
  /// Pattern coverage: one sweep unit.
  kPatternUnit = 4,
  /// Characterization: the corner/Monte-Carlo suite (singleton).
  kCharacterizationSuite = 5,
  /// Characterization: one corner × die unit.
  kCharacterizationUnit = 6,
};

/// What a payload's prepare step hands the runner.
struct PreparedUnits {
  /// The encoded singleton record every store of this plan carries.
  std::string singleton;
  /// Evaluate one unit and return its encoded record. Thread-safe and a
  /// pure function of the id: bit-identical on any host, thread or shard.
  std::function<util::StatusOr<std::string>(uint64_t id)> evaluate;
};

struct Payload;

/// A payload bound to one configuration (a preset or a typed config).
struct PayloadPlan {
  const Payload* payload = nullptr;
  uint64_t total_units = 0;
  /// Universe/config digest: store headers and lease grants carry it.
  uint64_t fingerprint = 0;
  /// The singleton record when it is known without simulating (the
  /// suites); empty for screening, whose reference `prepare` simulates.
  std::string singleton;
  /// Do the work the units share (screening simulates the fault-free
  /// reference once) and return the singleton plus the unit evaluator.
  std::function<util::StatusOr<PreparedUnits>()> prepare;
};

/// One decoded record, as the generic machinery sees it.
struct RecordInfo {
  bool singleton = false;
  /// Unit records only.
  uint64_t unit_id = 0;
  /// Singletons that carry their configuration (the suites): its
  /// fingerprint, which must equal the store header's.
  std::optional<uint64_t> fingerprint;
};

/// A unit record's contribution to the payload's headline ratio:
/// coverage = sum(hits) / sum(weight) over the units folded so far.
struct Tally {
  uint64_t hits = 0;
  uint64_t weight = 0;
};

/// Shard stores merged by the generic store merge (merge.h): the records
/// themselves, checked and in universe order.
struct MergedStores {
  const Payload* payload = nullptr;
  /// The singleton record, bit-identical across every store.
  std::string singleton;
  /// One unit record per universe unit, in universe order.
  std::vector<std::string> units;
  uint64_t fingerprint = 0;
  uint64_t total_units = 0;
  uint32_t shard_count = 0;
  /// (shard index, unit records contributed), in input order.
  std::vector<std::pair<uint32_t, uint64_t>> shard_units;
};

struct Payload {
  /// Table key and the `payload` field of the service status API.
  std::string_view name;
  /// How error messages name its records, e.g. "defect-screening".
  std::string_view description;
  /// How error messages name its singleton record.
  std::string_view singleton_name;
  /// The preset names this payload owns.
  std::vector<std::string_view> presets;
  RecordType singleton_type;
  RecordType unit_type;
  /// Plan one of `presets`.
  util::StatusOr<PayloadPlan> (*plan)(std::string_view preset);
  /// Decode and validate one record of either of its tags.
  util::StatusOr<RecordInfo> (*decode)(std::string_view record);
  /// Headline-ratio contribution of one (already decoded) unit record.
  Tally (*tally)(std::string_view unit_record);
  /// The JSON manifest of a merged campaign (golden-checkable).
  util::StatusOr<report::Report> (*manifest)(const MergedStores& merged);
};

/// Every registered payload, in table order.
const std::vector<const Payload*>& Payloads();

/// Lookups through the table; nullptr when nothing matches.
const Payload* PayloadForPreset(std::string_view preset);
const Payload* PayloadForTag(uint8_t tag);

/// Plan any registered preset; an unknown name lists every preset.
util::StatusOr<PayloadPlan> PlanPreset(std::string_view preset);

/// Decode `record` as one of `payload`'s. The tag is dispatched through
/// the table first: a record another payload owns is refused with a
/// FailedPrecondition naming that payload, an unregistered tag with a
/// ParseError. The merges go through here.
util::StatusOr<RecordInfo> DecodeRecordAs(const Payload& payload,
                                          std::string_view record);

}  // namespace cmldft::campaign
