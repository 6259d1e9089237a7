#include "campaign/merge.h"

#include "campaign/store.h"
#include "util/hash.h"
#include "util/telemetry.h"

namespace cmldft::campaign {

util::StatusOr<MergedStores> MergeStores(
    const Payload& payload, const std::vector<std::string>& paths) {
  static const util::telemetry::Counter merges =
      util::telemetry::GetCounter("campaign.merges");
  merges.Increment();

  if (paths.empty()) {
    return util::Status::InvalidArgument("no campaign stores to merge");
  }

  MergedStores out;
  out.payload = &payload;
  bool have_singleton = false;
  std::vector<std::optional<std::string>> units;

  for (const std::string& path : paths) {
    auto scan = ScanStore(path);
    if (!scan.ok()) return scan.status();
    if (scan->torn_tail) {
      return util::Status::FailedPrecondition(
          path + ": store has a torn tail — the shard was interrupted; "
                 "resume it to completion before merging");
    }
    if (out.shard_count == 0) {
      out.fingerprint = scan->header.fingerprint;
      out.total_units = scan->header.total_units;
      out.shard_count = scan->header.shard_count;
      units.resize(out.total_units);
    } else if (scan->header.fingerprint != out.fingerprint ||
               scan->header.total_units != out.total_units ||
               scan->header.shard_count != out.shard_count) {
      return util::Status::FailedPrecondition(
          path + ": store does not belong to this campaign (fingerprint, "
                 "universe size, or shard plan differs from " +
          paths.front() + ")");
    }

    uint64_t unit_records = 0;
    for (std::string& record : scan->records) {
      auto info = DecodeRecordAs(payload, record);
      if (!info.ok()) {
        return util::Status(info.status().code(),
                            path + ": " + info.status().message());
      }
      if (info->singleton) {
        if (have_singleton && out.singleton != record) {
          return util::Status::FailedPrecondition(
              path + ": " + std::string(payload.singleton_name) +
              " records differ between shard stores; the shards were not "
              "produced by the same engine and configuration");
        }
        if (info->fingerprint.has_value() &&
            *info->fingerprint != out.fingerprint) {
          return util::Status::FailedPrecondition(
              path + ": " + std::string(payload.singleton_name) +
              " record does not hash to the store header fingerprint — the "
              "store is corrupt or the engines changed since the campaign "
              "ran");
        }
        have_singleton = true;
        out.singleton = std::move(record);
        continue;
      }
      if (info->unit_id >= out.total_units) {
        return util::Status::FailedPrecondition(
            path + ": record for unit " + std::to_string(info->unit_id) +
            " outside the universe of " + std::to_string(out.total_units));
      }
      if (units[info->unit_id].has_value()) {
        return util::Status::FailedPrecondition(
            path + ": unit " + std::to_string(info->unit_id) +
            " already provided by another record — overlapping or "
            "duplicated shard stores");
      }
      units[info->unit_id] = std::move(record);
      ++unit_records;
    }
    out.shard_units.emplace_back(scan->header.shard_index, unit_records);
  }

  if (!have_singleton) {
    return util::Status::FailedPrecondition(
        "no store carries the " + std::string(payload.singleton_name) +
        " record");
  }

  // Completeness: recompute from what is present. A missing unit is a
  // hard error, not a smaller denominator.
  uint64_t missing = 0;
  uint64_t first_missing = 0;
  for (uint64_t id = 0; id < out.total_units; ++id) {
    if (!units[id].has_value()) {
      if (missing == 0) first_missing = id;
      ++missing;
    }
  }
  if (missing != 0) {
    return util::Status::FailedPrecondition(
        "campaign incomplete: " + std::to_string(missing) + " of " +
        std::to_string(out.total_units) + " units missing (first missing id " +
        std::to_string(first_missing) +
        ") — run the remaining shards (or resume interrupted ones) before "
        "merging");
  }

  out.units.reserve(out.total_units);
  for (std::optional<std::string>& unit : units) {
    out.units.push_back(std::move(*unit));
  }
  return out;
}

util::StatusOr<const Payload*> StorePayload(const std::string& path) {
  auto scan = ScanStore(path);
  if (!scan.ok()) return scan.status();
  if (scan->records.empty()) {
    return util::Status::FailedPrecondition(
        path + ": store has no records yet — its campaign kind is "
               "undetermined; run (or resume) the shard first");
  }
  const uint8_t tag = static_cast<uint8_t>(scan->records.front()[0]);
  const Payload* payload = PayloadForTag(tag);
  if (payload == nullptr) {
    return util::Status::ParseError(path + ": unknown campaign record type " +
                                    std::to_string(tag));
  }
  return payload;
}

util::StatusOr<MergeResult> MergeCampaignStores(
    const std::vector<std::string>& paths) {
  auto merged = MergeStores(ScreeningPayload(), paths);
  if (!merged.ok()) return merged.status();
  auto report = MergedScreeningReport(*merged);
  if (!report.ok()) return report.status();
  MergeResult out;
  out.report = std::move(*report);
  out.fingerprint = merged->fingerprint;
  out.total_units = merged->total_units;
  out.shard_count = merged->shard_count;
  out.shard_outcomes = std::move(merged->shard_units);
  return out;
}

// ------------------------------------------------ streaming merge --

StreamingMerge::StreamingMerge(const Payload& payload, uint64_t total_units)
    : payload_(&payload),
      total_units_(total_units),
      seen_(total_units, 0),
      unit_hash_(total_units, 0) {}

util::StatusOr<StreamingMerge::FoldResult> StreamingMerge::Fold(
    std::string_view payload) {
  auto info = DecodeRecordAs(*payload_, payload);
  if (!info.ok()) return info.status();

  FoldResult result;
  if (info->singleton) {
    if (singleton_.has_value()) {
      if (*singleton_ != payload) {
        return util::Status::FailedPrecondition(
            std::string(payload_->singleton_name) +
            " record differs from the one already folded: the contributing "
            "workers do not run the same engine and configuration");
      }
      result.duplicate = true;
      return result;
    }
    singleton_ = std::string(payload);
    result.new_singleton = true;
    return result;
  }

  const uint64_t unit_id = info->unit_id;
  if (unit_id >= total_units_) {
    return util::Status::FailedPrecondition(
        "record for unit " + std::to_string(unit_id) +
        " outside the universe of " + std::to_string(total_units_));
  }
  result.unit_id = unit_id;
  const uint64_t hash = util::ContentHasher().Str(payload).Digest();
  if (seen_[unit_id]) {
    if (unit_hash_[unit_id] != hash) {
      return util::Status::FailedPrecondition(
          "unit " + std::to_string(unit_id) +
          " delivered twice with different bytes — the contributing workers "
          "do not run the same engine and configuration");
    }
    result.duplicate = true;
    return result;
  }
  seen_[unit_id] = 1;
  unit_hash_[unit_id] = hash;
  ++units_done_;
  const Tally t = payload_->tally(payload);
  tally_.hits += t.hits;
  tally_.weight += t.weight;
  result.new_unit = true;
  return result;
}

double StreamingMerge::LiveCoverage() const {
  if (tally_.weight == 0) return 0.0;
  return static_cast<double>(tally_.hits) / static_cast<double>(tally_.weight);
}

}  // namespace cmldft::campaign
