#include "campaign/runner.h"

#include <functional>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <utility>

#include "campaign/progress.h"
#include "campaign/store.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace cmldft::campaign {

namespace {

// The campaign.* counters measure the shared durable-store machinery,
// whichever payload rides it.
struct CampaignMetrics {
  util::telemetry::Counter runs =
      util::telemetry::GetCounter("campaign.runs");
  util::telemetry::Counter records_written =
      util::telemetry::GetCounter("campaign.records_written");
  util::telemetry::Counter resumed_skips =
      util::telemetry::GetCounter("campaign.resumed_skips");
  util::telemetry::Counter torn_tail_recoveries =
      util::telemetry::GetCounter("campaign.torn_tail_recoveries");
  util::telemetry::Counter merges =
      util::telemetry::GetCounter("campaign.merges");
};

const CampaignMetrics& Metrics() {
  static const CampaignMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const CampaignMetrics& kEagerRegistration = Metrics();

/// Evaluate `ids` on `threads` workers and hand each record, with its
/// position in `ids`, to `append` under one mutex. Records arrive in
/// completion order; every unit record carries its universe id, so no
/// consumer depends on that order. Stops at the first error.
util::Status EvaluateUnits(
    const PreparedUnits& prepared, const std::vector<uint64_t>& ids,
    int threads,
    const std::function<util::Status(size_t, std::string)>& append) {
  std::mutex mu;
  util::Status first_error = util::Status::Ok();
  util::ParallelFor(
      ids.size(),
      [&](size_t i) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!first_error.ok()) return;
        }
        auto record = prepared.evaluate(ids[i]);
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error.ok()) return;
        first_error = record.ok() ? append(i, std::move(record).value())
                                  : record.status();
      },
      threads);
  return first_error;
}

}  // namespace

util::StatusOr<CampaignRunStats> RunShard(const PayloadPlan& plan,
                                          const RunOptions& options) {
  Metrics().runs.Increment();
  const Payload& payload = *plan.payload;
  const std::string& path = options.store_path;
  CampaignRunStats stats;
  stats.total_units = plan.total_units;
  stats.shard_units = options.shard.UnitsOf(plan.total_units);
  const StoreHeader header{plan.fingerprint, options.shard.index,
                           options.shard.count, plan.total_units};

  std::unordered_set<uint64_t> completed;
  std::optional<std::string> stored_singleton;
  std::optional<StoreWriter> writer;

  if (util::FileSizeOf(path).ok()) {
    auto scan = ScanStore(path);
    if (!scan.ok()) return scan.status();
    if (scan->header.fingerprint != header.fingerprint) {
      return util::Status::FailedPrecondition(
          path + ": store fingerprint does not match the requested " +
          std::string(payload.description) +
          " configuration — it belongs to a different configuration; use a "
          "fresh store path (or delete the stale file)");
    }
    if (scan->header.shard_index != header.shard_index ||
        scan->header.shard_count != header.shard_count) {
      return util::Status::FailedPrecondition(
          path + ": store holds shard " +
          ShardPlan{scan->header.shard_index, scan->header.shard_count}
              .ToString() +
          " but this run requested shard " + options.shard.ToString());
    }
    if (scan->header.total_units != header.total_units) {
      return util::Status::FailedPrecondition(
          path + ": store planned " +
          std::to_string(scan->header.total_units) +
          " units but the universe now has " +
          std::to_string(header.total_units));
    }
    if (scan->torn_tail) {
      CMLDFT_RETURN_IF_ERROR(RepairStore(path, *scan));
      stats.torn_tail_recovered = true;
      Metrics().torn_tail_recoveries.Increment();
    }
    for (std::string& record : scan->records) {
      auto info = payload.decode(record);
      if (!info.ok()) {
        // The frame CRC passed but the payload didn't decode: that is not
        // a torn write, it is a format bug or deliberate tampering.
        return util::Status(info.status().code(),
                            path + ": undecodable record in valid region: " +
                                info.status().message());
      }
      if (info->singleton) {
        stored_singleton = std::move(record);
      } else {
        completed.insert(info->unit_id);
      }
    }
    stats.resumed = true;
    stats.resumed_skips = completed.size();
    Metrics().resumed_skips.Add(completed.size());
    auto w = StoreWriter::OpenAppend(path, options.fsync_batch);
    if (!w.ok()) return w.status();
    writer.emplace(std::move(*w));
  } else {
    auto w = StoreWriter::Create(path, header, options.fsync_batch);
    if (!w.ok()) return w.status();
    writer.emplace(std::move(*w));
  }
  if (options.abort_at_bytes != 0) {
    writer->SetKillAtSize(options.abort_at_bytes);
  }

  auto prepared = plan.prepare();
  if (!prepared.ok()) return prepared.status();
  if (stored_singleton.has_value()) {
    // Re-derived deterministically on every run, so anything but a
    // bit-identical match means the store belongs to a different engine
    // build (the fingerprint can't see engine-internal changes) or was
    // tampered with — refuse rather than mix the two.
    if (*stored_singleton != prepared->singleton) {
      return util::Status::FailedPrecondition(
          path + ": the " + std::string(payload.singleton_name) +
          " record diverges from the one in the store: the engine or "
          "configuration changed since this campaign started; restart the "
          "campaign with a fresh store");
    }
  } else {
    CMLDFT_RETURN_IF_ERROR(writer->AppendRecord(prepared->singleton));
    Metrics().records_written.Increment();
  }

  std::vector<uint64_t> pending;
  for (uint64_t id = 0; id < plan.total_units; ++id) {
    if (options.shard.Contains(id) && completed.count(id) == 0) {
      pending.push_back(id);
    }
  }
  stats.executed = pending.size();

  ProgressMeter meter(options.progress, stats.shard_units,
                      stats.resumed_skips);
  CMLDFT_RETURN_IF_ERROR(EvaluateUnits(
      *prepared, pending, options.threads,
      [&](size_t, std::string record) -> util::Status {
        CMLDFT_RETURN_IF_ERROR(writer->AppendRecord(record));
        Metrics().records_written.Increment();
        meter.Tick();
        return util::Status::Ok();
      }));
  CMLDFT_RETURN_IF_ERROR(writer->Close());
  meter.Finish();
  return stats;
}

util::StatusOr<std::vector<std::string>> EvaluateLease(
    const PayloadPlan& plan, const std::vector<uint64_t>& ids, int threads) {
  for (uint64_t id : ids) {
    if (id >= plan.total_units) {
      return util::Status::OutOfRange(
          "leased unit " + std::to_string(id) + " outside the universe of " +
          std::to_string(plan.total_units));
    }
  }
  auto prepared = plan.prepare();
  if (!prepared.ok()) return prepared.status();
  std::vector<std::string> records(ids.size() + 1);
  records[0] = prepared->singleton;
  CMLDFT_RETURN_IF_ERROR(EvaluateUnits(
      *prepared, ids, threads, [&](size_t i, std::string record) {
        records[i + 1] = std::move(record);
        return util::Status::Ok();
      }));
  return records;
}

util::StatusOr<CampaignRunStats> RunScreeningCampaign(
    const CampaignOptions& options) {
  auto plan = PlanScreening(options.screening);
  if (!plan.ok()) return plan.status();
  RunOptions run;
  run.shard = options.shard;
  run.store_path = options.store_path;
  run.threads = options.screening.threads;
  run.fsync_batch = options.fsync_batch;
  run.abort_at_bytes = options.abort_at_bytes;
  run.progress = options.progress;
  return RunShard(*plan, run);
}

// Defined here, beside the campaign.* registration: a binary that uses a
// screening preset reports the campaign counters, as the goldens pin.
util::StatusOr<core::ScreeningOptions> ScreeningPreset(std::string_view name) {
  core::ScreeningOptions opt;
  if (name == "coverage_comparison") {
    // Must stay bit-identical to bench/coverage_comparison.cc: the CI
    // kill+resume campaign merges into that bench's golden snapshot.
    opt.chain_length = 3;
    opt.sim_time = 50e-9;
    opt.detector.load_cap = 1e-12;
    opt.enumeration.pipe_values = {1e3, 2e3, 4e3, 8e3};
    return opt;
  }
  if (name == "quick") {
    opt.chain_length = 2;
    opt.sim_time = 20e-9;
    opt.detector.load_cap = 1e-12;
    opt.enumeration.pipe_values = {1e3, 4e3};
    return opt;
  }
  return util::Status::InvalidArgument(
      "unknown screening preset '" + std::string(name) +
      "' (available: coverage_comparison, quick)");
}

}  // namespace cmldft::campaign
