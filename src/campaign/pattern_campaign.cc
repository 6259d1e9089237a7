#include "campaign/pattern_campaign.h"

#include <utility>

#include "campaign/bytes.h"
#include "util/strings.h"

namespace cmldft::campaign {

namespace {

util::Status ValidateSweep(const testgen::PatternSweepConfig& sweep) {
  if (sweep.benchmarks.empty()) {
    return util::Status::InvalidArgument("sweep has no benchmarks");
  }
  if (sweep.pattern_counts.empty()) {
    return util::Status::InvalidArgument("sweep has no pattern counts");
  }
  for (int c : sweep.pattern_counts) {
    if (c <= 0) {
      return util::Status::InvalidArgument(
          "sweep pattern counts must be positive, got " + std::to_string(c));
    }
  }
  for (const std::string& name : sweep.benchmarks) {
    auto nl = testgen::MakeSweepBenchmark(name);
    if (!nl.ok()) return nl.status();
  }
  return util::Status::Ok();
}

}  // namespace

std::string EncodePatternSuiteRecord(const testgen::PatternSweepConfig& sweep) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kPatternSuite));
  w.U32(static_cast<uint32_t>(sweep.benchmarks.size()));
  for (const std::string& name : sweep.benchmarks) w.Str(name);
  w.U32(static_cast<uint32_t>(sweep.pattern_counts.size()));
  for (int c : sweep.pattern_counts) w.I32(c);
  w.U32(sweep.seed);
  w.I32(sweep.init_max_cycles);
  return w.Take();
}

std::string EncodePatternUnitRecord(uint64_t unit_id,
                                    const testgen::SweepUnitResult& unit) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kPatternUnit));
  w.U64(unit_id);
  w.U32(unit.benchmark);
  w.U32(unit.patterns);
  w.U32(unit.toggled);
  w.U32(unit.togglable);
  w.U64(unit.transitions);
  w.U32(unit.init_cycles);
  w.U32(unit.residual_x);
  w.U32(unit.dffs);
  return w.Take();
}

util::StatusOr<DecodedPatternRecord> DecodePatternRecord(
    std::string_view payload) {
  ByteReader r(payload);
  DecodedPatternRecord rec;
  const uint8_t type = r.U8();
  switch (static_cast<RecordType>(type)) {
    case RecordType::kPatternSuite: {
      rec.type = RecordType::kPatternSuite;
      const uint32_t benchmarks = r.U32();
      for (uint32_t i = 0; i < benchmarks && r.ok(); ++i) {
        rec.suite.benchmarks.push_back(r.Str());
      }
      const uint32_t counts = r.U32();
      for (uint32_t i = 0; i < counts && r.ok(); ++i) {
        rec.suite.pattern_counts.push_back(r.I32());
      }
      rec.suite.seed = r.U32();
      rec.suite.init_max_cycles = r.I32();
      break;
    }
    case RecordType::kPatternUnit: {
      rec.type = RecordType::kPatternUnit;
      rec.unit_id = r.U64();
      rec.unit.benchmark = r.U32();
      rec.unit.patterns = r.U32();
      rec.unit.toggled = r.U32();
      rec.unit.togglable = r.U32();
      rec.unit.transitions = r.U64();
      rec.unit.init_cycles = r.U32();
      rec.unit.residual_x = r.U32();
      rec.unit.dffs = r.U32();
      break;
    }
    default:
      return util::Status::ParseError("record type " + std::to_string(type) +
                                      " is not a pattern-coverage record");
  }
  if (!r.ok()) {
    return util::Status::ParseError("truncated pattern record payload");
  }
  if (!r.AtEnd()) {
    return util::Status::ParseError("trailing bytes in pattern record");
  }
  return rec;
}

util::StatusOr<testgen::PatternSweepConfig> PatternSweepPreset(
    std::string_view name) {
  testgen::PatternSweepConfig sweep;
  if (name == "pattern_coverage") {
    // Must stay bit-identical to bench/pattern_coverage.cc: the CI
    // kill+resume campaign merges into that bench's golden snapshot.
    sweep.benchmarks = {"counter8", "shift16", "johnson8", "fsm16",
                        "scrambler12"};
    sweep.pattern_counts = {16, 64, 256, 1024};
    return sweep;
  }
  if (name == "pattern_quick") {
    sweep.benchmarks = {"counter4", "shift4"};
    sweep.pattern_counts = {8, 32};
    return sweep;
  }
  return util::Status::InvalidArgument(
      "unknown pattern sweep preset '" + std::string(name) +
      "' (available: pattern_coverage, pattern_quick)");
}

util::StatusOr<PayloadPlan> PlanPatternSweep(
    const testgen::PatternSweepConfig& sweep) {
  CMLDFT_RETURN_IF_ERROR(ValidateSweep(sweep));
  PayloadPlan plan;
  plan.payload = &PatternPayload();
  plan.total_units = sweep.unit_count();
  plan.fingerprint = testgen::SweepFingerprint(sweep);
  plan.singleton = EncodePatternSuiteRecord(sweep);
  plan.prepare = [sweep, suite = plan.singleton]()
      -> util::StatusOr<PreparedUnits> {
    PreparedUnits prepared;
    prepared.singleton = suite;
    prepared.evaluate =
        [sweep](uint64_t id) -> util::StatusOr<std::string> {
      auto unit = testgen::EvaluateSweepUnit(sweep, id);
      if (!unit.ok()) return unit.status();
      return EncodePatternUnitRecord(id, *unit);
    };
    return prepared;
  };
  return plan;
}

util::StatusOr<MergedSweep> DecodeMergedSweep(const MergedStores& merged) {
  auto suite = DecodePatternRecord(merged.singleton);
  if (!suite.ok()) return suite.status();
  MergedSweep out;
  out.sweep = std::move(suite->suite);
  out.units.reserve(merged.units.size());
  for (const std::string& unit : merged.units) {
    auto rec = DecodePatternRecord(unit);
    if (!rec.ok()) return rec.status();
    out.units.push_back(rec->unit);
  }
  return out;
}

namespace {

util::StatusOr<RecordInfo> DecodePatternInfo(std::string_view record) {
  auto rec = DecodePatternRecord(record);
  if (!rec.ok()) return rec.status();
  RecordInfo info;
  info.singleton = rec->type == RecordType::kPatternSuite;
  info.unit_id = rec->unit_id;
  if (info.singleton) info.fingerprint = testgen::SweepFingerprint(rec->suite);
  return info;
}

Tally TallyPatternUnit(std::string_view unit_record) {
  auto rec = DecodePatternRecord(unit_record);
  if (!rec.ok()) return {};
  return {rec->unit.toggled, rec->unit.togglable};
}

util::StatusOr<report::Report> PatternManifest(const MergedStores& merged) {
  using report::Tol;
  auto m = DecodeMergedSweep(merged);
  if (!m.ok()) return m.status();
  report::Report rep(
      "pattern_campaign_manifest",
      "§6.6 (toggle coverage vs pattern count, recombined from shards)",
      "merged shard stores of a durable pattern-coverage campaign");

  rep.AddText("fingerprint",
              util::StrPrintf("%016llx",
                              static_cast<unsigned long long>(
                                  merged.fingerprint)));
  rep.AddInt("total_units", static_cast<long long>(merged.total_units));
  rep.AddInt("shard_count", static_cast<long long>(merged.shard_count));
  rep.AddInt("benchmarks", static_cast<long long>(m->sweep.benchmarks.size()));

  uint64_t transitions = 0;
  uint64_t residual_x = 0;
  for (const testgen::SweepUnitResult& u : m->units) {
    transitions += u.transitions;
    residual_x += u.residual_x;
  }
  rep.AddInt("total_transitions", static_cast<long long>(transitions));
  rep.AddInt("total_residual_x", static_cast<long long>(residual_x));

  report::Table& shards = rep.AddTable(
      "shards", {{"shard", Tol::Info()}, {"units", Tol::Info()}});
  for (const auto& [index, count] : merged.shard_units) {
    shards.NewRow().Int(index).Int(static_cast<long long>(count));
  }
  return rep;
}

util::StatusOr<PayloadPlan> PlanPatternPreset(std::string_view preset) {
  auto sweep = PatternSweepPreset(preset);
  if (!sweep.ok()) return sweep.status();
  return PlanPatternSweep(*sweep);
}

}  // namespace

const Payload& PatternPayload() {
  static const Payload payload{
      "pattern",
      "pattern-coverage",
      "suite",
      {"pattern_coverage", "pattern_quick"},
      RecordType::kPatternSuite,
      RecordType::kPatternUnit,
      &PlanPatternPreset,
      &DecodePatternInfo,
      &TallyPatternUnit,
      &PatternManifest,
  };
  return payload;
}

}  // namespace cmldft::campaign
