#include "campaign/characterize_campaign.h"

#include <utility>

#include "campaign/bytes.h"
#include "util/strings.h"

namespace cmldft::campaign {

namespace {

util::Status ValidateConfig(const core::CharacterizationConfig& config) {
  if (config.temperatures_c.empty()) {
    return util::Status::InvalidArgument("characterization has no temperatures");
  }
  if (config.supplies.empty()) {
    return util::Status::InvalidArgument("characterization has no supplies");
  }
  if (config.vtests.empty()) {
    return util::Status::InvalidArgument("characterization has no vtest values");
  }
  if (config.trials < 0) {
    return util::Status::InvalidArgument(
        "characterization trials must be non-negative, got " +
        std::to_string(config.trials));
  }
  if (config.probe_step <= 0.0 || config.probe_max <= 0.0 ||
      config.hysteresis_step <= 0.0) {
    return util::Status::InvalidArgument(
        "characterization probe/hysteresis steps must be positive");
  }
  if (config.load_gates < 1) {
    return util::Status::InvalidArgument(
        "characterization load_gates must be >= 1");
  }
  return util::Status::Ok();
}

}  // namespace

std::string EncodeCharacterizationSuiteRecord(
    const core::CharacterizationConfig& config) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kCharacterizationSuite));
  w.F64Vec(config.temperatures_c);
  w.F64Vec(config.supplies);
  w.F64Vec(config.vtests);
  w.I32(config.trials);
  w.U32(config.seed);
  w.F64(config.variation.load_resistance_spread);
  w.F64(config.variation.wire_cap_spread);
  w.F64(config.variation.is_spread);
  w.F64(config.variation.beta_spread);
  w.F64Vec(config.excursion_levels);
  w.F64(config.response_window);
  w.F64(config.response_load_cap);
  w.I32(config.load_gates);
  w.F64(config.load_pipe);
  w.F64(config.probe_max);
  w.F64(config.probe_step);
  w.F64(config.hysteresis_step);
  return w.Take();
}

std::string EncodeCharacterizationUnitRecord(
    uint64_t unit_id, const core::CharacterizationUnitResult& unit) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kCharacterizationUnit));
  w.U64(unit_id);
  w.U32(unit.corner);
  w.U32(unit.die);
  w.F64(unit.v1_static_excursion);
  w.F64(unit.v2_static_excursion);
  w.F64(unit.v2_clean_drop);
  w.F64(unit.v2_dynamic_threshold);
  w.F64(unit.trip_up);
  w.F64(unit.trip_down);
  w.F64(unit.vfb_pass);
  w.F64(unit.vfb_fail);
  w.Bool(unit.hysteresis_found);
  w.Bool(unit.load_clean_flagged);
  w.Bool(unit.load_pipe_flagged);
  w.F64(unit.load_clean_vout);
  w.F64(unit.load_pipe_vout);
  w.U32(unit.measure_failures);
  return w.Take();
}

util::StatusOr<DecodedCharacterizationRecord> DecodeCharacterizationRecord(
    std::string_view payload) {
  ByteReader r(payload);
  DecodedCharacterizationRecord rec;
  const uint8_t type = r.U8();
  switch (static_cast<RecordType>(type)) {
    case RecordType::kCharacterizationSuite: {
      rec.type = RecordType::kCharacterizationSuite;
      rec.suite.temperatures_c = r.F64Vec();
      rec.suite.supplies = r.F64Vec();
      rec.suite.vtests = r.F64Vec();
      rec.suite.trials = r.I32();
      rec.suite.seed = r.U32();
      rec.suite.variation.load_resistance_spread = r.F64();
      rec.suite.variation.wire_cap_spread = r.F64();
      rec.suite.variation.is_spread = r.F64();
      rec.suite.variation.beta_spread = r.F64();
      rec.suite.excursion_levels = r.F64Vec();
      rec.suite.response_window = r.F64();
      rec.suite.response_load_cap = r.F64();
      rec.suite.load_gates = r.I32();
      rec.suite.load_pipe = r.F64();
      rec.suite.probe_max = r.F64();
      rec.suite.probe_step = r.F64();
      rec.suite.hysteresis_step = r.F64();
      break;
    }
    case RecordType::kCharacterizationUnit: {
      rec.type = RecordType::kCharacterizationUnit;
      rec.unit_id = r.U64();
      rec.unit.corner = r.U32();
      rec.unit.die = r.U32();
      rec.unit.v1_static_excursion = r.F64();
      rec.unit.v2_static_excursion = r.F64();
      rec.unit.v2_clean_drop = r.F64();
      rec.unit.v2_dynamic_threshold = r.F64();
      rec.unit.trip_up = r.F64();
      rec.unit.trip_down = r.F64();
      rec.unit.vfb_pass = r.F64();
      rec.unit.vfb_fail = r.F64();
      rec.unit.hysteresis_found = r.Bool();
      rec.unit.load_clean_flagged = r.Bool();
      rec.unit.load_pipe_flagged = r.Bool();
      rec.unit.load_clean_vout = r.F64();
      rec.unit.load_pipe_vout = r.F64();
      rec.unit.measure_failures = r.U32();
      break;
    }
    default:
      return util::Status::ParseError("record type " + std::to_string(type) +
                                      " is not a characterization record");
  }
  if (!r.ok()) {
    return util::Status::ParseError(
        "truncated characterization record payload");
  }
  if (!r.AtEnd()) {
    return util::Status::ParseError(
        "trailing bytes in characterization record");
  }
  return rec;
}

util::StatusOr<core::CharacterizationConfig> CharacterizationPreset(
    std::string_view name) {
  core::CharacterizationConfig config;
  // Yield-surface rows pin the paper's nominal detection points (0.35 V
  // variant 2, 0.57 V variant 1) alongside the rest of the ladder.
  config.excursion_levels = {0.10, 0.20, 0.35, 0.45, 0.57, 0.70, 0.90};
  if (name == "characterization") {
    // Must stay identical to bench/characterization.cc: the CI kill+resume
    // campaign merges into that bench's golden snapshot.
    config.temperatures_c = {-40.0, 27.0, 125.0};
    config.supplies = {3.0, 3.3, 3.6};
    config.vtests = {3.6, 3.7, 3.8};
    config.trials = 2;
    return config;
  }
  if (name == "characterization_quick") {
    config.temperatures_c = {27.0};
    config.supplies = {3.3};
    config.vtests = {3.6, 3.7};
    config.trials = 1;
    return config;
  }
  return util::Status::InvalidArgument(
      "unknown characterization preset '" + std::string(name) +
      "' (available: characterization, characterization_quick)");
}

util::StatusOr<PayloadPlan> PlanCharacterization(
    const core::CharacterizationConfig& config) {
  CMLDFT_RETURN_IF_ERROR(ValidateConfig(config));
  PayloadPlan plan;
  plan.payload = &CharacterizationPayload();
  plan.total_units = config.unit_count();
  plan.fingerprint = core::CharacterizationFingerprint(config);
  plan.singleton = EncodeCharacterizationSuiteRecord(config);
  plan.prepare = [config, suite = plan.singleton]()
      -> util::StatusOr<PreparedUnits> {
    PreparedUnits prepared;
    prepared.singleton = suite;
    prepared.evaluate =
        [config](uint64_t id) -> util::StatusOr<std::string> {
      auto unit = core::EvaluateCharacterizationUnit(config, id);
      if (!unit.ok()) return unit.status();
      return EncodeCharacterizationUnitRecord(id, *unit);
    };
    return prepared;
  };
  return plan;
}

util::StatusOr<MergedCharacterization> DecodeMergedCharacterization(
    const MergedStores& merged) {
  auto suite = DecodeCharacterizationRecord(merged.singleton);
  if (!suite.ok()) return suite.status();
  MergedCharacterization out;
  out.config = std::move(suite->suite);
  out.units.reserve(merged.units.size());
  for (const std::string& unit : merged.units) {
    auto rec = DecodeCharacterizationRecord(unit);
    if (!rec.ok()) return rec.status();
    out.units.push_back(rec->unit);
  }
  return out;
}

namespace {

util::StatusOr<RecordInfo> DecodeCharacterizationInfo(
    std::string_view record) {
  auto rec = DecodeCharacterizationRecord(record);
  if (!rec.ok()) return rec.status();
  RecordInfo info;
  info.singleton = rec->type == RecordType::kCharacterizationSuite;
  info.unit_id = rec->unit_id;
  if (info.singleton) {
    info.fingerprint = core::CharacterizationFingerprint(rec->suite);
  }
  return info;
}

/// A unit counts toward the headline when every measurement came out clean.
Tally TallyCharacterizationUnit(std::string_view unit_record) {
  auto rec = DecodeCharacterizationRecord(unit_record);
  if (!rec.ok()) return {};
  return {rec->unit.measure_failures == 0 ? 1u : 0u, 1};
}

util::StatusOr<report::Report> CharacterizationManifest(
    const MergedStores& merged) {
  using report::Tol;
  auto m = DecodeMergedCharacterization(merged);
  if (!m.ok()) return m.status();
  report::Report rep(
      "characterization_campaign_manifest",
      "§6 detection thresholds taken off-corner, recombined from shards",
      "merged shard stores of a durable characterization campaign");

  rep.AddText("fingerprint",
              util::StrPrintf("%016llx",
                              static_cast<unsigned long long>(
                                  merged.fingerprint)));
  rep.AddInt("total_units", static_cast<long long>(merged.total_units));
  rep.AddInt("shard_count", static_cast<long long>(merged.shard_count));
  rep.AddInt("corners", static_cast<long long>(m->config.corner_count()));
  rep.AddInt("dies_per_corner", m->config.trials + 1);

  uint64_t hysteresis_found = 0;
  uint64_t measure_failures = 0;
  for (const core::CharacterizationUnitResult& u : m->units) {
    if (u.hysteresis_found) ++hysteresis_found;
    if (u.measure_failures != 0) ++measure_failures;
  }
  rep.AddInt("hysteresis_found", static_cast<long long>(hysteresis_found));
  rep.AddInt("units_with_failures",
             static_cast<long long>(measure_failures));

  report::Table& shards = rep.AddTable(
      "shards", {{"shard", Tol::Info()}, {"units", Tol::Info()}});
  for (const auto& [index, count] : merged.shard_units) {
    shards.NewRow().Int(index).Int(static_cast<long long>(count));
  }
  return rep;
}

util::StatusOr<PayloadPlan> PlanCharacterizationPreset(
    std::string_view preset) {
  auto config = CharacterizationPreset(preset);
  if (!config.ok()) return config.status();
  return PlanCharacterization(*config);
}

}  // namespace

const Payload& CharacterizationPayload() {
  static const Payload payload{
      "characterization",
      "characterization",
      "suite",
      {"characterization", "characterization_quick"},
      RecordType::kCharacterizationSuite,
      RecordType::kCharacterizationUnit,
      &PlanCharacterizationPreset,
      &DecodeCharacterizationInfo,
      &TallyCharacterizationUnit,
      &CharacterizationManifest,
  };
  return payload;
}

}  // namespace cmldft::campaign
