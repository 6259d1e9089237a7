#include "campaign/codec.h"

#include "campaign/bytes.h"
#include "campaign/runner.h"
#include "util/hash.h"
#include "util/strings.h"

namespace cmldft::campaign {

namespace {

void WriteDefect(ByteWriter& w, const defects::Defect& d) {
  w.U8(static_cast<uint8_t>(d.type));
  w.Str(d.device);
  w.I32(d.terminal_a);
  w.I32(d.terminal_b);
  w.Str(d.node_a);
  w.Str(d.node_b);
  w.F64(d.resistance);
}

defects::Defect ReadDefect(ByteReader& r) {
  defects::Defect d;
  d.type = static_cast<defects::DefectType>(r.U8());
  d.device = r.Str();
  d.terminal_a = r.I32();
  d.terminal_b = r.I32();
  d.node_a = r.Str();
  d.node_b = r.Str();
  d.resistance = r.F64();
  return d;
}

}  // namespace

std::string EncodeReferenceRecord(const core::ScreeningReport& reference) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kReference));
  w.F64(reference.nominal_swing);
  w.F64(reference.reference_delay);
  w.F64(reference.reference_detector_vout);
  w.F64(reference.reference_supply_current);
  w.F64Vec(reference.reference_detector_vouts);
  return w.Take();
}

std::string EncodeOutcomeRecord(uint64_t unit_id,
                                const core::DefectOutcome& outcome) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kOutcome));
  w.U64(unit_id);
  WriteDefect(w, outcome.defect);
  w.Bool(outcome.converged);
  w.Bool(outcome.no_bias_point);
  w.Str(outcome.error);
  w.Bool(outcome.logic_fail);
  w.Bool(outcome.delay_fail);
  w.Bool(outcome.iddq_fail);
  w.Bool(outcome.amplitude_detected);
  w.F64(outcome.max_gate_amplitude);
  w.F64(outcome.min_detector_vout);
  w.F64Vec(outcome.detector_vouts);
  w.F64(outcome.supply_current);
  return w.Take();
}

util::StatusOr<DecodedRecord> DecodeRecord(std::string_view payload) {
  ByteReader r(payload);
  DecodedRecord rec;
  const uint8_t type = r.U8();
  switch (static_cast<RecordType>(type)) {
    case RecordType::kReference: {
      rec.type = RecordType::kReference;
      rec.reference.nominal_swing = r.F64();
      rec.reference.reference_delay = r.F64();
      rec.reference.reference_detector_vout = r.F64();
      rec.reference.reference_supply_current = r.F64();
      rec.reference.reference_detector_vouts = r.F64Vec();
      break;
    }
    case RecordType::kOutcome: {
      rec.type = RecordType::kOutcome;
      rec.unit_id = r.U64();
      rec.outcome.defect = ReadDefect(r);
      rec.outcome.converged = r.Bool();
      rec.outcome.no_bias_point = r.Bool();
      rec.outcome.error = r.Str();
      rec.outcome.logic_fail = r.Bool();
      rec.outcome.delay_fail = r.Bool();
      rec.outcome.iddq_fail = r.Bool();
      rec.outcome.amplitude_detected = r.Bool();
      rec.outcome.max_gate_amplitude = r.F64();
      rec.outcome.min_detector_vout = r.F64();
      rec.outcome.detector_vouts = r.F64Vec();
      rec.outcome.supply_current = r.F64();
      break;
    }
    default:
      return util::Status::ParseError("record type " + std::to_string(type) +
                                      " is not a defect-screening record");
  }
  if (!r.ok()) {
    return util::Status::ParseError("truncated campaign record payload");
  }
  if (!r.AtEnd()) {
    return util::Status::ParseError("trailing bytes in campaign record");
  }
  return rec;
}

uint64_t CampaignFingerprint(const core::ScreeningOptions& options,
                             const std::vector<defects::Defect>& universe) {
  util::ContentHasher h;
  h.Str("cmldft-campaign-fingerprint-v1");
  h.I64(options.chain_length);
  h.F64(options.frequency);
  h.F64(options.sim_time);
  h.F64(options.detector_drop);
  h.F64(options.logic_swing_fraction);
  h.F64(options.delay_threshold);
  h.F64(options.iddq_fraction);
  const core::DetectorOptions& det = options.detector;
  h.I64(static_cast<int64_t>(det.load_kind));
  h.F64(det.load_cap);
  h.F64(det.load_resistor);
  h.F64(det.bleed_resistor);
  h.F64(det.r0);
  h.F64(det.vtest_test_mode);
  h.Bool(det.multi_emitter);
  h.F64(det.comparator_tail);
  h.F64(det.comparator_rc);
  h.F64(det.comparator_fb_bleed);
  h.F64(det.comparator_beta);
  // The enumeration options themselves are not hashed: their effect is the
  // universe, and the universe is hashed in full — structure, ordering,
  // and electrical values. A netlist or enumeration change shows up here.
  h.U64(universe.size());
  for (const defects::Defect& d : universe) {
    h.I64(static_cast<int64_t>(d.type));
    h.Str(d.device);
    h.I64(d.terminal_a);
    h.I64(d.terminal_b);
    h.Str(d.node_a);
    h.Str(d.node_b);
    h.F64(d.resistance);
  }
  return h.Digest();
}

util::StatusOr<PayloadPlan> PlanScreening(
    const core::ScreeningOptions& options) {
  const std::vector<defects::Defect> universe =
      core::ScreeningUniverse(options);
  PayloadPlan plan;
  plan.payload = &ScreeningPayload();
  plan.total_units = universe.size();
  plan.fingerprint = CampaignFingerprint(options, universe);
  plan.prepare = [options,
                  total = plan.total_units]() -> util::StatusOr<PreparedUnits> {
    auto pass = core::ScreeningPass::Prepare(options);
    if (!pass.ok()) return pass.status();
    if (pass->universe().size() != total) {
      return util::Status::FailedPrecondition(
          "universe size changed between planning and execution: planned " +
          std::to_string(total) + ", enumerated " +
          std::to_string(pass->universe().size()));
    }
    PreparedUnits prepared;
    prepared.singleton = EncodeReferenceRecord(pass->reference());
    prepared.evaluate = [pass = std::move(pass).value()](
                            uint64_t id) -> util::StatusOr<std::string> {
      auto outcome = pass.Evaluate(id);
      if (!outcome.ok()) return outcome.status();
      return EncodeOutcomeRecord(id, *outcome);
    };
    return prepared;
  };
  return plan;
}

util::StatusOr<core::ScreeningReport> MergedScreeningReport(
    const MergedStores& merged) {
  auto reference = DecodeRecord(merged.singleton);
  if (!reference.ok()) return reference.status();
  core::ScreeningReport report = std::move(reference->reference);
  report.outcomes.reserve(merged.units.size());
  for (const std::string& unit : merged.units) {
    auto rec = DecodeRecord(unit);
    if (!rec.ok()) return rec.status();
    report.outcomes.push_back(std::move(rec->outcome));
  }
  return report;
}

namespace {

util::StatusOr<RecordInfo> DecodeScreeningRecord(std::string_view record) {
  auto rec = DecodeRecord(record);
  if (!rec.ok()) return rec.status();
  RecordInfo info;
  info.singleton = rec->type == RecordType::kReference;
  info.unit_id = rec->unit_id;
  return info;
}

Tally TallyScreeningUnit(std::string_view unit_record) {
  auto rec = DecodeRecord(unit_record);
  if (!rec.ok()) return {};
  // Detected by anything: the CombinedCoverage numerator.
  const core::FaultClass c = rec->outcome.Classify();
  const bool detected =
      c != core::FaultClass::kNoEffect && c != core::FaultClass::kUnresolved;
  return {detected ? 1u : 0u, 1};
}

// Coverage tallies are Exact-tolerance (recomputed from merged outcomes —
// drift means classification changed), analog reference measurements
// carry the tolerance classes coverage_comparison uses, and the
// fingerprint is Exact so a silently different universe or configuration
// cannot masquerade as the golden campaign.
util::StatusOr<report::Report> ScreeningManifest(const MergedStores& merged) {
  using report::Tol;
  auto r = MergedScreeningReport(merged);
  if (!r.ok()) return r.status();
  report::Report rep(
      "campaign_manifest",
      "§6 (defect-universe coverage, recombined from campaign shards)",
      "merged shard stores of a durable screening campaign");

  rep.AddText("fingerprint",
              util::StrPrintf("%016llx",
                              static_cast<unsigned long long>(
                                  merged.fingerprint)));
  rep.AddInt("total_units", static_cast<long long>(merged.total_units));
  rep.AddInt("shard_count", static_cast<long long>(merged.shard_count));

  for (int c = 0; c < core::kNumFaultClasses; ++c) {
    const auto fc = static_cast<core::FaultClass>(c);
    rep.AddInt("class_" + std::string(core::FaultClassName(fc)),
               r->CountClass(fc));
  }
  rep.AddScalar("conventional_coverage_pct", r->ConventionalCoverage() * 100,
                "%", Tol::Exact());
  rep.AddScalar("combined_coverage_pct", r->CombinedCoverage() * 100, "%",
                Tol::Exact());

  rep.AddScalar("nominal_swing", r->nominal_swing, "V", Tol::Abs(0.02));
  rep.AddScalar("reference_delay_ps", r->reference_delay * 1e12, "ps",
                Tol::Rel(0.1, 1.0));
  rep.AddScalar("reference_detector_vout", r->reference_detector_vout, "V",
                Tol::Abs(0.02));

  // Per-store contribution: how the campaign was decomposed. Informational
  // — the same universe merged from a different shard split is still the
  // same campaign result.
  report::Table& shards = rep.AddTable(
      "shards", {{"shard", Tol::Info()}, {"outcomes", Tol::Info()}});
  for (const auto& [index, count] : merged.shard_units) {
    shards.NewRow().Int(index).Int(static_cast<long long>(count));
  }
  return rep;
}

util::StatusOr<PayloadPlan> PlanScreeningPreset(std::string_view preset) {
  auto options = ScreeningPreset(preset);
  if (!options.ok()) return options.status();
  return PlanScreening(*options);
}

}  // namespace

const Payload& ScreeningPayload() {
  static const Payload payload{
      "screening",
      "defect-screening",
      "fault-free reference",
      {"coverage_comparison", "quick"},
      RecordType::kReference,
      RecordType::kOutcome,
      &PlanScreeningPreset,
      &DecodeScreeningRecord,
      &TallyScreeningUnit,
      &ScreeningManifest,
  };
  return payload;
}

}  // namespace cmldft::campaign
