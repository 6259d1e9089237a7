#include "campaign/payload.h"

#include "campaign/characterize_campaign.h"
#include "campaign/codec.h"
#include "campaign/pattern_campaign.h"

namespace cmldft::campaign {

const std::vector<const Payload*>& Payloads() {
  static const std::vector<const Payload*> table = {
      &ScreeningPayload(), &PatternPayload(), &CharacterizationPayload()};
  return table;
}

const Payload* PayloadForPreset(std::string_view preset) {
  for (const Payload* p : Payloads()) {
    for (std::string_view owned : p->presets) {
      if (owned == preset) return p;
    }
  }
  return nullptr;
}

const Payload* PayloadForTag(uint8_t tag) {
  for (const Payload* p : Payloads()) {
    if (tag == static_cast<uint8_t>(p->singleton_type) ||
        tag == static_cast<uint8_t>(p->unit_type)) {
      return p;
    }
  }
  return nullptr;
}

util::StatusOr<PayloadPlan> PlanPreset(std::string_view preset) {
  const Payload* payload = PayloadForPreset(preset);
  if (payload == nullptr) {
    std::string available;
    for (const Payload* p : Payloads()) {
      for (std::string_view owned : p->presets) {
        if (!available.empty()) available += ", ";
        available += owned;
      }
    }
    return util::Status::InvalidArgument("unknown campaign preset '" +
                                         std::string(preset) +
                                         "' (available: " + available + ")");
  }
  return payload->plan(preset);
}

util::StatusOr<RecordInfo> DecodeRecordAs(const Payload& payload,
                                          std::string_view record) {
  if (record.empty()) {
    return util::Status::ParseError("empty record payload");
  }
  const uint8_t tag = static_cast<uint8_t>(record[0]);
  const Payload* owner = PayloadForTag(tag);
  if (owner == nullptr) {
    return util::Status::ParseError("unknown campaign record type " +
                                    std::to_string(tag));
  }
  if (owner != &payload) {
    return util::Status::FailedPrecondition(
        "store holds " + std::string(owner->description) + " records, not " +
        std::string(payload.description) + " records — merge it with the " +
        std::string(owner->name) +
        " campaign path (campaign_merge auto-detects; see docs/campaign.md)");
  }
  return payload.decode(record);
}

}  // namespace cmldft::campaign
