// Merge completed campaign shard stores into the final report.
//
//   campaign_merge [--manifest <out.json>] [--coverage-report <out.json>]
//                  <store.campaign> [more stores ...]
//
// Verifies that the stores belong to one campaign (same fingerprint,
// universe, shard plan), that every universe unit is present exactly once
// (a truncated or unfinished shard is a hard error — coverage totals are
// recomputed from the unit records, never trusted from headers), and
// that all shards agree bit-for-bit on the singleton record.
//
// The payload is read off the stores' record tags through the campaign-
// payload table (campaign/payload.h), so no flag names it.
//
//   --manifest         write the campaign manifest JSON (golden-checkable)
//   --coverage-report  write the bench report derived from the merged
//                      records; byte-identical to the monolithic bench run.
//                      Pattern and characterization stores carry their
//                      configuration in the suite record; a screening
//                      store is matched to the registered screening preset
//                      with the store's fingerprint.
//
// Exit codes: 0 = merged, 1 = merge refused (incomplete/corrupt/foreign
// stores), no preset for the coverage report, or write failure, 2 = usage
// error.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench/paper_bench.h"
#include "campaign/characterize_campaign.h"
#include "campaign/merge.h"
#include "campaign/pattern_campaign.h"
#include "campaign/runner.h"
#include "report/json.h"
#include "report/report.h"
#include "testgen/pattern_sweep.h"
#include "util/strings.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--manifest <out.json>] [--coverage-report "
               "<out.json>] <store.campaign> [more ...]\n",
               argv0);
  return 2;
}

util::StatusOr<report::Report> ScreeningCoverage(
    const campaign::MergedStores& merged) {
  for (std::string_view preset : merged.payload->presets) {
    auto plan = merged.payload->plan(preset);
    if (!plan.ok() || plan->fingerprint != merged.fingerprint) continue;
    auto report = campaign::MergedScreeningReport(merged);
    if (!report.ok()) return report.status();
    report::Report cover(bench::kCoverageComparisonExperiment,
                         bench::kCoverageComparisonPaperRef,
                         bench::kCoverageComparisonSummary);
    bench::FillCoverageComparisonReport(
        *report, campaign::ScreeningPreset(preset).value(), cover);
    return cover;
  }
  return util::Status::FailedPrecondition(util::StrPrintf(
      "no registered screening preset has the store fingerprint %016llx: "
      "the coverage report needs the preset's thresholds",
      static_cast<unsigned long long>(merged.fingerprint)));
}

util::StatusOr<report::Report> PatternCoverage(
    const campaign::MergedStores& merged) {
  auto m = campaign::DecodeMergedSweep(merged);
  if (!m.ok()) return m.status();
  report::Report cover(testgen::kPatternCoverageExperiment,
                       testgen::kPatternCoveragePaperRef,
                       testgen::kPatternCoverageSummary);
  testgen::FillPatternCoverageReport(m->sweep, m->units, cover);
  return cover;
}

util::StatusOr<report::Report> CharacterizationCoverage(
    const campaign::MergedStores& merged) {
  auto m = campaign::DecodeMergedCharacterization(merged);
  if (!m.ok()) return m.status();
  report::Report cover(core::kCharacterizationExperiment,
                       core::kCharacterizationPaperRef,
                       core::kCharacterizationSummary);
  core::FillCharacterizationReport(m->config, m->units, cover);
  return cover;
}

/// The bench report each payload's merged records reproduce. Kept here,
/// not in the payload table: the screening fill lives in the paper-bench
/// library, which the campaign library must not link.
const std::map<std::string_view,
               util::StatusOr<report::Report> (*)(
                   const campaign::MergedStores&)>
    kCoverageReports = {{"screening", &ScreeningCoverage},
                        {"pattern", &PatternCoverage},
                        {"characterization", &CharacterizationCoverage}};

util::Status WriteReport(const std::string& path,
                         const util::StatusOr<report::Report>& rep) {
  if (!rep.ok()) return rep.status();
  return report::WriteJsonFile(path, rep->ToJson());
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string coverage_path;
  std::vector<std::string> stores;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--manifest") {
      manifest_path = next("--manifest");
    } else if (arg == "--coverage-report") {
      coverage_path = next("--coverage-report");
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    } else {
      stores.push_back(arg);
    }
  }
  if (stores.empty()) {
    std::fprintf(stderr, "%s: no campaign stores given\n", argv[0]);
    return Usage(argv[0]);
  }

  auto payload = campaign::StorePayload(stores.front());
  if (!payload.ok()) {
    std::fprintf(stderr, "merge failed: %s\n",
                 payload.status().ToString().c_str());
    return 1;
  }
  auto merged = campaign::MergeStores(**payload, stores);
  if (!merged.ok()) {
    std::fprintf(stderr, "merge failed: %s\n",
                 merged.status().ToString().c_str());
    return 1;
  }
  campaign::Tally headline;
  for (const std::string& unit : merged->units) {
    const campaign::Tally t = (*payload)->tally(unit);
    headline.hits += t.hits;
    headline.weight += t.weight;
  }
  std::printf("merged %zu %.*s store(s): %llu units, fingerprint %016llx, "
              "headline coverage %.1f%%\n",
              stores.size(), static_cast<int>((*payload)->name.size()),
              (*payload)->name.data(),
              static_cast<unsigned long long>(merged->total_units),
              static_cast<unsigned long long>(merged->fingerprint),
              headline.weight == 0 ? 0.0 : 100.0 * headline.hits /
                                                headline.weight);

  if (!manifest_path.empty()) {
    util::Status st =
        WriteReport(manifest_path, (*payload)->manifest(*merged));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!coverage_path.empty()) {
    util::Status st = WriteReport(
        coverage_path, kCoverageReports.at((*payload)->name)(*merged));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
