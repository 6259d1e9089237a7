// Pattern-coverage campaign tests: record codec round-trips, shard
// bit-identity at odd thread counts, kill/resume durability (in-process
// truncation and a real SIGKILL'd child), store-kind cross-refusal, and
// the report byte-identity seam shared with the monolithic bench.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "campaign/merge.h"
#include "campaign/pattern_campaign.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "report/report.h"
#include "testgen/pattern_sweep.h"
#include "util/file_io.h"

namespace cmldft {
namespace {

using testgen::PatternSweepConfig;
using testgen::SweepUnitResult;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cmldft_pattern_" + name;
}

PatternSweepConfig QuickSweep() {
  auto sweep = campaign::PatternSweepPreset("pattern_quick");
  EXPECT_TRUE(sweep.ok());
  return *sweep;
}

/// The monolithic in-memory evaluation every campaign must reproduce.
const std::vector<SweepUnitResult>& DirectQuickUnits() {
  static const std::vector<SweepUnitResult> units = [] {
    const PatternSweepConfig sweep = QuickSweep();
    std::vector<SweepUnitResult> out;
    for (uint64_t id = 0; id < sweep.unit_count(); ++id) {
      auto unit = testgen::EvaluateSweepUnit(sweep, id);
      EXPECT_TRUE(unit.ok()) << unit.status().ToString();
      out.push_back(*unit);
    }
    return out;
  }();
  return units;
}

/// The generic merge over the pattern payload, decoded.
util::StatusOr<campaign::MergedSweep> MergePattern(
    const std::vector<std::string>& paths) {
  auto stores = campaign::MergeStores(campaign::PatternPayload(), paths);
  if (!stores.ok()) return stores.status();
  return campaign::DecodeMergedSweep(*stores);
}

// ------------------------------------------------------------------ codec --

TEST(PatternCodec, SuiteRecordRoundTrips) {
  const PatternSweepConfig sweep = QuickSweep();
  const std::string encoded = campaign::EncodePatternSuiteRecord(sweep);
  auto decoded = campaign::DecodePatternRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, campaign::RecordType::kPatternSuite);
  EXPECT_EQ(decoded->suite.benchmarks, sweep.benchmarks);
  EXPECT_EQ(decoded->suite.pattern_counts, sweep.pattern_counts);
  EXPECT_EQ(decoded->suite.seed, sweep.seed);
  EXPECT_EQ(decoded->suite.init_max_cycles, sweep.init_max_cycles);
  // Same config, same bytes: the merge divergence check relies on this.
  EXPECT_EQ(campaign::EncodePatternSuiteRecord(decoded->suite), encoded);
}

TEST(PatternCodec, UnitRecordRoundTrips) {
  SweepUnitResult unit;
  unit.benchmark = 3;
  unit.patterns = 256;
  unit.toggled = 41;
  unit.togglable = 77;
  unit.transitions = 0x123456789abcull;
  unit.init_cycles = 9;
  unit.residual_x = 1;
  unit.dffs = 12;
  const std::string encoded = campaign::EncodePatternUnitRecord(42, unit);
  auto decoded = campaign::DecodePatternRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, campaign::RecordType::kPatternUnit);
  EXPECT_EQ(decoded->unit_id, 42u);
  EXPECT_TRUE(decoded->unit == unit);
}

TEST(PatternCodec, RejectsTruncationAndTrailingBytes) {
  const std::string encoded = campaign::EncodePatternUnitRecord(7, {});
  EXPECT_FALSE(
      campaign::DecodePatternRecord(encoded.substr(0, encoded.size() - 1))
          .ok());
  EXPECT_FALSE(campaign::DecodePatternRecord(encoded + "x").ok());
  EXPECT_FALSE(campaign::DecodePatternRecord("\x09junk").ok());
}

TEST(PatternCodec, ScreeningRecordsRefusedWithPointer) {
  // A screening record fed to the pattern decoder (and vice versa) fails,
  // through the payload table's tag dispatch, with a message that names
  // the right path, not a generic parse error.
  core::ScreeningReport reference;
  auto st = campaign::DecodeRecordAs(
      campaign::PatternPayload(), campaign::EncodeReferenceRecord(reference));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("defect-screening"), std::string::npos);

  auto st2 = campaign::DecodeRecordAs(
      campaign::ScreeningPayload(),
      campaign::EncodePatternSuiteRecord(QuickSweep()));
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(st2.status().message().find("pattern-coverage"), std::string::npos);
}

// -------------------------------------------------------- shard/merge ------

void RunShards(const PatternSweepConfig& sweep,
               const std::vector<std::string>& paths, int threads) {
  auto plan = campaign::PlanPatternSweep(sweep);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (size_t i = 0; i < paths.size(); ++i) {
    std::remove(paths[i].c_str());
    campaign::RunOptions opt;
    opt.shard = {static_cast<uint32_t>(i), static_cast<uint32_t>(paths.size())};
    opt.store_path = paths[i];
    opt.threads = threads;
    auto stats = campaign::RunShard(*plan, opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->total_units, sweep.unit_count());
    EXPECT_EQ(stats->executed, opt.shard.UnitsOf(sweep.unit_count()));
  }
}

TEST(PatternCampaign, ThreeShardsMergeBitIdenticallyAtOddThreadCounts) {
  const PatternSweepConfig sweep = QuickSweep();
  const std::vector<std::string> paths = {TempPath("m0.campaign"),
                                          TempPath("m1.campaign"),
                                          TempPath("m2.campaign")};
  // Odd/mismatched thread counts must not leak into the merged result:
  // records land in completion order, but merge keys on unit ids.
  for (int threads : {1, 3, 5}) {
    RunShards(sweep, paths, threads);
    auto stores = campaign::MergeStores(campaign::PatternPayload(), paths);
    ASSERT_TRUE(stores.ok()) << stores.status().ToString();
    EXPECT_EQ(stores->total_units, sweep.unit_count());
    EXPECT_EQ(stores->shard_count, 3u);
    auto merged = campaign::DecodeMergedSweep(*stores);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_EQ(merged->units.size(), DirectQuickUnits().size());
    for (size_t i = 0; i < merged->units.size(); ++i) {
      EXPECT_TRUE(merged->units[i] == DirectQuickUnits()[i])
          << "unit " << i << " threads=" << threads;
    }
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(PatternCampaign, MergedReportJsonMatchesMonolithicAssembly) {
  // The byte-identity seam itself: the report assembled from merged shard
  // units serializes identically to one assembled from the direct run.
  const PatternSweepConfig sweep = QuickSweep();
  const std::vector<std::string> paths = {TempPath("r0.campaign"),
                                          TempPath("r1.campaign")};
  RunShards(sweep, paths, 2);
  auto stores = campaign::MergeStores(campaign::PatternPayload(), paths);
  ASSERT_TRUE(stores.ok()) << stores.status().ToString();
  auto merged = campaign::DecodeMergedSweep(*stores);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  report::Report from_merge(testgen::kPatternCoverageExperiment,
                            testgen::kPatternCoveragePaperRef,
                            testgen::kPatternCoverageSummary);
  testgen::FillPatternCoverageReport(merged->sweep, merged->units, from_merge);
  report::Report from_direct(testgen::kPatternCoverageExperiment,
                             testgen::kPatternCoveragePaperRef,
                             testgen::kPatternCoverageSummary);
  testgen::FillPatternCoverageReport(sweep, DirectQuickUnits(), from_direct);
  EXPECT_EQ(from_merge.ToJson().Dump(), from_direct.ToJson().Dump());

  auto manifest = campaign::PatternPayload().manifest(*stores);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->experiment(), "pattern_campaign_manifest");
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(PatternCampaign, TruncatedStoreResumesToSameResult) {
  const PatternSweepConfig sweep = QuickSweep();
  const std::string path = TempPath("trunc.campaign");
  std::vector<std::string> paths = {path};
  RunShards(sweep, paths, 1);
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());

  // Cut the store mid-record at several points; resume must complete it
  // and merge must reproduce the monolithic units every time.
  std::mt19937 rng(20260809);  // seeded: failures reproduce exactly
  std::uniform_int_distribution<uint64_t> cut(campaign::kStoreHeaderBytes + 1,
                                              *size - 1);
  for (int iter = 0; iter < 4; ++iter) {
    const uint64_t at = cut(rng);
    {
      util::Status st = util::TruncateFile(path, at);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    campaign::RunOptions opt;
    opt.store_path = path;
    auto stats = campaign::RunShard(*campaign::PlanPatternSweep(sweep), opt);
    ASSERT_TRUE(stats.ok()) << "cut at " << at << ": "
                            << stats.status().ToString();
    EXPECT_TRUE(stats->resumed);
    auto merged = MergePattern({path});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    for (size_t i = 0; i < merged->units.size(); ++i) {
      EXPECT_TRUE(merged->units[i] == DirectQuickUnits()[i])
          << "unit " << i << " cut at " << at;
    }
  }
  std::remove(path.c_str());
}

TEST(PatternCampaign, RefusesForeignAndMismatchedStores) {
  const PatternSweepConfig sweep = QuickSweep();
  const std::string path = TempPath("foreign.campaign");
  std::vector<std::string> paths = {path};
  RunShards(sweep, paths, 1);

  // Same store, different sweep: the fingerprint must refuse the resume.
  PatternSweepConfig other = sweep;
  other.seed ^= 1;
  campaign::RunOptions opt;
  opt.store_path = path;
  auto stats = campaign::RunShard(*campaign::PlanPatternSweep(other), opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("fingerprint"), std::string::npos);

  // A pattern store through the screening merge fails with a pointer to
  // the pattern path, not a parse error.
  auto screening_merge = campaign::MergeCampaignStores({path});
  ASSERT_FALSE(screening_merge.ok());
  EXPECT_NE(screening_merge.status().message().find("pattern-coverage"),
            std::string::npos);
  auto is_pattern = campaign::StorePayload(path);
  ASSERT_TRUE(is_pattern.ok()) << is_pattern.status().ToString();
  EXPECT_EQ(*is_pattern, &campaign::PatternPayload());

  // And a screening store through the pattern merge, symmetrically.
  const std::string screening_path = TempPath("screening.campaign");
  std::remove(screening_path.c_str());
  campaign::CampaignOptions sopt;
  auto preset = campaign::ScreeningPreset("quick");
  ASSERT_TRUE(preset.ok());
  sopt.screening = *preset;
  sopt.screening.threads = 1;
  sopt.store_path = screening_path;
  auto sstats = campaign::RunScreeningCampaign(sopt);
  ASSERT_TRUE(sstats.ok()) << sstats.status().ToString();
  auto pattern_merge = MergePattern({screening_path});
  ASSERT_FALSE(pattern_merge.ok());
  EXPECT_NE(pattern_merge.status().message().find("defect-screening"),
            std::string::npos);
  auto is_pattern2 = campaign::StorePayload(screening_path);
  ASSERT_TRUE(is_pattern2.ok()) << is_pattern2.status().ToString();
  EXPECT_NE(*is_pattern2, &campaign::PatternPayload());

  std::remove(path.c_str());
  std::remove(screening_path.c_str());
}

TEST(PatternCampaign, MergeRefusesIncompleteCoverage) {
  const PatternSweepConfig sweep = QuickSweep();
  const std::vector<std::string> paths = {TempPath("i0.campaign"),
                                          TempPath("i1.campaign")};
  RunShards(sweep, paths, 1);
  // Only shard 0: half the universe is missing.
  auto merged = MergePattern({paths[0]});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("incomplete"), std::string::npos);
  // Shard 0 twice: duplicate units.
  auto dup = MergePattern({paths[0], paths[0]});
  ASSERT_FALSE(dup.ok());
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(PatternCampaign, PresetValidation) {
  EXPECT_EQ(campaign::PayloadForPreset("pattern_quick"),
            &campaign::PatternPayload());
  EXPECT_EQ(campaign::PayloadForPreset("pattern_coverage"),
            &campaign::PatternPayload());
  EXPECT_NE(campaign::PayloadForPreset("quick"), &campaign::PatternPayload());
  EXPECT_NE(campaign::PayloadForPreset("coverage_comparison"),
            &campaign::PatternPayload());
  EXPECT_FALSE(campaign::PatternSweepPreset("pattern_nope").ok());
  auto full = campaign::PatternSweepPreset("pattern_coverage");
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->unit_count(), 0u);
}

// ------------------------------------------- real SIGKILL'd child process --

#ifdef CAMPAIGN_RUN_BIN

int RunChild(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(PatternCampaign, SigkilledChildResumesBitIdentically) {
  const std::string bin = CAMPAIGN_RUN_BIN;
  const std::string path = TempPath("child.campaign");
  const std::string base =
      bin + " --store " + path + " --preset pattern_quick --threads 2";

  // Final store size of an uninterrupted run bounds the injection points.
  std::remove(path.c_str());
  ASSERT_EQ(RunChild(base), 0);
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());

  std::mt19937 rng(8675309);  // seeded: failures reproduce exactly
  std::uniform_int_distribution<uint64_t> cut(campaign::kStoreHeaderBytes + 1,
                                              *size - 1);
  for (int iter = 0; iter < 3; ++iter) {
    const uint64_t at = cut(rng);
    std::remove(path.c_str());
    // The child SIGKILLs itself mid-write at `at` bytes: shell reports 137.
    ASSERT_EQ(RunChild(base + " --abort-after-bytes " + std::to_string(at)),
              137)
        << "injection at " << at;
    auto partial = util::FileSizeOf(path);
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(*partial, at) << "torn write should stop at the kill point";
    ASSERT_EQ(RunChild(base + " --resume"), 0) << "resume after kill at " << at;
    auto merged = MergePattern({path});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_EQ(merged->units.size(), DirectQuickUnits().size());
    for (size_t i = 0; i < merged->units.size(); ++i) {
      EXPECT_TRUE(merged->units[i] == DirectQuickUnits()[i])
          << "unit " << i << " kill at " << at;
    }
  }
  std::remove(path.c_str());
}

#endif  // CAMPAIGN_RUN_BIN

}  // namespace
}  // namespace cmldft
