// Characterization campaign tests: record codec round-trips, Monte-Carlo
// sampling statistics, shard bit-identity at odd thread counts, kill/resume
// durability (in-process truncation and a real SIGKILL'd child), store-kind
// cross-refusal, and the report byte-identity seam shared with the
// monolithic bench.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "campaign/characterize_campaign.h"
#include "campaign/merge.h"
#include "campaign/pattern_campaign.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "cml/variation.h"
#include "core/characterize.h"
#include "report/report.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace cmldft {
namespace {

using core::CharacterizationConfig;
using core::CharacterizationUnitResult;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cmldft_characterize_" + name;
}

CharacterizationConfig QuickConfig() {
  auto config = campaign::CharacterizationPreset("characterization_quick");
  EXPECT_TRUE(config.ok());
  return *config;
}

/// The monolithic in-memory evaluation every campaign must reproduce.
const std::vector<CharacterizationUnitResult>& DirectQuickUnits() {
  static const std::vector<CharacterizationUnitResult> units = [] {
    const CharacterizationConfig config = QuickConfig();
    std::vector<CharacterizationUnitResult> out;
    for (uint64_t id = 0; id < config.unit_count(); ++id) {
      auto unit = core::EvaluateCharacterizationUnit(config, id);
      EXPECT_TRUE(unit.ok()) << unit.status().ToString();
      out.push_back(*unit);
    }
    return out;
  }();
  return units;
}

// ------------------------------------------------------------------ codec --

TEST(CharacterizationCodec, SuiteRecordRoundTrips) {
  const CharacterizationConfig config = QuickConfig();
  const std::string encoded =
      campaign::EncodeCharacterizationSuiteRecord(config);
  auto decoded = campaign::DecodeCharacterizationRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, campaign::RecordType::kCharacterizationSuite);
  EXPECT_EQ(decoded->suite.temperatures_c, config.temperatures_c);
  EXPECT_EQ(decoded->suite.supplies, config.supplies);
  EXPECT_EQ(decoded->suite.vtests, config.vtests);
  EXPECT_EQ(decoded->suite.trials, config.trials);
  EXPECT_EQ(decoded->suite.seed, config.seed);
  EXPECT_EQ(decoded->suite.variation.load_resistance_spread,
            config.variation.load_resistance_spread);
  EXPECT_EQ(decoded->suite.variation.wire_cap_spread,
            config.variation.wire_cap_spread);
  EXPECT_EQ(decoded->suite.variation.is_spread, config.variation.is_spread);
  EXPECT_EQ(decoded->suite.variation.beta_spread,
            config.variation.beta_spread);
  EXPECT_EQ(decoded->suite.excursion_levels, config.excursion_levels);
  EXPECT_EQ(decoded->suite.response_window, config.response_window);
  EXPECT_EQ(decoded->suite.response_load_cap, config.response_load_cap);
  EXPECT_EQ(decoded->suite.load_gates, config.load_gates);
  EXPECT_EQ(decoded->suite.load_pipe, config.load_pipe);
  EXPECT_EQ(decoded->suite.probe_max, config.probe_max);
  EXPECT_EQ(decoded->suite.probe_step, config.probe_step);
  EXPECT_EQ(decoded->suite.hysteresis_step, config.hysteresis_step);
  // The round-tripped config hashes to the same fingerprint: the merge
  // header cross-check relies on this.
  EXPECT_EQ(core::CharacterizationFingerprint(decoded->suite),
            core::CharacterizationFingerprint(config));
  // Same config, same bytes: the merge divergence check relies on this.
  EXPECT_EQ(campaign::EncodeCharacterizationSuiteRecord(decoded->suite),
            encoded);
}

TEST(CharacterizationCodec, UnitRecordRoundTrips) {
  CharacterizationUnitResult unit;
  unit.corner = 5;
  unit.die = 2;
  unit.v1_static_excursion = 0.62;
  unit.v2_static_excursion = 0.22;
  unit.v2_clean_drop = 0.013;
  unit.v2_dynamic_threshold = 0.2967;
  unit.trip_up = 3.552;
  unit.trip_down = 3.544;
  unit.vfb_pass = 3.1;
  unit.vfb_fail = 2.9;
  unit.hysteresis_found = true;
  unit.load_clean_flagged = false;
  unit.load_pipe_flagged = true;
  unit.load_clean_vout = 3.28;
  unit.load_pipe_vout = 2.97;
  unit.measure_failures = 0b10010;
  const std::string encoded =
      campaign::EncodeCharacterizationUnitRecord(42, unit);
  auto decoded = campaign::DecodeCharacterizationRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, campaign::RecordType::kCharacterizationUnit);
  EXPECT_EQ(decoded->unit_id, 42u);
  EXPECT_TRUE(decoded->unit == unit);
}

TEST(CharacterizationCodec, RejectsTruncationAndTrailingBytes) {
  const std::string encoded =
      campaign::EncodeCharacterizationUnitRecord(7, {});
  EXPECT_FALSE(campaign::DecodeCharacterizationRecord(
                   encoded.substr(0, encoded.size() - 1))
                   .ok());
  EXPECT_FALSE(campaign::DecodeCharacterizationRecord(encoded + "x").ok());
  EXPECT_FALSE(campaign::DecodeCharacterizationRecord("\x0ajunk").ok());
}

TEST(CharacterizationCodec, ForeignRecordsRefusedWithPointer) {
  // Records of the other two payloads decoded as characterization records
  // fail FailedPrecondition, through the payload table's tag dispatch, with
  // a message that names the right path — and symmetrically, a
  // characterization record decoded as either other payload.
  core::ScreeningReport reference;
  auto st = campaign::DecodeRecordAs(
      campaign::CharacterizationPayload(),
      campaign::EncodeReferenceRecord(reference));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(st.status().message().find("defect-screening"),
            std::string::npos);

  testgen::PatternSweepConfig sweep;
  sweep.benchmarks = {"counter4"};
  sweep.pattern_counts = {8};
  auto st2 = campaign::DecodeRecordAs(
      campaign::CharacterizationPayload(),
      campaign::EncodePatternSuiteRecord(sweep));
  ASSERT_FALSE(st2.ok());
  EXPECT_EQ(st2.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(st2.status().message().find("pattern-coverage"),
            std::string::npos);

  const std::string suite =
      campaign::EncodeCharacterizationSuiteRecord(QuickConfig());
  auto st3 = campaign::DecodeRecordAs(campaign::ScreeningPayload(), suite);
  ASSERT_FALSE(st3.ok());
  EXPECT_EQ(st3.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(st3.status().message().find("characterization"),
            std::string::npos);
  auto st4 = campaign::DecodeRecordAs(campaign::PatternPayload(), suite);
  ASSERT_FALSE(st4.ok());
  EXPECT_EQ(st4.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(st4.status().message().find("characterization"),
            std::string::npos);
}

// ------------------------------------------------------ sampling statistics --

TEST(CharacterizationStatistics, SampledParameterMomentsMatchModel) {
  // Each variation parameter multiplies its nominal by 1 + U(-s, +s):
  // empirical mean multiplier must sit at 1.0 and the standard deviation
  // at s/sqrt(3) (the uniform distribution's second moment) over a large
  // draw count. Catches a mis-wired spread or a distribution swap.
  cml::CmlTechnology nominal;
  cml::VariationModel model;
  model.beta_spread = 0.08;  // enable the conditional fourth draw
  util::Rng rng(0x5EED5u);
  const int kDraws = 10000;

  struct Moments {
    double sum = 0.0, sumsq = 0.0;
    void Add(double x) { sum += x; sumsq += x * x; }
    double mean(int n) const { return sum / n; }
    double stddev(int n) const {
      const double m = mean(n);
      return std::sqrt(sumsq / n - m * m);
    }
  };
  Moments swing, wire_cap, is, bf;
  for (int i = 0; i < kDraws; ++i) {
    const cml::CmlTechnology t =
        cml::SampleTechnology(nominal, model, rng);
    swing.Add(t.swing / nominal.swing);
    wire_cap.Add(t.wire_cap / nominal.wire_cap);
    is.Add(t.npn.is / nominal.npn.is);
    bf.Add(t.npn.bf / nominal.npn.bf);
  }

  const double inv_sqrt3 = 1.0 / std::sqrt(3.0);
  struct Expectation {
    const Moments* m;
    double spread;
    const char* name;
  };
  for (const Expectation& e :
       {Expectation{&swing, model.load_resistance_spread, "swing"},
        Expectation{&wire_cap, model.wire_cap_spread, "wire_cap"},
        Expectation{&is, model.is_spread, "is"},
        Expectation{&bf, model.beta_spread, "bf"}}) {
    // Mean: standard error is s/sqrt(3*kDraws) ~ s/173; allow 5 of them.
    EXPECT_NEAR(e.m->mean(kDraws), 1.0, 5.0 * e.spread * inv_sqrt3 / 100.0)
        << e.name;
    // Spread: 5% relative comfortably covers the ~0.7% sampling error.
    EXPECT_NEAR(e.m->stddev(kDraws), e.spread * inv_sqrt3,
                0.05 * e.spread * inv_sqrt3)
        << e.name;
  }
}

TEST(CharacterizationStatistics, ZeroBetaSpreadKeepsLegacyStream) {
  // beta_spread = 0 must not consume a draw: the stream after sampling
  // matches a manual three-draw replay, so legacy seeded experiments keep
  // their exact Monte-Carlo sequence.
  cml::CmlTechnology nominal;
  cml::VariationModel model;  // beta_spread defaults to 0
  util::Rng rng_a(99), rng_b(99);
  const cml::CmlTechnology t = cml::SampleTechnology(nominal, model, rng_a);
  EXPECT_EQ(t.npn.bf, nominal.npn.bf);
  for (int i = 0; i < 3; ++i) rng_b.NextDouble(-1.0, 1.0);
  EXPECT_EQ(rng_a.NextDouble(0.0, 1.0), rng_b.NextDouble(0.0, 1.0));
}

// -------------------------------------------------------- shard/merge ------

/// The generic merge over the characterization payload, decoded.
util::StatusOr<campaign::MergedCharacterization> MergeCharacterization(
    const std::vector<std::string>& paths) {
  auto stores =
      campaign::MergeStores(campaign::CharacterizationPayload(), paths);
  if (!stores.ok()) return stores.status();
  return campaign::DecodeMergedCharacterization(*stores);
}

void RunShards(const CharacterizationConfig& config,
               const std::vector<std::string>& paths, int threads) {
  auto plan = campaign::PlanCharacterization(config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (size_t i = 0; i < paths.size(); ++i) {
    std::remove(paths[i].c_str());
    campaign::RunOptions opt;
    opt.shard = {static_cast<uint32_t>(i),
                 static_cast<uint32_t>(paths.size())};
    opt.store_path = paths[i];
    opt.threads = threads;
    auto stats = campaign::RunShard(*plan, opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->total_units, config.unit_count());
    EXPECT_EQ(stats->executed, opt.shard.UnitsOf(config.unit_count()));
  }
}

TEST(CharacterizationCampaign, ThreeShardsMergeBitIdenticallyAtOddThreads) {
  const CharacterizationConfig config = QuickConfig();
  const std::vector<std::string> paths = {TempPath("m0.campaign"),
                                          TempPath("m1.campaign"),
                                          TempPath("m2.campaign")};
  // Odd/mismatched thread counts must not leak into the merged result:
  // records land in completion order, but merge keys on unit ids.
  for (int threads : {1, 3, 5}) {
    RunShards(config, paths, threads);
    auto stores =
        campaign::MergeStores(campaign::CharacterizationPayload(), paths);
    ASSERT_TRUE(stores.ok()) << stores.status().ToString();
    EXPECT_EQ(stores->total_units, config.unit_count());
    EXPECT_EQ(stores->shard_count, 3u);
    auto merged = campaign::DecodeMergedCharacterization(*stores);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_EQ(merged->units.size(), DirectQuickUnits().size());
    for (size_t i = 0; i < merged->units.size(); ++i) {
      EXPECT_TRUE(merged->units[i] == DirectQuickUnits()[i])
          << "unit " << i << " threads=" << threads;
    }
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(CharacterizationCampaign, MergedReportJsonMatchesMonolithicAssembly) {
  // The byte-identity seam itself: the report assembled from merged shard
  // units serializes identically to one assembled from the direct run.
  const CharacterizationConfig config = QuickConfig();
  const std::vector<std::string> paths = {TempPath("r0.campaign"),
                                          TempPath("r1.campaign")};
  RunShards(config, paths, 2);
  auto stores =
      campaign::MergeStores(campaign::CharacterizationPayload(), paths);
  ASSERT_TRUE(stores.ok()) << stores.status().ToString();
  auto merged = campaign::DecodeMergedCharacterization(*stores);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  report::Report from_merge(core::kCharacterizationExperiment,
                            core::kCharacterizationPaperRef,
                            core::kCharacterizationSummary);
  core::FillCharacterizationReport(merged->config, merged->units, from_merge);
  report::Report from_direct(core::kCharacterizationExperiment,
                             core::kCharacterizationPaperRef,
                             core::kCharacterizationSummary);
  core::FillCharacterizationReport(config, DirectQuickUnits(), from_direct);
  EXPECT_EQ(from_merge.ToJson().Dump(), from_direct.ToJson().Dump());

  auto manifest = campaign::CharacterizationPayload().manifest(*stores);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->experiment(), "characterization_campaign_manifest");
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(CharacterizationCampaign, TruncatedStoreResumesToSameResult) {
  const CharacterizationConfig config = QuickConfig();
  const std::string path = TempPath("trunc.campaign");
  std::vector<std::string> paths = {path};
  RunShards(config, paths, 1);
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
    auto stats =
        campaign::RunShard(*campaign::PlanCharacterization(config), opt);
    ASSERT_TRUE(stats.ok()) << "cut at " << at << ": "
                            << stats.status().ToString();
    EXPECT_TRUE(stats->resumed);
    auto merged = MergeCharacterization({path});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    for (size_t i = 0; i < merged->units.size(); ++i) {
      EXPECT_TRUE(merged->units[i] == DirectQuickUnits()[i])
          << "unit " << i << " cut at " << at;
    }
  }
  std::remove(path.c_str());
}

TEST(CharacterizationCampaign, RefusesForeignAndMismatchedStores) {
  const CharacterizationConfig config = QuickConfig();
  const std::string path = TempPath("foreign.campaign");
  std::vector<std::string> paths = {path};
  RunShards(config, paths, 1);

  // Same store, different corner grid: the fingerprint must refuse the
  // resume (a drifted grid silently reusing old units would corrupt the
  // yield surface).
  CharacterizationConfig other = config;
  other.vtests.push_back(3.9);
  campaign::RunOptions opt;
  opt.store_path = path;
  auto stats = campaign::RunShard(*campaign::PlanCharacterization(other), opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("fingerprint"), std::string::npos);

  // Perturbing only the variation seed must also change the fingerprint.
  other = config;
  other.seed ^= 1;
  auto stats2 = campaign::RunShard(*campaign::PlanCharacterization(other), opt);
  ASSERT_FALSE(stats2.ok());
  EXPECT_NE(stats2.status().message().find("fingerprint"),
            std::string::npos);

  // A characterization store through the screening and pattern merges
  // fails with a pointer to the characterization path, not a parse error.
  auto screening_merge = campaign::MergeCampaignStores({path});
  ASSERT_FALSE(screening_merge.ok());
  EXPECT_NE(screening_merge.status().message().find("characterization"),
            std::string::npos);
  auto pattern_merge =
      campaign::MergeStores(campaign::PatternPayload(), {path});
  ASSERT_FALSE(pattern_merge.ok());
  EXPECT_NE(pattern_merge.status().message().find("characterization"),
            std::string::npos);
  auto is_characterization = campaign::StorePayload(path);
  ASSERT_TRUE(is_characterization.ok())
      << is_characterization.status().ToString();
  EXPECT_EQ(*is_characterization, &campaign::CharacterizationPayload());

  // And a screening store through the characterization merge, symmetrically.
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
  auto characterization_merge = MergeCharacterization({screening_path});
  ASSERT_FALSE(characterization_merge.ok());
  EXPECT_EQ(characterization_merge.status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_NE(
      characterization_merge.status().message().find("defect-screening"),
      std::string::npos);
  auto is_characterization2 = campaign::StorePayload(screening_path);
  ASSERT_TRUE(is_characterization2.ok())
      << is_characterization2.status().ToString();
  EXPECT_NE(*is_characterization2, &campaign::CharacterizationPayload());

  std::remove(path.c_str());
  std::remove(screening_path.c_str());
}

TEST(CharacterizationCampaign, MergeRefusesIncompleteCoverage) {
  const CharacterizationConfig config = QuickConfig();
  const std::vector<std::string> paths = {TempPath("i0.campaign"),
                                          TempPath("i1.campaign")};
  RunShards(config, paths, 1);
  // Only shard 0: half the universe is missing.
  auto merged = MergeCharacterization({paths[0]});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("incomplete"), std::string::npos);
  // Shard 0 twice: duplicate units.
  auto dup = MergeCharacterization({paths[0], paths[0]});
  ASSERT_FALSE(dup.ok());
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(CharacterizationCampaign, FingerprintPerturbationTripsTheGolden) {
  // The report embeds the configuration fingerprint as an Exact text
  // scalar, so drifting the variation seed or the vtest grid cannot slip
  // past golden/characterization.json even if every measured voltage
  // happens to stay inside its tolerance. (Verified once against the real
  // golden: flipping the fingerprint makes golden_check report exactly one
  // DRIFT mismatch on 'characterization_fingerprint'.)
  const CharacterizationConfig config = QuickConfig();
  const uint64_t base = core::CharacterizationFingerprint(config);

  CharacterizationConfig seeded = config;
  seeded.seed ^= 1;
  EXPECT_NE(core::CharacterizationFingerprint(seeded), base);

  CharacterizationConfig regrid = config;
  regrid.vtests.push_back(3.9);
  EXPECT_NE(core::CharacterizationFingerprint(regrid), base);

  // And the fingerprint difference reaches the serialized report: same
  // units, perturbed-seed config -> different JSON bytes.
  report::Report a(core::kCharacterizationExperiment,
                   core::kCharacterizationPaperRef,
                   core::kCharacterizationSummary);
  core::FillCharacterizationReport(config, DirectQuickUnits(), a);
  report::Report b(core::kCharacterizationExperiment,
                   core::kCharacterizationPaperRef,
                   core::kCharacterizationSummary);
  core::FillCharacterizationReport(seeded, DirectQuickUnits(), b);
  EXPECT_NE(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(CharacterizationCampaign, PresetValidation) {
  EXPECT_EQ(campaign::PayloadForPreset("characterization"),
            &campaign::CharacterizationPayload());
  EXPECT_EQ(campaign::PayloadForPreset("characterization_quick"),
            &campaign::CharacterizationPayload());
  EXPECT_NE(campaign::PayloadForPreset("quick"),
            &campaign::CharacterizationPayload());
  EXPECT_NE(campaign::PayloadForPreset("pattern_quick"),
            &campaign::CharacterizationPayload());
  EXPECT_FALSE(campaign::CharacterizationPreset("characterization_nope").ok());
  auto full = campaign::CharacterizationPreset("characterization");
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->unit_count(), 0u);
  // Both presets carry the paper's nominal detection points on the yield
  // surface, and the full grid must include the nominal corner so the
  // report's *_nominal anchors resolve.
  for (const char* name : {"characterization", "characterization_quick"}) {
    auto c = campaign::CharacterizationPreset(name);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(std::find(c->excursion_levels.begin(),
                        c->excursion_levels.end(), 0.35),
              c->excursion_levels.end())
        << name;
    EXPECT_NE(std::find(c->excursion_levels.begin(),
                        c->excursion_levels.end(), 0.57),
              c->excursion_levels.end())
        << name;
  }
}

// ------------------------------------------- real SIGKILL'd child process --

#ifdef CAMPAIGN_RUN_BIN

int RunChild(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CharacterizationCampaign, SigkilledChildResumesBitIdentically) {
  const std::string bin = CAMPAIGN_RUN_BIN;
  const std::string path = TempPath("child.campaign");
  const std::string base = bin + " --store " + path +
                           " --preset characterization_quick --threads 2";

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
    ASSERT_EQ(RunChild(base + " --resume"), 0)
        << "resume after kill at " << at;
    auto merged = MergeCharacterization({path});
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
