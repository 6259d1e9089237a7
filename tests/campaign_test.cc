// Campaign runtime tests: CRC/hash primitives, shard planning, record
// codec round-trips, store scan/torn-tail recovery, and the headline
// durability invariant — kill (in-process truncation or a real SIGKILL'd
// child process) anywhere, resume, merge, and the recombined report is
// bit-identical to an uninterrupted monolithic run at any thread count.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/codec.h"
#include "campaign/merge.h"
#include "campaign/payload.h"
#include "campaign/planner.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "core/screening.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/hash.h"

namespace cmldft {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cmldft_campaign_" + name;
}

core::ScreeningOptions QuickOptions(int threads = 1) {
  auto opt = campaign::ScreeningPreset("quick");
  EXPECT_TRUE(opt.ok());
  opt->threads = threads;
  return *opt;
}

/// Bit-exact encoding of an entire report (reference + every outcome in
/// order) — two reports are equivalent iff these strings are equal.
std::string EncodeWholeReport(const core::ScreeningReport& r) {
  std::string s = campaign::EncodeReferenceRecord(r);
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    s += campaign::EncodeOutcomeRecord(i, r.outcomes[i]);
  }
  return s;
}

/// The monolithic in-memory run every campaign result must reproduce.
const core::ScreeningReport& DirectQuickReport() {
  static const core::ScreeningReport report = [] {
    auto r = core::ScreenBufferChain(QuickOptions());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }();
  return report;
}

// ------------------------------------------------------------ primitives --

TEST(Crc32, KnownVectors) {
  const char check[] = "123456789";
  EXPECT_EQ(util::Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("", 0), 0x00000000u);
  // Incremental == one-shot.
  uint32_t st = util::Crc32Init();
  st = util::Crc32Update(st, check, 4);
  st = util::Crc32Update(st, check + 4, 5);
  EXPECT_EQ(util::Crc32Final(st), 0xCBF43926u);
}

TEST(ContentHasher, StableAndSensitive) {
  EXPECT_EQ(util::ContentHasher().Digest(), 0xCBF29CE484222325ull);
  const uint64_t a = util::ContentHasher().Str("ab").U64(1).Digest();
  EXPECT_EQ(util::ContentHasher().Str("ab").U64(1).Digest(), a);
  EXPECT_NE(util::ContentHasher().Str("ab").U64(2).Digest(), a);
  // Length prefixing: ("ab","c") and ("a","bc") must differ.
  EXPECT_NE(util::ContentHasher().Str("ab").Str("c").Digest(),
            util::ContentHasher().Str("a").Str("bc").Digest());
}

TEST(ShardPlan, ParseAndErrors) {
  auto p = campaign::ParseShardSpec("2/5");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->index, 2u);
  EXPECT_EQ(p->count, 5u);
  EXPECT_EQ(p->ToString(), "2/5");
  for (const char* bad : {"", "3", "a/b", "1/", "/4", "5/5", "7/4", "0/0",
                          "-1/4", "1/4x"}) {
    EXPECT_FALSE(campaign::ParseShardSpec(bad).ok()) << bad;
  }
}

TEST(ShardPlan, PartitionsUniverseExactly) {
  const uint64_t total = 23;
  for (uint32_t count : {1u, 2u, 3u, 7u}) {
    uint64_t covered = 0;
    for (uint64_t id = 0; id < total; ++id) {
      int owners = 0;
      for (uint32_t i = 0; i < count; ++i) {
        if (campaign::ShardPlan{i, count}.Contains(id)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "id " << id << " count " << count;
    }
    for (uint32_t i = 0; i < count; ++i) {
      covered += campaign::ShardPlan{i, count}.UnitsOf(total);
    }
    EXPECT_EQ(covered, total) << "count " << count;
  }
}

// ----------------------------------------------------------------- codec --

core::DefectOutcome SampleOutcome() {
  core::DefectOutcome o;
  o.defect.type = defects::DefectType::kBridge;
  o.defect.device = "x1.q2";
  o.defect.terminal_a = 1;
  o.defect.terminal_b = 2;
  o.defect.node_a = "x1.op";
  o.defect.node_b = "x2.opb";
  o.defect.resistance = 123.5;
  o.converged = true;
  o.logic_fail = true;
  o.iddq_fail = true;
  o.max_gate_amplitude = 0.31;
  o.min_detector_vout = -1.25;
  o.detector_vouts = {0.0, -0.5, 3.25};
  o.supply_current = 1.5e-3;
  return o;
}

TEST(Codec, OutcomeRoundTripsBitIdentically) {
  const core::DefectOutcome o = SampleOutcome();
  const std::string payload = campaign::EncodeOutcomeRecord(42, o);
  auto rec = campaign::DecodeRecord(payload);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->type, campaign::RecordType::kOutcome);
  EXPECT_EQ(rec->unit_id, 42u);
  EXPECT_EQ(campaign::EncodeOutcomeRecord(42, rec->outcome), payload);
  EXPECT_EQ(rec->outcome.defect.Id(), o.defect.Id());
  EXPECT_EQ(rec->outcome.detector_vouts, o.detector_vouts);
}

TEST(Codec, FailedOutcomeKeepsSolverError) {
  core::DefectOutcome o;
  o.converged = false;
  o.error = "newton diverged at t=1.2e-9 (node \"x1.op\")";
  const std::string payload = campaign::EncodeOutcomeRecord(7, o);
  auto rec = campaign::DecodeRecord(payload);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->outcome.error, o.error);
  EXPECT_FALSE(rec->outcome.converged);
}

TEST(Codec, ReferenceRoundTrip) {
  core::ScreeningReport r;
  r.nominal_swing = 0.41;
  r.reference_delay = 6.25e-11;
  r.reference_detector_vout = 3.2;
  r.reference_supply_current = 4.1e-3;
  r.reference_detector_vouts = {3.2, 3.19};
  const std::string payload = campaign::EncodeReferenceRecord(r);
  auto rec = campaign::DecodeRecord(payload);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->type, campaign::RecordType::kReference);
  EXPECT_EQ(campaign::EncodeReferenceRecord(rec->reference), payload);
}

TEST(Codec, RejectsTruncatedTrailingAndUnknown) {
  const std::string payload = campaign::EncodeOutcomeRecord(3, SampleOutcome());
  // Every strict prefix must be rejected, never mis-decoded.
  for (size_t n : {size_t{0}, size_t{1}, payload.size() / 2,
                   payload.size() - 1}) {
    EXPECT_FALSE(campaign::DecodeRecord(payload.substr(0, n)).ok()) << n;
  }
  EXPECT_FALSE(campaign::DecodeRecord(payload + "x").ok());
  std::string unknown = payload;
  unknown[0] = 99;
  EXPECT_FALSE(campaign::DecodeRecord(unknown).ok());
}

TEST(Codec, FingerprintSeesOptionsAndUniverseButNotThreads) {
  core::ScreeningOptions opt = QuickOptions();
  const auto universe = core::ScreeningUniverse(opt);
  ASSERT_FALSE(universe.empty());
  const uint64_t base = campaign::CampaignFingerprint(opt, universe);

  core::ScreeningOptions threads = opt;
  threads.threads = 7;
  EXPECT_EQ(campaign::CampaignFingerprint(threads, universe), base);

  core::ScreeningOptions tweaked = opt;
  tweaked.sim_time *= 2;
  EXPECT_NE(campaign::CampaignFingerprint(tweaked, universe), base);

  auto fewer = universe;
  fewer.pop_back();
  EXPECT_NE(campaign::CampaignFingerprint(opt, fewer), base);

  auto mutated = universe;
  mutated[0].resistance += 1.0;
  EXPECT_NE(campaign::CampaignFingerprint(opt, mutated), base);
}

TEST(Screening, UniverseIsStableAndMatchesDirectRun) {
  const auto a = core::ScreeningUniverse(QuickOptions());
  const auto b = core::ScreeningUniverse(QuickOptions());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Id(), b[i].Id()) << i;
  }
  EXPECT_EQ(static_cast<int>(a.size()), DirectQuickReport().total());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Id(), DirectQuickReport().outcomes[i].defect.Id()) << i;
  }
}

// ----------------------------------------------------------------- store --

campaign::StoreHeader TestHeader() {
  campaign::StoreHeader h;
  h.fingerprint = 0xDEADBEEFCAFEF00Dull;
  h.shard_index = 1;
  h.shard_count = 4;
  h.total_units = 99;
  return h;
}

std::vector<std::string> WriteTestStore(const std::string& path, int records) {
  auto w = campaign::StoreWriter::Create(path, TestHeader());
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  std::vector<std::string> payloads;
  for (int i = 0; i < records; ++i) {
    payloads.push_back(campaign::EncodeOutcomeRecord(i, SampleOutcome()));
    EXPECT_TRUE(w->AppendRecord(payloads.back()).ok());
  }
  EXPECT_TRUE(w->Close().ok());
  return payloads;
}

TEST(Store, WriteScanRoundTrip) {
  const std::string path = TempPath("roundtrip.campaign");
  const auto payloads = WriteTestStore(path, 5);
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->header.fingerprint, TestHeader().fingerprint);
  EXPECT_EQ(scan->header.shard_index, 1u);
  EXPECT_EQ(scan->header.shard_count, 4u);
  EXPECT_EQ(scan->header.total_units, 99u);
  ASSERT_EQ(scan->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan->records[i], payloads[i]) << i;
  }
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(scan->valid_bytes, *size);
  std::remove(path.c_str());
}

TEST(Store, TornTailAtEveryTruncationPoint) {
  const std::string path = TempPath("torn.campaign");
  WriteTestStore(path, 3);
  auto full = campaign::ScanStore(path);
  ASSERT_TRUE(full.ok());
  const uint64_t full_size = full->valid_bytes;

  // Truncating anywhere inside the record region must yield the longest
  // valid record prefix and flag (only) a mid-record cut as torn.
  for (uint64_t cut = campaign::kStoreHeaderBytes; cut < full_size; ++cut) {
    WriteTestStore(path, 3);
    ASSERT_TRUE(util::TruncateFile(path, cut).ok());
    auto scan = campaign::ScanStore(path);
    ASSERT_TRUE(scan.ok()) << "cut " << cut << ": "
                           << scan.status().ToString();
    EXPECT_LE(scan->valid_bytes, cut);
    EXPECT_EQ(scan->torn_tail, scan->valid_bytes != cut) << "cut " << cut;
    for (size_t i = 0; i < scan->records.size(); ++i) {
      EXPECT_EQ(scan->records[i], full->records[i]);
    }
    if (scan->torn_tail) {
      ASSERT_TRUE(campaign::RepairStore(path, *scan).ok());
      auto rescan = campaign::ScanStore(path);
      ASSERT_TRUE(rescan.ok());
      EXPECT_FALSE(rescan->torn_tail);
      EXPECT_EQ(rescan->records.size(), scan->records.size());
    }
  }
  std::remove(path.c_str());
}

TEST(Store, CorruptRecordCrcStopsTheScan) {
  const std::string path = TempPath("crc.campaign");
  const auto payloads = WriteTestStore(path, 3);
  // Flip one payload byte of the second record (header + rec0 + frame + 1).
  const uint64_t off = campaign::kStoreHeaderBytes + 8 + payloads[0].size() +
                       8 + payloads[1].size() / 2;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(off));
  const char flipped = static_cast<char>(f.get() ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(off));
  f.put(flipped);
  f.close();
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 1u);  // only the first record survives
  std::remove(path.c_str());
}

TEST(Store, HeaderCorruptionIsAHardError) {
  const std::string path = TempPath("header.campaign");

  // Too short to hold a header.
  { std::ofstream(path, std::ios::binary) << "CMLCAMP1"; }
  EXPECT_FALSE(campaign::ScanStore(path).ok());

  // Wrong magic.
  WriteTestStore(path, 1);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  EXPECT_FALSE(campaign::ScanStore(path).ok());

  // Valid magic but corrupted header body (CRC mismatch).
  WriteTestStore(path, 1);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\x7E');
  }
  EXPECT_FALSE(campaign::ScanStore(path).ok());

  EXPECT_FALSE(campaign::ScanStore(TempPath("nonexistent.campaign")).ok());
  std::remove(path.c_str());
}

// ----------------------------------------------------- payload table --

TEST(PayloadTable, EveryPresetAndTagHasExactlyOneOwner) {
  const auto& table = campaign::Payloads();
  ASSERT_EQ(table.size(), 3u);
  for (const campaign::Payload* p : table) {
    for (const campaign::Payload* q : table) {
      if (q != p) {
        EXPECT_NE(q->name, p->name);
      }
    }
    EXPECT_NE(p->singleton_type, p->unit_type) << p->name;
    for (std::string_view preset : p->presets) {
      int owners = 0;
      for (const campaign::Payload* q : table) {
        for (std::string_view other : q->presets) owners += other == preset;
      }
      EXPECT_EQ(owners, 1) << preset;
      EXPECT_EQ(campaign::PayloadForPreset(preset), p) << preset;
    }
  }
  // Every byte value: at most one owner, and each registered tag has one.
  for (int tag = 0; tag < 256; ++tag) {
    int owners = 0;
    for (const campaign::Payload* p : table) {
      owners += tag == static_cast<int>(p->singleton_type);
      owners += tag == static_cast<int>(p->unit_type);
    }
    EXPECT_LE(owners, 1) << "tag " << tag;
    const campaign::Payload* owner =
        campaign::PayloadForTag(static_cast<uint8_t>(tag));
    EXPECT_EQ(owner != nullptr, owners == 1) << "tag " << tag;
  }
  EXPECT_EQ(campaign::PayloadForPreset("no_such_preset"), nullptr);
  auto unknown = campaign::PlanPreset("no_such_preset");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("pattern_quick"),
            std::string::npos);
}

// ------------------------------------------------- campaign end-to-end --

TEST(Campaign, SingleShardMatchesDirectRunBitIdentically) {
  const std::string path = TempPath("single.campaign");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.store_path = path;
  auto stats = campaign::RunScreeningCampaign(opt);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->executed, stats->total_units);
  EXPECT_FALSE(stats->resumed);

  auto merged = campaign::MergeCampaignStores({path});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(EncodeWholeReport(merged->report),
            EncodeWholeReport(DirectQuickReport()));
  std::remove(path.c_str());
}

TEST(Campaign, ThreeShardsMergeBitIdenticallyAtSevenThreads) {
  std::vector<std::string> paths;
  for (uint32_t i = 0; i < 3; ++i) {
    const std::string path =
        TempPath("shard" + std::to_string(i) + ".campaign");
    std::remove(path.c_str());
    campaign::CampaignOptions opt;
    opt.screening = QuickOptions(/*threads=*/7);
    opt.shard = {i, 3};
    opt.store_path = path;
    auto stats = campaign::RunScreeningCampaign(opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->executed, stats->shard_units);
    paths.push_back(path);
  }
  // Merge order must not matter.
  auto merged = campaign::MergeCampaignStores({paths[2], paths[0], paths[1]});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->shard_count, 3u);
  EXPECT_EQ(EncodeWholeReport(merged->report),
            EncodeWholeReport(DirectQuickReport()));
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(Campaign, TruncateResumeLoopStaysBitIdentical) {
  const std::string pristine = TempPath("pristine.campaign");
  std::remove(pristine.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.store_path = pristine;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  auto size = util::FileSizeOf(pristine);
  ASSERT_TRUE(size.ok());
  auto bytes = util::ReadFileBytes(pristine);
  ASSERT_TRUE(bytes.ok());

  const std::string path = TempPath("resume.campaign");
  std::mt19937 rng(20260806);  // seeded: failures reproduce exactly
  std::uniform_int_distribution<uint64_t> cut(campaign::kStoreHeaderBytes,
                                              *size - 1);
  for (int iter = 0; iter < 5; ++iter) {
    const uint64_t at = cut(rng);
    std::remove(path.c_str());
    {
      std::ofstream f(path, std::ios::binary);
      f.write(bytes->data(), static_cast<std::streamoff>(at));
    }
    campaign::CampaignOptions ropt = opt;
    ropt.store_path = path;
    auto stats = campaign::RunScreeningCampaign(ropt);
    ASSERT_TRUE(stats.ok()) << "cut " << at << ": "
                            << stats.status().ToString();
    EXPECT_TRUE(stats->resumed);
    EXPECT_EQ(stats->resumed_skips + stats->executed, stats->shard_units);
    auto merged = campaign::MergeCampaignStores({path});
    ASSERT_TRUE(merged.ok()) << "cut " << at << ": "
                             << merged.status().ToString();
    EXPECT_EQ(EncodeWholeReport(merged->report),
              EncodeWholeReport(DirectQuickReport()))
        << "cut " << at;
  }
  std::remove(path.c_str());
  std::remove(pristine.c_str());
}

TEST(Campaign, ResumeOfCompleteShardExecutesNothing) {
  const std::string path = TempPath("complete.campaign");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  auto again = campaign::RunScreeningCampaign(opt);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->resumed);
  EXPECT_EQ(again->executed, 0u);
  EXPECT_EQ(again->resumed_skips, again->shard_units);
  std::remove(path.c_str());
}

TEST(Campaign, RefusesForeignStore) {
  const std::string path = TempPath("foreign.campaign");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());

  // Same store, different screening configuration: fingerprint mismatch.
  campaign::CampaignOptions other = opt;
  other.screening.sim_time *= 2;
  auto r = campaign::RunScreeningCampaign(other);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("fingerprint"), std::string::npos);

  // Same configuration, different shard plan.
  campaign::CampaignOptions shard = opt;
  shard.shard = {0, 2};
  r = campaign::RunScreeningCampaign(shard);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("shard"), std::string::npos);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- merge --

TEST(Merge, MissingShardIsAHardError) {
  const std::string path = TempPath("half.campaign");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.shard = {0, 2};
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  auto merged = campaign::MergeCampaignStores({path});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("missing"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Merge, DuplicateStoreIsAHardError) {
  const std::string path = TempPath("dup.campaign");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  auto merged = campaign::MergeCampaignStores({path, path});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("already provided"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Merge, TruncatedStoreNeverInflatesCoverage) {
  // Satellite guarantee: a torn (incomplete) shard makes the merge FAIL;
  // it can never be silently folded in as "covered".
  const std::string path = TempPath("inflate.campaign");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::TruncateFile(path, *size - 3).ok());  // torn tail
  auto merged = campaign::MergeCampaignStores({path});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("torn"), std::string::npos);

  // Cleanly repaired but still incomplete: equally fatal.
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(campaign::RepairStore(path, *scan).ok());
  merged = campaign::MergeCampaignStores({path});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("missing"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Merge, MismatchedFingerprintsRefuse) {
  const std::string a = TempPath("fpa.campaign");
  const std::string b = TempPath("fpb.campaign");
  std::remove(a.c_str());
  std::remove(b.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.shard = {0, 2};
  opt.store_path = a;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  opt.screening.sim_time *= 2;  // different campaign
  opt.shard = {1, 2};
  opt.store_path = b;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  auto merged = campaign::MergeCampaignStores({a, b});
  ASSERT_FALSE(merged.ok());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, DivergentReferenceRefuses) {
  const std::string a = TempPath("refa.campaign");
  const std::string b = TempPath("refb.campaign");
  std::remove(a.c_str());
  std::remove(b.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.shard = {0, 2};
  opt.store_path = a;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  opt.shard = {1, 2};
  opt.store_path = b;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());

  // Rebuild store b with a perturbed reference record: as if the shard ran
  // on a different engine build.
  auto scan = campaign::ScanStore(b);
  ASSERT_TRUE(scan.ok());
  auto wr = campaign::StoreWriter::Create(b, scan->header);
  ASSERT_TRUE(wr.ok());
  for (const std::string& payload : scan->records) {
    auto rec = campaign::DecodeRecord(payload);
    ASSERT_TRUE(rec.ok());
    if (rec->type == campaign::RecordType::kReference) {
      rec->reference.nominal_swing += 1e-9;
      ASSERT_TRUE(
          wr->AppendRecord(campaign::EncodeReferenceRecord(rec->reference))
              .ok());
    } else {
      ASSERT_TRUE(wr->AppendRecord(payload).ok());
    }
  }
  ASSERT_TRUE(wr->Close().ok());

  auto merged = campaign::MergeCampaignStores({a, b});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("reference"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --------------------------------------------- child-process kill -9 --

#ifdef CAMPAIGN_RUN_BIN

int RunChild(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Campaign, SigkilledChildResumesBitIdentically) {
  const std::string bin = CAMPAIGN_RUN_BIN;
  const std::string path = TempPath("child.campaign");
  const std::string base =
      bin + " --store " + path + " --preset quick --threads 2";

  // Final store size of an uninterrupted run bounds the injection points.
  std::remove(path.c_str());
  ASSERT_EQ(RunChild(base), 0);
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());

  std::mt19937 rng(424242);  // seeded: failures reproduce exactly
  std::uniform_int_distribution<uint64_t> cut(campaign::kStoreHeaderBytes + 1,
                                              *size - 1);
  for (int iter = 0; iter < 3; ++iter) {
    const uint64_t at = cut(rng);
    std::remove(path.c_str());
    // The child SIGKILLs itself mid-write at `at` bytes: shell reports 137.
    ASSERT_EQ(RunChild(base + " --abort-after-bytes " +
                       std::to_string(at)),
              137)
        << "injection at " << at;
    auto partial = util::FileSizeOf(path);
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(*partial, at) << "torn write should stop at the kill point";
    ASSERT_EQ(RunChild(base + " --resume"), 0) << "resume after kill at " << at;
    auto merged = campaign::MergeCampaignStores({path});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(EncodeWholeReport(merged->report),
              EncodeWholeReport(DirectQuickReport()))
        << "kill at " << at;
  }
  std::remove(path.c_str());
}

#endif  // CAMPAIGN_RUN_BIN

#ifdef CAMPAIGN_MERGE_BIN

TEST(CampaignMergeCli, CoverageReportNeedsARegisteredScreeningPreset) {
  const std::string path = TempPath("cover.campaign");
  const std::string report = TempPath("cover.json");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions(2);
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  const std::string merge = std::string(CAMPAIGN_MERGE_BIN) +
                            " --coverage-report " + report + " " + path +
                            " >/dev/null 2>&1";
  // The quick store's fingerprint picks the quick preset's thresholds.
  EXPECT_EQ(std::system(merge.c_str()), 0);

  // Same records under a fingerprint no preset has: merging still works,
  // the coverage report is refused.
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok());
  campaign::StoreHeader header = scan->header;
  header.fingerprint ^= 1;
  auto wr = campaign::StoreWriter::Create(path, header);
  ASSERT_TRUE(wr.ok());
  for (const std::string& record : scan->records) {
    ASSERT_TRUE(wr->AppendRecord(record).ok());
  }
  ASSERT_TRUE(wr->Close().ok());
  const int refused = std::system(merge.c_str());
  ASSERT_TRUE(WIFEXITED(refused));
  EXPECT_EQ(WEXITSTATUS(refused), 1);
  EXPECT_EQ(std::system((std::string(CAMPAIGN_MERGE_BIN) + " " + path +
                         " >/dev/null 2>&1")
                            .c_str()),
            0);
  std::remove(path.c_str());
  std::remove(report.c_str());
}

#endif  // CAMPAIGN_MERGE_BIN

}  // namespace
}  // namespace cmldft
