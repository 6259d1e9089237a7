// Long-lived campaign scheduler daemon (docs/campaign.md, "Distributed
// service").
//
//   campaign_scheduler --state-dir <dir> [--port N] [--http-port N]
//                      [--port-file <path.json>] [--lease-seconds S]
//                      [--chunk-units N] [--retry-ms N] [--fsync-batch N]
//                      [--submit PRESET[:PRIORITY[:CHUNK_UNITS]]]...
//                      [--idle-exit] [--telemetry <path.json>]
//                      [--abort-after-bytes N]
//
// Owns the durable campaign queue in --state-dir: every submission (and
// every worker-streamed result record) survives a kill -9 of this
// process; restarting with the same state dir resumes exactly where the
// durable bytes end. Ports default to ephemeral; --port-file publishes
// the bound ports as JSON for scripts. --idle-exit makes the daemon exit
// 0 once every campaign is complete and the last worker has drained —
// with no campaigns at all it exits immediately, which is how the
// telemetry schema golden snapshots the service.* metric registry.
// --abort-after-bytes SIGKILLs the daemon mid-append once a campaign
// store reaches that size (crash injection for the durability drills).
//
// Exit codes: 0 = idle exit, 1 = fatal service error, 2 = usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.h"
#include "report/telemetry_json.h"
#include "service/scheduler.h"
#include "util/strings.h"
#include "util/telemetry.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --state-dir <dir> [--port N] [--http-port N]\n"
      "          [--port-file <path.json>] [--lease-seconds S]\n"
      "          [--chunk-units N] [--retry-ms N] [--fsync-batch N]\n"
      "          [--submit PRESET[:PRIORITY[:CHUNK_UNITS]]]...\n"
      "          [--idle-exit] [--telemetry <path.json>]\n"
      "          [--abort-after-bytes N]\n",
      argv0);
  return 2;
}

struct SubmitSpec {
  std::string preset;
  int priority = 0;
  uint64_t chunk_units = 0;
};

/// Parse an integer flag value in [0, max] or exit 2 naming the flag.
uint64_t IntFlag(const char* argv0, const char* flag, std::string_view value,
                 uint64_t max) {
  auto v = util::ParseBoundedUint(value, max);
  if (!v.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, flag,
                 v.status().message().c_str());
    std::exit(2);
  }
  return *v;
}

SubmitSpec ParseSubmit(const char* argv0, std::string_view arg) {
  SubmitSpec spec;
  const size_t c1 = arg.find(':');
  spec.preset = std::string(arg.substr(0, c1));
  if (c1 == std::string_view::npos) return spec;
  const size_t c2 = arg.find(':', c1 + 1);
  // PRIORITY may be negative: a leading '-' on the digits.
  std::string_view priority = arg.substr(c1 + 1, c2 - c1 - 1);
  const bool negative = !priority.empty() && priority[0] == '-';
  if (negative) priority.remove_prefix(1);
  const int magnitude =
      static_cast<int>(IntFlag(argv0, "--submit", priority, INT32_MAX));
  spec.priority = negative ? -magnitude : magnitude;
  if (c2 != std::string_view::npos) {
    spec.chunk_units = IntFlag(argv0, "--submit", arg.substr(c2 + 1),
                               UINT64_MAX);
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  service::SchedulerOptions options;
  std::string port_file;
  std::string telemetry_path;
  std::vector<SubmitSpec> submits;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--state-dir") {
      options.state_dir = next("--state-dir");
    } else if (arg == "--port") {
      options.worker_port = static_cast<uint16_t>(
          IntFlag(argv[0], "--port", next("--port"), UINT16_MAX));
    } else if (arg == "--http-port") {
      options.http_port = static_cast<uint16_t>(
          IntFlag(argv[0], "--http-port", next("--http-port"), UINT16_MAX));
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--lease-seconds") {
      options.lease_seconds = std::atof(next("--lease-seconds"));
    } else if (arg == "--chunk-units") {
      options.chunk_units =
          IntFlag(argv[0], "--chunk-units", next("--chunk-units"), UINT64_MAX);
    } else if (arg == "--retry-ms") {
      options.retry_ms = static_cast<uint32_t>(
          IntFlag(argv[0], "--retry-ms", next("--retry-ms"), UINT32_MAX));
    } else if (arg == "--fsync-batch") {
      options.fsync_batch = static_cast<int>(
          IntFlag(argv[0], "--fsync-batch", next("--fsync-batch"), 1 << 20));
    } else if (arg == "--submit") {
      submits.push_back(ParseSubmit(argv[0], next("--submit")));
    } else if (arg == "--idle-exit") {
      options.idle_exit = true;
    } else if (arg == "--telemetry") {
      telemetry_path = next("--telemetry");
    } else if (arg == "--abort-after-bytes") {
      options.abort_at_bytes = IntFlag(argv[0], "--abort-after-bytes",
                                       next("--abort-after-bytes"), UINT64_MAX);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (options.state_dir.empty()) {
    std::fprintf(stderr, "%s: --state-dir is required\n", argv[0]);
    return Usage(argv[0]);
  }
  if (options.lease_seconds <= 0 || options.chunk_units == 0) {
    std::fprintf(stderr, "%s: --lease-seconds and --chunk-units must be positive\n",
                 argv[0]);
    return Usage(argv[0]);
  }

  auto scheduler = service::Scheduler::Create(options);
  if (!scheduler.ok()) {
    std::fprintf(stderr, "%s\n", scheduler.status().ToString().c_str());
    return 1;
  }

  for (const SubmitSpec& s : submits) {
    auto id = (*scheduler)->Submit(s.preset, s.priority, s.chunk_units);
    if (!id.ok()) {
      std::fprintf(stderr, "submit %s: %s\n", s.preset.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[scheduler] submitted campaign %llu (%s)\n",
                 static_cast<unsigned long long>(*id), s.preset.c_str());
  }

  if (!port_file.empty()) {
    // tmp-then-rename: a script polling for the file never reads half of it.
    report::Json doc = report::Json::Object();
    doc.Set("worker_port", report::Json::Int((*scheduler)->worker_port()));
    doc.Set("http_port", report::Json::Int((*scheduler)->http_port()));
    const std::string tmp = port_file + ".tmp";
    util::Status st = report::WriteJsonFile(tmp, doc);
    if (st.ok() && std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      st = util::Status::Internal("rename " + tmp + " failed");
    }
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  const util::Status st = (*scheduler)->Run();
  if (!st.ok()) {
    std::fprintf(stderr, "scheduler failed: %s\n", st.ToString().c_str());
    return 1;
  }

  if (!telemetry_path.empty()) {
    const util::Status ts = report::WriteTelemetrySnapshotFile(
        telemetry_path, util::telemetry::Capture());
    if (!ts.ok()) {
      std::fprintf(stderr, "%s\n", ts.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
