#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "util/strings.h"

namespace perfbench {

namespace tel = cmldft::util::telemetry;
using cmldft::util::StrPrintf;

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string Host::Stamp() const {
  return StrPrintf("nproc=%d cpu=\"%s\" build=%s assertions=%s", nproc,
                   cpu_model.c_str(), build_type.c_str(),
                   assertions ? "enabled" : "disabled");
}

Host DetectHost() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.nproc = std::max(1, CPU_COUNT(&set));
  } else {
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
#ifdef PERFBENCH_BUILD_TYPE
  host.build_type = PERFBENCH_BUILD_TYPE;
#else
  host.build_type = "unknown";
#endif
#ifdef NDEBUG
  host.assertions = false;
#else
  host.assertions = true;
#endif
  return host;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tracer::Tracer() : origin_(NowSeconds()) {}

int Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start = NowSeconds() - origin_;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = NowSeconds() - origin_;
  // Spans close in LIFO order (ScopedSpan); tolerate a stray End anyway.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

double Tracer::ChildTime(size_t index) const {
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == static_cast<int>(index)) covered += s.end - s.start;
  }
  return covered;
}

double Tracer::Total(std::string_view name, size_t first, size_t last) const {
  double total = 0.0;
  for (size_t i = first; i < std::min(last, spans_.size()); ++i) {
    if (spans_[i].name == name) total += spans_[i].end - spans_[i].start;
  }
  return total;
}

std::string Tracer::ToJson(const Host& host) const {
  std::string out = "{\n  \"host\": \"" + JsonEscape(host.Stamp()) +
                    "\",\n  \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += StrPrintf("%s\n    {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %d}",
                     i == 0 ? "" : ",", i, JsonEscape(s.name).c_str(), s.start,
                     s.end, s.parent);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string Tracer::SummaryTable() const {
  struct Row {
    std::string name;
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const Row& r) { return r.name == s.name; });
    if (it == rows.end()) {
      rows.push_back({s.name});
      it = rows.end() - 1;
    }
    it->count += 1;
    it->total += s.end - s.start;
    it->self += s.end - s.start - ChildTime(i);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.total > b.total; });
  std::string out = StrPrintf("%-34s %6s %12s %12s\n", "span", "count",
                              "total_s", "self_s");
  for (const Row& r : rows) {
    out += StrPrintf("%-34s %6d %12.6f %12.6f\n", r.name.c_str(), r.count,
                     r.total, r.self);
  }
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->Begin(name) : -1) {}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) tracer_->End(id_);
}

uint64_t Counts::Get(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

double Counts::Seconds(std::string_view name) const {
  const auto it = timer_seconds.find(std::string(name));
  return it == timer_seconds.end() ? 0.0 : it->second;
}

Counts Delta(const tel::Snapshot& before, const tel::Snapshot& after) {
  Counts out;
  for (const tel::MetricValue& m : after.metrics) {
    const tel::MetricValue* b = before.Find(m.name);
    if (m.kind == tel::Kind::kCounter) {
      out.counters[m.name] = m.count - (b != nullptr ? b->count : 0);
    } else if (m.kind == tel::Kind::kTimer) {
      out.timer_seconds[m.name] =
          m.total_seconds - (b != nullptr ? b->total_seconds : 0.0);
    }
  }
  return out;
}

std::vector<std::string> CountMismatches(const Counts& a, const Counts& b) {
  std::vector<std::string> out;
  for (const auto& [name, value] : a.counters) {
    const uint64_t other = b.Get(name);
    if (other != value) {
      out.push_back(StrPrintf("%s %llu!=%llu", name.c_str(),
                              static_cast<unsigned long long>(value),
                              static_cast<unsigned long long>(other)));
    }
  }
  for (const auto& [name, value] : b.counters) {
    if (value != 0 && a.counters.count(name) == 0) {
      out.push_back(StrPrintf("%s 0!=%llu", name.c_str(),
                              static_cast<unsigned long long>(value)));
    }
  }
  return out;
}

uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t SeedStream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeedStream::Uniform(double lo, double hi) {
  const double u = static_cast<double>(Next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

double SeedStream::LogUniform(double lo, double hi) {
  return std::exp(Uniform(std::log(lo), std::log(hi)));
}

}  // namespace perfbench
