#include "util/strings.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cmldft::util {

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> SplitTokens(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> SplitChar(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

StatusOr<uint64_t> ParseBoundedUint(std::string_view s, uint64_t max) {
  if (s.empty()) {
    return Status::InvalidArgument("expected a non-negative integer, got ''");
  }
  uint64_t v = 0;
  bool over = false;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("expected a non-negative integer, got '" +
                                     std::string(s) + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    // Keep scanning after overflow so a trailing non-digit still reads as
    // malformed rather than out of range.
    if (digit > max || v > (max - digit) / 10) over = true;
    if (!over) v = v * 10 + digit;
  }
  if (over) {
    return Status::OutOfRange("'" + std::string(s) + "' exceeds the maximum " +
                              std::to_string(max));
  }
  return v;
}

StatusOr<double> ParseSpiceNumber(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return Status::ParseError("empty number");
  std::string buf(s);
  char* end = nullptr;
  const double mantissa = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str()) {
    return Status::ParseError("not a number: '" + buf + "'");
  }
  std::string suffix = ToLower(std::string_view(end));
  double scale = 1.0;
  if (!suffix.empty()) {
    if (StartsWith(suffix, "meg")) {
      scale = 1e6;
    } else {
      switch (suffix[0]) {
        case 't': scale = 1e12; break;
        case 'g': scale = 1e9; break;
        case 'k': scale = 1e3; break;
        case 'm': scale = 1e-3; break;
        case 'u': scale = 1e-6; break;
        case 'n': scale = 1e-9; break;
        case 'p': scale = 1e-12; break;
        case 'f': scale = 1e-15; break;
        default:
          // Unit letters with no scale meaning ("ohm", "v", "a", "hz", "s").
          scale = 1.0;
          break;
      }
    }
  }
  return mantissa * scale;
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatEngineering(double value, std::string_view unit) {
  struct Scale {
    double factor;
    const char* suffix;
  };
  static constexpr Scale kScales[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
  };
  if (value == 0.0) return "0" + std::string(unit);
  const double mag = std::fabs(value);
  for (const auto& s : kScales) {
    if (mag >= s.factor * 0.9999) {
      return StrPrintf("%.4g%s%s", value / s.factor, s.suffix,
                       std::string(unit).c_str());
    }
  }
  return StrPrintf("%.4g%s", value, std::string(unit).c_str());
}

}  // namespace cmldft::util
