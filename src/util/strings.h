// Small string utilities shared by the netlist parser and reporting code.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cmldft::util {

/// Remove leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Split on any run of whitespace; no empty tokens.
std::vector<std::string_view> SplitTokens(std::string_view s);

/// Split on a single character delimiter; keeps empty fields.
std::vector<std::string_view> SplitChar(std::string_view s, char delim);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Lower-cased copy.
std::string ToLower(std::string_view s);

/// True if `s` starts with `prefix` (case sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parse a SPICE-style number with optional engineering suffix:
/// "4k" -> 4000, "10p" -> 1e-11, "100meg" -> 1e8, "1.5u" -> 1.5e-6.
/// Recognized suffixes: t g meg k m u n p f (case-insensitive); trailing
/// unit letters after the suffix are ignored ("4kohm" -> 4000).
StatusOr<double> ParseSpiceNumber(std::string_view s);

/// Parse a decimal unsigned integer in [0, max]: ASCII digits only — no
/// sign, blanks, exponent or suffix — and overflow-safe. InvalidArgument
/// for anything else, OutOfRange above `max`.
StatusOr<uint64_t> ParseBoundedUint(std::string_view s, uint64_t max);

/// printf-style formatting into std::string.
std::string StrPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Format a value with an engineering suffix, e.g. 4e3 -> "4k", 1e-11 -> "10p".
std::string FormatEngineering(double value, std::string_view unit = "");

}  // namespace cmldft::util
