// Small string helpers shared by the netlist parsers and report writers.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fmossim {

/// Strips leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on any run of the given delimiter characters; empty tokens are
/// dropped.
std::vector<std::string_view> splitWhitespace(std::string_view s);

/// Splits on a single delimiter character, keeping empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// True if s begins with the given prefix.
bool startsWith(std::string_view s, std::string_view prefix);

/// Strict unsigned decimal parse: ASCII digits only (no sign, whitespace or
/// suffix) with a value no greater than `maxValue`. Anything else, overflow
/// included, is nullopt, so "12abc", "-1" or " 1" never parse as a
/// truncated or wrapped number.
std::optional<std::uint64_t> parseDecimal(
    std::string_view s,
    std::uint64_t maxValue = std::numeric_limits<std::uint64_t>::max());

/// Uppercases ASCII letters.
std::string toUpper(std::string_view s);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace fmossim
