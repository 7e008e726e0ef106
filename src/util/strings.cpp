#include "util/strings.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace fmossim {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> splitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t b = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > b) out.push_back(s.substr(b, i - b));
  }
  return out;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t b = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(b, i - b));
      b = i + 1;
    }
  }
  return out;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<std::uint64_t> parseDecimal(std::string_view s,
                                          std::uint64_t maxValue) {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (d > maxValue || value > (maxValue - d) / 10) return std::nullopt;
    value = value * 10 + d;
  }
  return value;
}

std::string toUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace fmossim
