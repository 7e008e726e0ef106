#include "cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "netlist/bench_format.hpp"
#include "netlist/gate_expand.hpp"
#include "netlist/sim_format.hpp"
#include "patterns/sequence_io.hpp"
#include "util/strings.hpp"

namespace fmossim::cli {

bool Args::next() {
  if (++at_ >= argc_) return false;
  flag_ = argv_[at_];
  return true;
}

void Args::rejectFlag() const {
  std::fprintf(stderr, "unknown flag '%s'\n", flag_.c_str());
}

const char* Args::value() {
  if (at_ + 1 >= argc_) {
    std::fprintf(stderr, "missing value for %s\n", flag_.c_str());
    std::exit(2);
  }
  return argv_[++at_];
}

void Args::invalid(const char* text, const std::string& want) const {
  std::fprintf(stderr, "invalid value '%s' for %s (want %s)\n", text,
               flag_.c_str(), want.c_str());
  std::exit(2);
}

std::uint64_t Args::u64(std::uint64_t maxValue) {
  const char* text = value();
  const auto v = parseDecimal(text, maxValue);
  if (!v) {
    invalid(text, format("an integer in [0, %llu]",
                         static_cast<unsigned long long>(maxValue)));
  }
  return *v;
}

std::uint32_t Args::count(std::uint32_t maxValue) {
  const char* text = value();
  const auto v = parseDecimal(text, maxValue);
  if (!v || *v == 0) invalid(text, format("an integer in [1, %u]", maxValue));
  return static_cast<std::uint32_t>(*v);
}

// A silently truncated or wrapped budget would force the spill path the
// user asked to avoid, so the suffix shift is range-checked too.
std::size_t Args::bytes() {
  const char* text = value();
  std::string_view digits(text);
  std::size_t shift = 0;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
    }
  }
  if (shift != 0) digits.remove_suffix(1);
  const auto v =
      parseDecimal(digits, std::numeric_limits<std::size_t>::max() >> shift);
  if (!v) invalid(text, "bytes, optionally k/m/g-suffixed, within size_t");
  return static_cast<std::size_t>(*v) << shift;
}

// strtod alone would also take whitespace, signs, exponents, hex floats,
// inf and nan; the grammar is checked first, so every integer and real flag
// refuses the same forms.
double Args::real() {
  const char* text = value();
  const std::string_view s(text);
  const auto digits = [](std::string_view d) {
    return !d.empty() && std::all_of(d.begin(), d.end(), [](char c) {
      return c >= '0' && c <= '9';
    });
  };
  const std::size_t dot = s.find('.');
  const bool wellFormed =
      dot == std::string_view::npos
          ? digits(s)
          : digits(s.substr(0, dot)) && digits(s.substr(dot + 1));
  const double v = wellFormed ? std::strtod(text, nullptr) : 0.0;
  if (!wellFormed || !std::isfinite(v)) {
    invalid(text, "a finite decimal >= 0, as D or D.D");
  }
  return v;
}

DetectionPolicy Args::policy() {
  const std::string p = value();
  if (p == "any") return DetectionPolicy::AnyDifference;
  if (p == "definite") return DetectionPolicy::DefiniteOnly;
  invalid(p.c_str(), "any or definite");
}

bool CircuitInput::take(Args& args) {
  const std::string& f = args.flag();
  if (f == "--demo") demo = true;
  else if (f == "--sim") simFile = args.value();
  else if (f == "--bench") benchFile = args.value();
  else if (f == "--seq") seqFile = args.value();
  else return false;
  return true;
}

void loadCircuit(const CircuitInput& in, Network& net, TestSequence& seq) {
  if (in.demo) net = parseSimNetlist(kDemoNetlist);
  else if (in.simFile) net = loadSimFile(*in.simFile);
  else net = expandToCmos(loadBenchFile(*in.benchFile)).net;
  seq = in.demo ? parseSequence(net, kDemoSequence)
                : loadSequenceFile(net, *in.seqFile);
}

}  // namespace fmossim::cli
