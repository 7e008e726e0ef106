// Shared pieces of the fmossim_cli subcommands (one source file each, see
// main.cpp): the flag cursor every parser walks, the built-in demo workload,
// and circuit loading for the default run and `seu`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "api/engine.hpp"

namespace fmossim::serve {
struct ServerOptions;
}

namespace fmossim::cli {

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// Walks argv one flag at a time. Each value accessor consumes the current
/// flag's value; a missing or invalid value names the flag and exits 2, the
/// exit code of every invalid invocation.
class Args {
 public:
  /// The first flag is argv[first].
  Args(int argc, char** argv, int first)
      : argc_(argc), argv_(argv), at_(first - 1) {}

  /// Steps to the next flag; false when none is left.
  bool next();
  const std::string& flag() const { return flag_; }
  /// Names the current flag as unknown; the caller then prints its usage.
  void rejectFlag() const;

  const char* value();
  /// A strict decimal in [0, maxValue].
  std::uint64_t u64(
      std::uint64_t maxValue = std::numeric_limits<std::uint64_t>::max());
  /// A strict decimal in [1, maxValue].
  std::uint32_t count(std::uint32_t maxValue);
  /// Plain bytes or a k/m/g suffix (binary units), without wrapping.
  std::size_t bytes();
  /// A finite decimal >= 0: digits, optionally a point and more digits.
  double real();
  /// any | definite.
  DetectionPolicy policy();
  /// Names `text` as an invalid value for the current flag and exits 2.
  [[noreturn]] void invalid(const char* text, const std::string& want) const;

 private:
  int argc_;
  char** argv_;
  int at_;
  std::string flag_;
};

inline constexpr const char* kDemoNetlist = R"(| demo: nMOS inverter chain with a pass gate
input in clk
d n1 Vdd n1
n in n1 Gnd
n clk n1 n2
d out Vdd out
n n2 out Gnd
)";

inline constexpr const char* kDemoSequence = R"(outputs out
pattern init
  set Vdd=1 Gnd=0 in=0 clk=1
pattern p1
  set in=1
pattern p2
  set clk=0
  set in=0
pattern p3
  set clk=1
)";

inline constexpr const char* kDemoFaults = R"(all-node-stuck
all-transistor-stuck
)";

/// The circuit flags of the default run and `seu`: --demo, or --sim/--bench
/// FILE with --seq FILE.
struct CircuitInput {
  bool demo = false;
  std::optional<std::string> simFile, benchFile, seqFile;

  /// Consumes the current flag when it is one of the above.
  bool take(Args& args);
  /// True when the flags name both a circuit and a sequence.
  bool complete() const { return demo || ((simFile || benchFile) && seqFile); }
};

/// Loads the demo or the named netlist (.sim, or .bench expanded to CMOS)
/// and its sequence. Throws Error with a line-numbered message on malformed
/// input.
void loadCircuit(const CircuitInput& in, Network& net, TestSequence& seq);

/// Consumes the daemon sizing flags that `serve` and `loadgen --inproc`
/// share: --pool, --workers, --queue and --checkpoint-budget.
bool takeDaemonFlag(Args& args, serve::ServerOptions& opts);

int runFuzz(int argc, char** argv);
int runBench(int argc, char** argv);
int runServe(int argc, char** argv);
int runLoadgen(int argc, char** argv);
int runSeu(int argc, char** argv);

}  // namespace fmossim::cli
