// fmossim_cli fuzz: seeded random switch-level workloads cross-checked
// serial vs concurrent vs sharded (src/gen/diff_oracle.hpp).
#include <cstdio>
#include <optional>
#include <string>

#include "cli.hpp"
#include "gen/diff_oracle.hpp"
#include "gen/random_circuit.hpp"
#include "util/strings.hpp"

namespace fmossim::cli {

namespace {

int fuzzUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s fuzz [--seeds N      campaign size (default 25)]\n"
      "               [--seed S       first seed (default 1)]\n"
      "               [--nodes N] [--inputs N] [--faults N] [--patterns N]\n"
      "               [--policy any|definite] [--no-drop]\n"
      "               [--chaos N      lose every Nth concurrent trigger\n"
      "                               (oracle self-test; must find bugs)]\n"
      "               [--quiet]\n",
      argv0);
  return to == stderr ? 2 : 0;
}

}  // namespace

int runFuzz(int argc, char** argv) {
  std::uint64_t firstSeed = 1;
  std::uint32_t numSeeds = 25;
  std::optional<std::uint32_t> nodes, inputs, faults, patterns, chaos;
  std::optional<DetectionPolicy> policy;
  bool noDrop = false, quiet = false;

  for (Args a(argc, argv, 2); a.next();) {
    const std::string& arg = a.flag();
    if (arg == "--help") return fuzzUsage(stdout, argv[0]);
    else if (arg == "--seeds") numSeeds = a.count(kU32Max);
    else if (arg == "--seed") firstSeed = a.u64();
    else if (arg == "--nodes") nodes = a.u64(kU32Max);
    else if (arg == "--inputs") inputs = a.u64(kU32Max);
    else if (arg == "--faults") faults = a.u64(kU32Max);
    else if (arg == "--patterns") patterns = a.u64(kU32Max);
    else if (arg == "--chaos") chaos = a.u64(kU32Max);
    else if (arg == "--no-drop") noDrop = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--policy") policy = a.policy();
    else {
      a.rejectFlag();
      return fuzzUsage(stderr, argv[0]);
    }
  }

  std::uint32_t failures = 0;
  std::uint64_t totalRuns = 0;
  // Iterate by offset so a huge --seed cannot wrap the end bound into a
  // zero-iteration campaign that falsely exits 0.
  for (std::uint32_t k = 0; k < numSeeds; ++k) {
    const std::uint64_t seed = firstSeed + k;
    GenOptions gen = GenOptions::randomized(seed);
    if (nodes) gen.numNodes = *nodes;
    if (inputs) gen.numInputs = *inputs;
    if (faults) gen.numFaults = *faults;
    if (patterns) gen.numPatterns = *patterns;

    OracleOptions oracle;
    // Sweep detection policy and drop mode across the campaign unless the
    // caller pinned them; the variation stream is disjoint from the
    // generator's so pinning one knob never changes the circuits.
    Rng vary(seed ^ 0xd1b54a32d192ed03ULL);
    oracle.policy = policy.value_or(vary.chance(0.5)
                                        ? DetectionPolicy::DefiniteOnly
                                        : DetectionPolicy::AnyDifference);
    oracle.dropDetected = noDrop ? false : vary.chance(0.75);
    if (chaos) oracle.debugLoseTriggerEvery = *chaos;

    const GeneratedWorkload w = generateWorkload(gen);
    DiffOracle diff(oracle);
    const OracleReport rep = diff.check(w);
    totalRuns += rep.checkRuns;
    if (!rep.ok) {
      ++failures;
      // The reproduce command must carry every knob that shaped this run:
      // pinned generator parameters, the policy/drop pair actually used,
      // and the chaos injector if active.
      std::string repro =
          format("%s fuzz --seed %llu --seeds 1", argv[0],
                 static_cast<unsigned long long>(seed));
      if (nodes) repro += format(" --nodes %u", *nodes);
      if (inputs) repro += format(" --inputs %u", *inputs);
      if (faults) repro += format(" --faults %u", *faults);
      if (patterns) repro += format(" --patterns %u", *patterns);
      repro += oracle.policy == DetectionPolicy::AnyDifference
                   ? " --policy any"
                   : " --policy definite";
      if (!oracle.dropDetected) repro += " --no-drop";
      if (chaos) repro += format(" --chaos %u", *chaos);
      std::printf("%s\n%s  reproduce: %s\n", describeWorkload(w).c_str(),
                  rep.summary().c_str(), repro.c_str());
    } else if (!quiet && (k + 1) % 10 == 0) {
      std::printf("... %u/%u seeds done, %u divergence(s)\n", k + 1, numSeeds,
                  failures);
    }
  }
  std::printf("fuzz: %u seed(s), %u divergence(s), %llu comparison run(s)\n",
              numSeeds, failures, static_cast<unsigned long long>(totalRuns));
  return failures == 0 ? 0 : 1;
}

}  // namespace fmossim::cli
