// fmossim_cli — command-line fault simulator driver over the unified
// Engine API.
//
//   fmossim_cli --sim <netlist.sim> --seq <sequence.txt> --faults <spec.txt>
//               [--backend serial|concurrent] [--jobs N]
//               [--policy any|definite] [--no-drop] [--csv <file>]
//               [--compare] [--quiet]
//   fmossim_cli --bench <circuit.bench> ...      (ISCAS .bench input)
//   fmossim_cli --demo                           (built-in demo run)
//   fmossim_cli fuzz --seeds N [--seed S] ...    (differential fuzzing)
//   fmossim_cli bench [--json] [--smoke] ...     (performance harness)
//   fmossim_cli serve --socket PATH ...          (fault-simulation daemon)
//   fmossim_cli loadgen (--socket PATH | --inproc) ...  (service load test)
//   fmossim_cli --help                           (full subcommand summary)
//
// The fuzz subcommand generates seeded random switch-level workloads
// (src/gen/random_circuit.hpp) and cross-checks the serial, concurrent and
// sharded backends against each other (src/gen/diff_oracle.hpp). Any
// divergence is shrunk to a minimized reproducer and re-derivable from its
// seed alone: `fuzz --seed S --seeds 1` replays one campaign member.
//
// The bench subcommand runs the reproducible performance harness
// (src/perf/): the named scenario matrix of docs/BENCHMARKING.md with
// warmup + repetition, writing schema-versioned BENCH_<scenario>.json files
// with --json, and gating fresh results against checked-in baselines with
// --check (the CI perf-regression gate; see docs/BENCHMARKING.md). Unknown
// subcommands are an error (exit 2).
//
// The serve subcommand turns the simulator into a long-lived daemon: a
// persistent engine pool over a shared good-machine checkpoint store, a
// bounded request queue drained by worker threads, and newline-delimited
// JSON over a Unix-domain socket (submit/status/result/cancel/stats/
// shutdown; see docs/SERVICE.md). The loadgen subcommand is the matching
// client harness: it replays a seeded zipf-skewed mixed-tenant workload,
// verifies every response against a direct Engine run bit for bit, and
// emits BENCH_serve_mixed.json with --json.
//
// Defaults: --backend concurrent, --jobs 1, --policy definite (a tester
// cannot distinguish an X from a driven value; pass --policy any for the
// paper's literal "any difference" criterion). --compare runs both backends
// and fails on any detection disagreement.
//
// Input formats are documented in src/netlist/sim_format.hpp,
// src/patterns/sequence_io.hpp, and src/faults/fault_spec.hpp.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "api/engine.hpp"
#include "core/estimator.hpp"
#include "faults/fault_spec.hpp"
#include "faults/transient.hpp"
#include "gen/diff_oracle.hpp"
#include "gen/random_circuit.hpp"
#include "gen/transient_gen.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/gate_expand.hpp"
#include "netlist/sim_format.hpp"
#include "patterns/sequence_io.hpp"
#include "perf/bench_check.hpp"
#include "perf/bench_json.hpp"
#include "perf/bench_runner.hpp"
#include "seu/seu_campaign.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "stats/recorder.hpp"
#include "util/strings.hpp"

using namespace fmossim;

namespace {

void printUsage(std::FILE* to, const char* argv0) {
  std::fprintf(to,
               "usage: %s (--sim FILE | --bench FILE | --demo) --seq FILE "
               "--faults FILE\n"
               "          [--backend serial|concurrent (default: concurrent)]\n"
               "          [--jobs N        parallel workers (concurrent "
               "backend only)]\n"
               "          [--batch-faults N  sharded fault-batch size "
               "(default: auto)]\n"
               "          [--checkpoint-budget SIZE  good-machine checkpoint "
               "memory budget\n"
               "                           (bytes, k/m/g suffix; 0 = "
               "unbounded; jobs > 1 only —\n"
               "                           spills the trace to disk and "
               "replays a sliding window)]\n"
               "          [--schedule contiguous|history  sharded batch "
               "layout (default:\n"
               "                           contiguous; history co-batches "
               "hard-to-detect faults\n"
               "                           from a recorded run; results "
               "bit-identical)]\n"
               "          [--history-file PATH  detection-history sidecar: "
               "read by\n"
               "                           --schedule history, refreshed "
               "after sharded runs]\n"
               "          [--policy any|definite (default: definite)]\n"
               "          [--no-drop] [--csv FILE] [--compare] [--quiet]\n"
               "       %s fuzz --seeds N    differential fuzzing campaign "
               "(see %s fuzz --help)\n"
               "       %s bench [--json]    performance harness over the "
               "scenario matrix\n"
               "                            (see %s bench --help)\n"
               "       %s serve --socket PATH   long-lived fault-simulation "
               "daemon\n"
               "                            (see %s serve --help)\n"
               "       %s loadgen (--socket PATH | --inproc)   service load "
               "generator\n"
               "                            (see %s loadgen --help)\n"
               "       %s seu ...           transient-fault (SEU) grading "
               "campaign\n"
               "                            (see %s seu --help)\n"
               "       %s --help            this summary\n"
               "\n"
               "subcommands:\n"
               "  fuzz    seeded random workloads cross-checked serial vs "
               "concurrent vs sharded;\n"
               "          divergences are shrunk to minimized seed "
               "reproducers\n"
               "  bench   reproducible benchmark runs (warmup + reps + "
               "median/stddev), writing\n"
               "          schema-versioned BENCH_<scenario>.json files with "
               "--json\n"
               "  serve   engine-pool daemon speaking newline-delimited JSON "
               "over a Unix\n"
               "          socket (submit/status/result/cancel/stats/shutdown; "
               "docs/SERVICE.md)\n"
               "  loadgen zipf-skewed mixed-tenant replay against a daemon, "
               "verifying every\n"
               "          response against a direct engine run; --json writes "
               "BENCH_serve_mixed.json\n"
               "  seu     transient-fault grading: bit-flips at chosen "
               "instants, classified\n"
               "          detected/silent/latent by replaying checkpointed "
               "good-machine tails\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0, argv0);
}

int usage(const char* argv0) {
  printUsage(stderr, argv0);
  return 2;
}

// Every subcommand parser names the flag it rejects before printing its
// usage text, so a long command line does not have to be searched by hand.
void rejectFlag(const std::string& arg) {
  std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
}

// A flag value outside its fixed set: name the value and the choices.
int badValue(const char* flag, const std::string& value, const char* want) {
  std::fprintf(stderr, "invalid value '%s' for %s (want %s)\n", value.c_str(),
               flag, want);
  return 2;
}

// Byte-size parse for --checkpoint-budget: plain bytes or a k/m/g suffix
// (binary units). Strict like the other numeric parsers: trailing garbage
// is an error, not a silently truncated budget.
std::size_t parseByteSize(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || errno == ERANGE || text[0] == '-') {
    std::fprintf(stderr, "invalid size '%s' for %s\n", text, flag);
    std::exit(2);
  }
  std::size_t shift = 0;
  if (*end == 'k' || *end == 'K') shift = 10;
  else if (*end == 'm' || *end == 'M') shift = 20;
  else if (*end == 'g' || *end == 'G') shift = 30;
  if (shift != 0) ++end;
  if (*end != '\0') {
    std::fprintf(stderr, "invalid size '%s' for %s (use bytes or k/m/g)\n",
                 text, flag);
    std::exit(2);
  }
  // The suffix shift must not wrap: a silently truncated budget would force
  // the spill path the user asked to avoid.
  if (shift != 0 && v > (std::numeric_limits<std::size_t>::max() >> shift)) {
    std::fprintf(stderr, "size '%s' for %s is out of range\n", text, flag);
    std::exit(2);
  }
  return static_cast<std::size_t>(v) << shift;
}

// Strict positive-integer parse for counted flags (--jobs, --batch-faults,
// --gen, --instants): trailing garbage, zero, negatives and overflow are all
// errors with exit 2, never a silently clamped or truncated count.
std::uint32_t parsePositiveCount(const char* text, const char* flag,
                                 std::uint32_t maxValue) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-' ||
      v == 0 || v > maxValue) {
    std::fprintf(stderr,
                 "invalid value '%s' for %s (want an integer in [1, %u])\n",
                 text, flag, maxValue);
    std::exit(2);
  }
  return static_cast<std::uint32_t>(v);
}

const char* kDemoNetlist = R"(| demo: nMOS inverter chain with a pass gate
input in clk
d n1 Vdd n1
n in n1 Gnd
n clk n1 n2
d out Vdd out
n n2 out Gnd
)";

const char* kDemoSequence = R"(outputs out
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

const char* kDemoFaults = R"(all-node-stuck
all-transistor-stuck
)";

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

int fuzzUsage(const char* argv0) { return fuzzUsage(stderr, argv0); }

int runFuzz(int argc, char** argv) {
  std::uint64_t firstSeed = 1;
  std::uint32_t numSeeds = 25;
  std::optional<std::uint32_t> nodes, inputs, faults, patterns, chaos;
  std::optional<DetectionPolicy> policy;
  bool noDrop = false, quiet = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict decimal parse: a typo like "1O0" must be an error, not a
    // silently truncated campaign that exits 0.
    const auto nextU64 = [&]() -> std::uint64_t {
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
        std::fprintf(stderr, "invalid number '%s' for %s\n", text, arg.c_str());
        std::exit(2);
      }
      return v;
    };
    const auto nextUint = [&]() -> std::uint32_t {
      const std::uint64_t v = nextU64();
      if (v > 0xffffffffULL) {
        std::fprintf(stderr, "value for %s out of range\n", arg.c_str());
        std::exit(2);
      }
      return static_cast<std::uint32_t>(v);
    };
    if (arg == "--help") return fuzzUsage(stdout, argv[0]);
    else if (arg == "--seeds") numSeeds = nextUint();
    else if (arg == "--seed") firstSeed = nextU64();
    else if (arg == "--nodes") nodes = nextUint();
    else if (arg == "--inputs") inputs = nextUint();
    else if (arg == "--faults") faults = nextUint();
    else if (arg == "--patterns") patterns = nextUint();
    else if (arg == "--chaos") chaos = nextUint();
    else if (arg == "--no-drop") noDrop = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--policy") {
      const std::string p = next();
      if (p == "any") policy = DetectionPolicy::AnyDifference;
      else if (p == "definite") policy = DetectionPolicy::DefiniteOnly;
      else return badValue("--policy", p, "any or definite");
    } else {
      rejectFlag(arg);
      return fuzzUsage(argv[0]);
    }
  }
  if (numSeeds == 0) return fuzzUsage(argv[0]);

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

int benchUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s bench [--json          write BENCH_<scenario>.json files]\n"
      "                [--out DIR       output directory (default: .)]\n"
      "                [--scenario NAME run one scenario (repeatable)]\n"
      "                [--reps N        measured repetitions (default 5)]\n"
      "                [--warmup N      unmeasured warmup runs (default 1)]\n"
      "                [--smoke         1 rep, no warmup (CI harness check)]\n"
      "                [--checkpoint-budget SIZE  override every scenario's\n"
      "                                 checkpoint-store memory budget (bytes,\n"
      "                                 k/m/g suffix; 0 = unbounded in-memory\n"
      "                                 traces) — forces the spill/window path\n"
      "                                 when set below a trace's size]\n"
      "                [--check         gate fresh results against baseline\n"
      "                                 BENCH_*.json files (exit 1 on any\n"
      "                                 checksum/nodeEvals drift or wall-clock\n"
      "                                 regression beyond --tolerance)]\n"
      "                [--baseline DIR  baseline directory for --check\n"
      "                                 (default: .)]\n"
      "                [--tolerance P   wall-clock regression tolerance in\n"
      "                                 percent (default 15; raise on noisy\n"
      "                                 runners — exact checks stay strict)]\n"
      "                [--list          list scenarios and exit]\n"
      "                [--quiet]\n"
      "Rows with equal policy/drop settings must produce equal result\n"
      "checksums across backends; a mismatch fails the run (exit 1).\n",
      argv0);
  return to == stderr ? 2 : 0;
}

int runBench(int argc, char** argv) {
  perf::BenchConfig config;
  perf::CheckOptions checkOpts;
  std::string outDir = ".";
  bool json = false, list = false, quiet = false, check = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto nextUint = [&]() -> unsigned {
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      const unsigned long v = std::strtoul(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
        std::fprintf(stderr, "invalid number '%s' for %s\n", text, arg.c_str());
        std::exit(2);
      }
      return static_cast<unsigned>(v);
    };
    if (arg == "--json") json = true;
    else if (arg == "--out") outDir = next();
    else if (arg == "--scenario") config.only.push_back(next());
    else if (arg == "--reps") config.reps = nextUint();
    else if (arg == "--warmup") config.warmup = nextUint();
    else if (arg == "--smoke") config.smoke = true;
    else if (arg == "--checkpoint-budget") {
      config.checkpointBudget = parseByteSize(next(), "--checkpoint-budget");
    }
    else if (arg == "--check") check = true;
    else if (arg == "--baseline") checkOpts.baselineDir = next();
    else if (arg == "--tolerance") {
      const char* text = next();
      char* end = nullptr;
      const double v = std::strtod(text, &end);
      if (end == text || *end != '\0' || v < 0.0) {
        std::fprintf(stderr, "invalid tolerance '%s'\n", text);
        return 2;
      }
      checkOpts.tolerancePct = v;
    }
    else if (arg == "--list") list = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help") return benchUsage(stdout, argv[0]);
    else {
      rejectFlag(arg);
      return benchUsage(stderr, argv[0]);
    }
  }
  if (config.reps == 0) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return 2;
  }
  // A mistyped scenario name is a usage error (exit 2), and the message
  // must carry the valid names so the fix is one copy-paste away.
  for (const std::string& name : config.only) {
    if (!perf::isScenario(name)) {
      std::fprintf(stderr, "error: unknown scenario '%s'\nvalid scenarios:",
                   name.c_str());
      for (const std::string& s : perf::scenarioNames()) {
        std::fprintf(stderr, " %s", s.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  perf::BenchRunner runner(config);
  if (list) {
    for (const std::string& name : runner.selectedScenarios()) {
      const perf::Workload w = perf::buildScenarioWorkload(name);
      std::printf("%-14s %s\n", name.c_str(), w.description.c_str());
    }
    return 0;
  }

  if (!quiet) {
    std::printf("%-14s %-11s %-8s %-5s %-5s %12s %10s  %s\n", "scenario",
                "backend", "policy", "drop", "reps", "median(ms)",
                "stddev(ms)", "checksum");
  }
  const auto onRow = [&](const perf::ScenarioResult& sr,
                         const perf::BenchRow& row) {
    if (quiet) return;
    std::printf("%-14s %-11s %-8s %-5s %-5u %12.3f %10.3f  0x%016llx\n",
                sr.scenario.c_str(), row.backend.c_str(), row.policy.c_str(),
                row.dropDetected ? "yes" : "no", row.reps, row.medianMs,
                row.stddevMs, static_cast<unsigned long long>(row.checksum));
  };
  const std::vector<perf::ScenarioResult> results = runner.runAll(onRow);

  // Cross-backend bit-identity: rows that differ only in backend/jobs must
  // produce the same result checksum (the harness-level restatement of the
  // differential oracle's guarantee).
  bool identical = true;
  for (const perf::ScenarioResult& sr : results) {
    for (std::size_t a = 0; a < sr.rows.size(); ++a) {
      for (std::size_t b = a + 1; b < sr.rows.size(); ++b) {
        const perf::BenchRow& ra = sr.rows[a];
        const perf::BenchRow& rb = sr.rows[b];
        if (ra.policy == rb.policy && ra.dropDetected == rb.dropDetected &&
            ra.checksum != rb.checksum) {
          std::fprintf(stderr,
                       "checksum mismatch in %s: %s=0x%016llx vs %s=0x%016llx\n",
                       sr.scenario.c_str(), ra.backend.c_str(),
                       static_cast<unsigned long long>(ra.checksum),
                       rb.backend.c_str(),
                       static_cast<unsigned long long>(rb.checksum));
          identical = false;
        }
      }
    }
  }

  if (json) {
    for (const perf::ScenarioResult& sr : results) {
      const std::string path = perf::writeBenchFile(sr, outDir);
      if (!quiet) std::printf("wrote %s\n", path.c_str());
    }
  }
  if (!identical) {
    std::fprintf(stderr, "bench: cross-backend results NOT bit-identical\n");
    return 1;
  }
  if (check) {
    // An unfiltered run covers the whole registry, so every baseline file
    // must correspond to a live scenario (stale files fail the gate).
    checkOpts.expectComplete = config.only.empty();
    const perf::CheckReport report =
        perf::checkAgainstBaselines(results, checkOpts);
    for (const perf::CheckIssue& issue : report.issues) {
      const std::string where =
          issue.row.empty() ? issue.scenario
                            : issue.scenario + " [" + issue.row + "]";
      std::fprintf(stderr, "bench --check: %s: %s\n", where.c_str(),
                   issue.detail.c_str());
    }
    if (!report.ok()) {
      std::fprintf(stderr,
                   "bench --check: FAILED against baselines in '%s' "
                   "(%zu issue(s), %u row(s) checked, tolerance %.0f%%)\n",
                   checkOpts.baselineDir.c_str(), report.issues.size(),
                   report.rowsChecked, checkOpts.tolerancePct);
      return 1;
    }
    std::printf("bench --check: OK — %u row(s) within %.0f%% of baselines "
                "in '%s', checksums and work counters exact\n",
                report.rowsChecked, checkOpts.tolerancePct,
                checkOpts.baselineDir.c_str());
  }
  return 0;
}

int serveUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s serve --socket PATH   Unix-domain socket to listen on\n"
      "                [--pool N       persistent engine slots (default 4)]\n"
      "                [--workers N    job worker threads (default 2,\n"
      "                                clamped to --pool)]\n"
      "                [--queue N      queued-job bound before backpressure\n"
      "                                (default 64)]\n"
      "                [--checkpoint-budget SIZE  shared checkpoint-store\n"
      "                                memory budget (bytes, k/m/g suffix;\n"
      "                                0 = unbounded)]\n"
      "                [--store-entries N  max cached good-machine recordings\n"
      "                                (default 64, LRU-evicted)]\n"
      "                [--quiet]\n"
      "Runs until a client sends {\"verb\":\"shutdown\"}. Protocol: one JSON\n"
      "request per line, one JSON response per line (docs/SERVICE.md).\n",
      argv0);
  return to == stderr ? 2 : 0;
}

int runServe(int argc, char** argv) {
  serve::ServerOptions opts;
  std::string socketPath;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Counted flags go through the strict shared parser (parsePositiveCount):
    // garbage, zero, negatives and values past the cap all exit 2 — the old
    // local strtoul lambda silently truncated 64-bit values to unsigned.
    if (arg == "--socket") socketPath = next();
    else if (arg == "--pool") {
      opts.poolEngines = parsePositiveCount(next(), "--pool", 1u << 16);
    }
    else if (arg == "--workers") {
      opts.workers = parsePositiveCount(next(), "--workers", 1u << 16);
    }
    else if (arg == "--queue") {
      opts.queueBound = parsePositiveCount(next(), "--queue", 1u << 20);
    }
    else if (arg == "--checkpoint-budget") {
      opts.checkpointBudgetBytes = parseByteSize(next(), "--checkpoint-budget");
    }
    else if (arg == "--store-entries") {
      opts.storeEntries = parsePositiveCount(next(), "--store-entries",
                                             1u << 20);
    }
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help") return serveUsage(stdout, argv[0]);
    else {
      rejectFlag(arg);
      return serveUsage(stderr, argv[0]);
    }
  }
  if (socketPath.empty()) {
    std::fprintf(stderr, "serve: --socket PATH is required\n");
    return 2;
  }

  serve::Server server(opts);
  server.start();
  serve::SocketServer socket(server, socketPath);
  if (!quiet) {
    std::printf("serving on %s (pool %u, workers %u, queue %zu, "
                "checkpoint budget %zu bytes)\n",
                socketPath.c_str(), opts.poolEngines, opts.workers,
                opts.queueBound, opts.checkpointBudgetBytes);
    std::fflush(stdout);
  }
  socket.waitShutdown();  // a client's shutdown verb ends the accept loop
  server.stop();          // wakes blocked result waiters, joins workers
  socket.stop();          // closes remaining connections, joins their threads
  if (!quiet) {
    const serve::ServerStats stats = server.stats();
    std::printf("shutdown after %.1f s: %llu completed, %llu failed, %llu "
                "cancelled; store hits %llu, recordings %llu\n",
                stats.uptimeSeconds,
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.cancelled),
                static_cast<unsigned long long>(stats.storeHits),
                static_cast<unsigned long long>(stats.storeRecordings));
  }
  return 0;
}

int loadgenUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s loadgen (--socket PATH | --inproc)\n"
      "                  [--seeds M       distinct circuits (default 5)]\n"
      "                  [--sequences K   test sequences per circuit "
      "(default 2)]\n"
      "                  [--requests N    requests to replay (default 50)]\n"
      "                  [--seed S        base workload seed (default 1)]\n"
      "                  [--zipf E        repeat-skew exponent (default "
      "1.1)]\n"
      "                  [--concurrency T client connections (default 4)]\n"
      "                  [--jobs J        per-request parallelism (default "
      "2)]\n"
      "                  [--no-verify     skip the direct-engine checksum "
      "oracle]\n"
      "                  [--expect-store-hits N  fail unless the daemon\n"
      "                                   reports >= N checkpoint-store "
      "hits]\n"
      "                  [--json] [--out DIR]  write BENCH_serve_mixed.json\n"
      "                  [--shutdown      send shutdown when done]\n"
      "                  [--pool N] [--workers N] [--queue N]\n"
      "                  [--checkpoint-budget SIZE]   (--inproc daemon "
      "knobs)\n"
      "                  [--quiet]\n"
      "Replays M*K distinct workloads over N zipf-skewed requests and "
      "verifies\nevery response checksum against a direct Engine run (exit 1 "
      "on any\nmismatch).\n",
      argv0);
  return to == stderr ? 2 : 0;
}

int runLoadgen(int argc, char** argv) {
  serve::LoadGenOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto nextUint = [&]() -> unsigned {
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      const unsigned long v = std::strtoul(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
        std::fprintf(stderr, "invalid number '%s' for %s\n", text, arg.c_str());
        std::exit(2);
      }
      return static_cast<unsigned>(v);
    };
    if (arg == "--socket") opts.socketPath = next();
    else if (arg == "--inproc") opts.inproc = true;
    else if (arg == "--seeds") opts.circuits = nextUint();
    else if (arg == "--sequences") opts.sequencesPerCircuit = nextUint();
    else if (arg == "--requests") opts.requests = nextUint();
    else if (arg == "--seed") opts.baseSeed = nextUint();
    else if (arg == "--zipf") {
      const char* text = next();
      char* end = nullptr;
      const double v = std::strtod(text, &end);
      if (end == text || *end != '\0' || v < 0.0) {
        std::fprintf(stderr, "invalid zipf exponent '%s'\n", text);
        return 2;
      }
      opts.zipfExponent = v;
    }
    else if (arg == "--concurrency") opts.concurrency = nextUint();
    else if (arg == "--jobs") opts.jobs = nextUint();
    else if (arg == "--no-verify") opts.verify = false;
    else if (arg == "--expect-store-hits") opts.expectStoreHits = nextUint();
    else if (arg == "--json") opts.emitJson = true;
    else if (arg == "--out") opts.outDir = next();
    else if (arg == "--shutdown") opts.shutdownAfter = true;
    // Daemon knobs must be >= 1 and never silently truncated: same strict
    // parser (and caps) as the serve subcommand's flags.
    else if (arg == "--pool") {
      opts.inprocServer.poolEngines =
          parsePositiveCount(next(), "--pool", 1u << 16);
    }
    else if (arg == "--workers") {
      opts.inprocServer.workers =
          parsePositiveCount(next(), "--workers", 1u << 16);
    }
    else if (arg == "--queue") {
      opts.inprocServer.queueBound =
          parsePositiveCount(next(), "--queue", 1u << 20);
    }
    else if (arg == "--checkpoint-budget") {
      opts.inprocServer.checkpointBudgetBytes =
          parseByteSize(next(), "--checkpoint-budget");
    }
    else if (arg == "--quiet") opts.quiet = true;
    else if (arg == "--help") return loadgenUsage(stdout, argv[0]);
    else {
      rejectFlag(arg);
      return loadgenUsage(stderr, argv[0]);
    }
  }
  if (opts.socketPath.empty() && !opts.inproc) {
    std::fprintf(stderr, "loadgen: --socket PATH or --inproc is required\n");
    return 2;
  }

  const serve::LoadGenReport report = serve::runLoadGen(opts);
  if (!opts.quiet) {
    std::printf("loadgen: %u request(s) ok, %u failed over %u distinct "
                "workload(s)\n",
                report.requests, report.failures, report.distinctWorkloads);
    std::printf("         %.1f req/s; latency p50/p95/p99 = "
                "%.2f/%.2f/%.2f ms\n",
                report.requestsPerSec, report.p50Ms, report.p95Ms,
                report.p99Ms);
    std::printf("         engine reuses %llu; store hits %llu, recordings "
                "%llu; checksums %s\n",
                static_cast<unsigned long long>(report.engineReuses),
                static_cast<unsigned long long>(report.storeHits),
                static_cast<unsigned long long>(report.storeRecordings),
                opts.verify ? "verified bit-identical" : "not verified");
    if (!report.benchPath.empty()) {
      std::printf("wrote %s\n", report.benchPath.c_str());
    }
  }
  return 0;
}

int seuUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s seu (--sim FILE | --bench FILE | --demo) --seq FILE\n"
      "              (--inject FILE     transient campaign spec\n"
      "                                 (flip <node> @ <pattern> [pulse <d>])\n"
      "               | --gen N         generate N seeded injections)\n"
      "              [--seed S          generation seed (default 1)]\n"
      "              [--instants K      cluster generated injections onto at\n"
      "                                 most K distinct instants (default 0 =\n"
      "                                 unclustered; clustering shares replay\n"
      "                                 tails between same-instant strikes)]\n"
      "              [--jobs N          worker threads over injection groups]\n"
      "              [--policy any|definite (default: definite)]\n"
      "              [--naive           from-scratch baseline: one full\n"
      "                                 sequence simulation per injection,\n"
      "                                 no checkpoint]\n"
      "              [--verify          run BOTH modes and fail (exit 1)\n"
      "                                 unless results are bit-identical]\n"
      "              [--checkpoint-budget SIZE  good-machine trace budget\n"
      "                                 (bytes, k/m/g; 0 = unbounded)]\n"
      "              [--quiet]\n"
      "Grades each transient as detected (output mismatch), latent (state\n"
      "still differs at end of sequence) or silent (reconverged). The good\n"
      "machine is recorded once; injections grouped by instant replay only\n"
      "the tail after their strike. Deterministic for fixed inputs across\n"
      "--jobs.\n",
      argv0);
  return to == stderr ? 2 : 0;
}

int runSeu(int argc, char** argv) {
  std::optional<std::string> simFile, benchFile, seqFile, injectFile;
  std::optional<std::uint32_t> genCount;
  std::uint64_t seed = 1;
  std::uint32_t instants = 0;
  bool demo = false, naive = false, verify = false, quiet = false;
  seu::CampaignOptions opts;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help") return seuUsage(stdout, argv[0]);
    else if (arg == "--sim") simFile = next();
    else if (arg == "--bench") benchFile = next();
    else if (arg == "--seq") seqFile = next();
    else if (arg == "--demo") demo = true;
    else if (arg == "--inject") injectFile = next();
    else if (arg == "--gen") {
      genCount = parsePositiveCount(next(), "--gen",
                                    std::numeric_limits<std::uint32_t>::max());
    } else if (arg == "--seed") {
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
        std::fprintf(stderr, "invalid number '%s' for --seed\n", text);
        return 2;
      }
      seed = v;
    } else if (arg == "--instants") {
      instants = parsePositiveCount(next(), "--instants",
                                    std::numeric_limits<std::uint32_t>::max());
    } else if (arg == "--jobs") {
      opts.jobs = parsePositiveCount(next(), "--jobs", 1u << 16);
    } else if (arg == "--policy") {
      const std::string p = next();
      if (p == "any") opts.policy = DetectionPolicy::AnyDifference;
      else if (p == "definite") opts.policy = DetectionPolicy::DefiniteOnly;
      else return badValue("--policy", p, "any or definite");
    } else if (arg == "--naive") naive = true;
    else if (arg == "--verify") verify = true;
    else if (arg == "--checkpoint-budget") {
      opts.checkpointBudgetBytes = parseByteSize(next(), "--checkpoint-budget");
    } else if (arg == "--quiet") quiet = true;
    else {
      rejectFlag(arg);
      return seuUsage(stderr, argv[0]);
    }
  }
  if (!demo && !simFile && !benchFile) return seuUsage(stderr, argv[0]);
  if (!demo && !seqFile) return seuUsage(stderr, argv[0]);
  if (injectFile.has_value() == genCount.has_value()) {
    std::fprintf(stderr,
                 "seu: exactly one of --inject FILE or --gen N is required\n");
    return 2;
  }

  // Malformed inputs (netlist, sequence, campaign spec) are invalid
  // invocations: exit 2, mirroring the main driver.
  Network net;
  TestSequence seq;
  TransientList campaign;
  try {
    if (demo) {
      net = parseSimNetlist(kDemoNetlist);
      seq = parseSequence(net, kDemoSequence);
    } else {
      if (simFile) net = loadSimFile(*simFile);
      else net = expandToCmos(loadBenchFile(*benchFile)).net;
      seq = loadSequenceFile(net, *seqFile);
    }
    if (injectFile) {
      campaign = loadTransientSpecFile(net, *injectFile);
    } else {
      SeuGenOptions g;
      g.seed = seed;
      g.numInjections = *genCount;
      g.numPatterns = seq.size();
      g.maxInstants = instants;
      campaign = generateSeuCampaign(net, g);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (!quiet) {
    std::printf("network: %u transistors, %u nodes (%u inputs); sequence: %u "
                "patterns\n",
                net.numTransistors(), net.numNodes(), net.numInputs(),
                seq.size());
    std::printf("campaign: %zu injection(s)%s\n", campaign.size(),
                genCount ? format(" (generated, seed %llu)",
                                  static_cast<unsigned long long>(seed))
                               .c_str()
                         : "");
  }

  try {
    opts.naive = naive;
    const seu::CampaignResult res = runSeuCampaign(net, seq, campaign, opts);

    if (verify) {
      seu::CampaignOptions other = opts;
      other.naive = !naive;
      const seu::CampaignResult ref = runSeuCampaign(net, seq, campaign, other);
      if (ref.checksum() != res.checksum()) {
        std::fprintf(stderr,
                     "seu --verify: MISMATCH — %s=0x%016llx vs %s=0x%016llx\n",
                     naive ? "naive" : "replay",
                     static_cast<unsigned long long>(res.checksum()),
                     naive ? "replay" : "naive",
                     static_cast<unsigned long long>(ref.checksum()));
        return 1;
      }
      if (!quiet) {
        std::printf("verify: replay and naive campaigns bit-identical\n");
      }
    }

    if (!quiet) {
      std::printf("\n%-28s %-9s %s\n", "injection", "outcome", "detected at");
      for (const seu::InjectionResult& r : res.injections) {
        if (r.detectedAtPattern >= 0) {
          std::printf("%-28s %-9s pattern %d\n", r.fault.name.c_str(),
                      seu::outcomeName(r.outcome), r.detectedAtPattern);
        } else {
          std::printf("%-28s %-9s -\n", r.fault.name.c_str(),
                      seu::outcomeName(r.outcome));
        }
      }
    }
    std::printf("\nseu: %zu injection(s): %u detected, %u silent, %u latent "
                "(%u group(s), %s)\n",
                res.injections.size(), res.numDetected, res.numSilent,
                res.numLatent, res.numGroups,
                naive ? "naive" : "checkpoint replay");
    std::printf("time: %.4f s, work: %llu faulty node evaluations, checksum "
                "0x%016llx\n",
                res.totalSeconds,
                static_cast<unsigned long long>(res.totalNodeEvals),
                static_cast<unsigned long long>(res.checksum()));
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--help") == 0) {
    printUsage(stdout, argv[0]);
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0) {
    try {
      return runFuzz(argc, argv);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "bench") == 0) {
    try {
      return runBench(argc, argv);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    try {
      return runServe(argc, argv);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "loadgen") == 0) {
    try {
      return runLoadgen(argc, argv);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "seu") == 0) {
    try {
      return runSeu(argc, argv);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  // Any other non-flag first argument is a mistyped subcommand; refuse it
  // instead of misparsing it as a file option.
  if (argc > 1 && argv[1][0] != '-') {
    std::fprintf(stderr, "unknown subcommand '%s' (try %s --help)\n", argv[1],
                 argv[0]);
    return 2;
  }
  std::optional<std::string> simFile, benchFile, seqFile, faultFile, csvFile;
  bool demo = false, noDrop = false, compare = false, quiet = false;
  EngineOptions opts;  // backend/policy/jobs defaults are the library's

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sim") simFile = next();
    else if (arg == "--bench") benchFile = next();
    else if (arg == "--seq") seqFile = next();
    else if (arg == "--faults") faultFile = next();
    else if (arg == "--csv") csvFile = next();
    else if (arg == "--demo") demo = true;
    else if (arg == "--no-drop") noDrop = true;
    else if (arg == "--compare") compare = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--backend") {
      const std::string b = next();
      if (b == "serial") opts.backend = Backend::Serial;
      else if (b == "concurrent") opts.backend = Backend::Concurrent;
      else return badValue("--backend", b, "serial or concurrent");
    } else if (arg == "--jobs") {
      opts.jobs = parsePositiveCount(next(), "--jobs", 1u << 16);
    } else if (arg == "--batch-faults") {
      opts.batchFaults =
          parsePositiveCount(next(), "--batch-faults",
                             std::numeric_limits<std::uint32_t>::max());
    } else if (arg == "--checkpoint-budget") {
      opts.checkpointBudgetBytes = parseByteSize(next(), "--checkpoint-budget");
    } else if (arg == "--schedule") {
      const char* text = next();
      const auto parsed = sched::parseSchedulePolicy(text);
      if (!parsed) {
        std::fprintf(stderr,
                     "invalid value '%s' for --schedule (want contiguous or "
                     "history)\n",
                     text);
        return 2;
      }
      opts.schedule = *parsed;
    } else if (arg == "--history-file") {
      opts.historyFile = next();
    } else if (arg == "--policy") {
      const std::string p = next();
      if (p == "any") opts.policy = DetectionPolicy::AnyDifference;
      else if (p == "definite") opts.policy = DetectionPolicy::DefiniteOnly;
      else return badValue("--policy", p, "any or definite");
    } else if (arg == "--serial") {
      std::fprintf(stderr,
                   "--serial was replaced: use --backend serial, or --compare "
                   "to cross-check both backends\n");
      return 2;
    } else {
      rejectFlag(arg);
      return usage(argv[0]);
    }
  }
  if (!demo && !simFile && !benchFile) return usage(argv[0]);
  if (!demo && (!seqFile || !faultFile)) return usage(argv[0]);

  // Input loading gets its own catch: a malformed netlist, sequence or fault
  // spec is an invalid-invocation error (exit 2, like bad flag values), not a
  // simulation failure. The parsers report line-numbered messages.
  Network net;
  TestSequence seq;
  FaultList faults;
  try {
    if (demo) {
      net = parseSimNetlist(kDemoNetlist);
    } else if (simFile) {
      net = loadSimFile(*simFile);
    } else {
      const GateCircuit gates = loadBenchFile(*benchFile);
      net = expandToCmos(gates).net;
    }
    seq = demo ? parseSequence(net, kDemoSequence)
               : loadSequenceFile(net, *seqFile);
    faults = demo ? parseFaultSpec(net, kDemoFaults)
                  : loadFaultSpecFile(net, *faultFile);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (!quiet) {
    std::printf("network: %u transistors (%u fault devices), %u nodes "
                "(%u inputs)\n",
                net.numTransistors(), net.numFaultDevices(), net.numNodes(),
                net.numInputs());
    std::printf("sequence: %u patterns, %zu output(s); faults: %u\n",
                seq.size(), seq.outputs().size(), faults.size());
  }

  try {
    opts.dropDetected = !noDrop;
    Engine engine(net, faults, opts);
    if (!quiet) {
      std::printf("backend: %s", engine.backendName());
      if (std::string(engine.backendName()) == "sharded") {
        // Report the effective shard count (clamped to the fault count).
        std::printf(" (%u jobs)", std::min(opts.jobs, faults.size()));
      }
      std::printf("\n");
    }
    const FaultSimResult res = engine.run(seq);

    if (!quiet) {
      std::printf("\n%-8s %-10s %-12s %-8s\n", "pattern", "detected",
                  "cumulative", "alive");
      for (const SeriesRow& row : downsample(res, 20)) {
        std::printf("%-8u %-10s %-12u %-8u\n", row.pattern, "",
                    row.cumulativeDetected, row.alive);
      }
    }
    std::printf("\ncoverage: %u / %u (%.2f%%), potential (X) detections: %llu\n",
                res.numDetected, res.numFaults, 100.0 * res.coverage(),
                (unsigned long long)res.potentialDetections);
    // Sharded runs overlap batch work on the wall clock; report the two
    // timing fields separately so neither masquerades as the other.
    if (std::string(engine.backendName()) == "sharded") {
      std::printf("time: %.4f s wall (%.4f s engine CPU), work: %llu node "
                  "evaluations\n",
                  res.totalSeconds, res.totalCpuSeconds,
                  (unsigned long long)res.totalNodeEvals);
    } else {
      std::printf("time: %.4f s, work: %llu node evaluations\n",
                  res.totalSeconds, (unsigned long long)res.totalNodeEvals);
    }

    if (!quiet) {
      std::printf("\nundetected faults:\n");
      unsigned shown = 0;
      for (std::uint32_t i = 0; i < faults.size(); ++i) {
        if (res.detectedAtPattern[i] < 0) {
          std::printf("  %s\n", faults[i].name.c_str());
          if (++shown >= 25) {
            std::printf("  ... (%u total)\n", res.numFaults - res.numDetected);
            break;
          }
        }
      }
      if (shown == 0) std::printf("  (none)\n");
    }

    if (csvFile) {
      writeCsv(res, *csvFile);
      std::printf("per-pattern series written to %s\n", csvFile->c_str());
    }

    if (compare) {
      // Cross-check against the other backend through the same interface.
      EngineOptions other = opts;
      other.backend = opts.backend == Backend::Serial ? Backend::Concurrent
                                                      : Backend::Serial;
      other.jobs = 1;
      Engine reference(net, faults, other);
      const FaultSimResult rres = reference.run(seq);
      std::printf("\n%s reference: %u detected, %.4f s\n",
                  reference.backendName(), rres.numDetected, rres.totalSeconds);
      const GoodRunResult good = engine.runGood(seq);
      const SerialEstimate est =
          estimateSerial(res.detectedAtPattern, seq.size(),
                         good.secondsPerPattern(), good.nodeEvalsPerPattern());
      std::printf("paper-method serial estimate: %.4f s\n", est.seconds);
      bool match = rres.numDetected == res.numDetected;
      for (std::uint32_t i = 0; match && i < faults.size(); ++i) {
        match = rres.detectedAtPattern[i] == res.detectedAtPattern[i];
      }
      std::printf("backend detection agreement: %s\n",
                  match ? "EXACT" : "MISMATCH");
      if (!match) return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
