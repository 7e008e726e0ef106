// fmossim_cli — command-line fault simulator driver over the unified
// Engine API. This file holds the default run and the subcommand dispatch;
// each subcommand lives in its own file (fuzz.cpp, bench.cpp, serve.cpp,
// loadgen.cpp, seu.cpp) over the flag cursor of cli.hpp.
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
//   fmossim_cli seu ...                          (transient-fault grading)
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
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "cli.hpp"
#include "core/estimator.hpp"
#include "faults/fault_spec.hpp"
#include "stats/recorder.hpp"

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

int runDefault(int argc, char** argv) {
  cli::CircuitInput input;
  std::optional<std::string> faultFile, csvFile;
  bool noDrop = false, compare = false, quiet = false;
  EngineOptions opts;  // backend/policy/jobs defaults are the library's

  for (cli::Args a(argc, argv, 1); a.next();) {
    const std::string& arg = a.flag();
    if (input.take(a)) continue;
    if (arg == "--faults") faultFile = a.value();
    else if (arg == "--csv") csvFile = a.value();
    else if (arg == "--no-drop") noDrop = true;
    else if (arg == "--compare") compare = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--backend") {
      const std::string b = a.value();
      if (b == "serial") opts.backend = Backend::Serial;
      else if (b == "concurrent") opts.backend = Backend::Concurrent;
      else a.invalid(b.c_str(), "serial or concurrent");
    } else if (arg == "--jobs") {
      opts.jobs = a.count(1u << 16);
    } else if (arg == "--batch-faults") {
      opts.batchFaults = a.count(cli::kU32Max);
    } else if (arg == "--checkpoint-budget") {
      opts.checkpointBudgetBytes = a.bytes();
    } else if (arg == "--schedule") {
      const char* text = a.value();
      const auto parsed = sched::parseSchedulePolicy(text);
      if (!parsed) a.invalid(text, "contiguous or history");
      opts.schedule = *parsed;
    } else if (arg == "--history-file") {
      opts.historyFile = a.value();
    } else if (arg == "--policy") {
      opts.policy = a.policy();
    } else if (arg == "--serial") {
      std::fprintf(stderr,
                   "--serial was replaced: use --backend serial, or --compare "
                   "to cross-check both backends\n");
      return 2;
    } else {
      a.rejectFlag();
      return usage(argv[0]);
    }
  }
  if (!input.complete() || (!input.demo && !faultFile)) return usage(argv[0]);

  // Input loading gets its own catch: a malformed netlist, sequence or fault
  // spec is an invalid-invocation error (exit 2, like bad flag values), not a
  // simulation failure. The parsers report line-numbered messages.
  Network net;
  TestSequence seq;
  FaultList faults;
  try {
    cli::loadCircuit(input, net, seq);
    faults = input.demo ? parseFaultSpec(net, cli::kDemoFaults)
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
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr struct {
    const char* name;
    int (*run)(int, char**);
  } kSubcommands[] = {{"fuzz", cli::runFuzz},
                      {"bench", cli::runBench},
                      {"serve", cli::runServe},
                      {"loadgen", cli::runLoadgen},
                      {"seu", cli::runSeu}};

  if (argc > 1 && std::strcmp(argv[1], "--help") == 0) {
    printUsage(stdout, argv[0]);
    return 0;
  }
  int (*run)(int, char**) = runDefault;
  // Any other non-flag first argument names a subcommand; a mistyped one is
  // refused instead of misparsed as a file option.
  if (argc > 1 && argv[1][0] != '-') {
    run = nullptr;
    for (const auto& sub : kSubcommands) {
      if (std::strcmp(argv[1], sub.name) == 0) run = sub.run;
    }
    if (run == nullptr) {
      std::fprintf(stderr, "unknown subcommand '%s' (try %s --help)\n",
                   argv[1], argv[0]);
      return 2;
    }
  }
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
