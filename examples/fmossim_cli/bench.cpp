// fmossim_cli bench: the reproducible performance harness (src/perf/) over
// the scenario matrix of docs/BENCHMARKING.md, and the --check regression
// gate against checked-in BENCH_*.json baselines.
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "perf/bench_check.hpp"
#include "perf/bench_json.hpp"
#include "perf/bench_runner.hpp"

namespace fmossim::cli {

namespace {

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

}  // namespace

int runBench(int argc, char** argv) {
  perf::BenchConfig config;
  perf::CheckOptions checkOpts;
  std::string outDir = ".";
  bool json = false, list = false, quiet = false, check = false;

  for (Args a(argc, argv, 2); a.next();) {
    const std::string& arg = a.flag();
    if (arg == "--json") json = true;
    else if (arg == "--out") outDir = a.value();
    else if (arg == "--scenario") config.only.push_back(a.value());
    else if (arg == "--reps") config.reps = a.count(kU32Max);
    else if (arg == "--warmup") config.warmup = a.u64(kU32Max);
    else if (arg == "--smoke") config.smoke = true;
    else if (arg == "--checkpoint-budget") config.checkpointBudget = a.bytes();
    else if (arg == "--check") check = true;
    else if (arg == "--baseline") checkOpts.baselineDir = a.value();
    else if (arg == "--tolerance") checkOpts.tolerancePct = a.real();
    else if (arg == "--list") list = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help") return benchUsage(stdout, argv[0]);
    else {
      a.rejectFlag();
      return benchUsage(stderr, argv[0]);
    }
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

}  // namespace fmossim::cli
