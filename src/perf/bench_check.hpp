/// \file
/// Benchmark regression gate — compares fresh measurements against
/// checked-in BENCH_<scenario>.json baselines (the CI step that makes a
/// performance regression fail a PR instead of rotting silently).
///
/// Two classes of check:
///
///   * **Exact** (machine-independent): result checksum, deterministic
///     nodeEvals work counter (its total and, for rows with per-pattern
///     rows, the digest of every row's count), detection counts and
///     workload shape must match the baseline bit for bit, and so must the
///     checkpoint store's residentBytes when neither side set a memory
///     budget (a spilled store's residency depends on window timing). Any
///     drift means the simulation or the trace layout changed (or the
///     baselines were not refreshed with the code change) and always fails
///     the gate.
///   * **Wall clock** (machine-dependent): a row's fresh median may not
///     exceed the baseline median by more than the configured tolerance.
///     Faster is always fine. The tolerance is the override knob for noisy
///     or differently-sized runners — CI passes a generous value because
///     hosted runners differ from the machine that recorded the baselines;
///     see docs/BENCHMARKING.md.
///
/// Rows are matched by (backend, jobs, policy, dropDetected); a row present
/// on one side only fails the gate (the matrix changed without a baseline
/// refresh).
#pragma once

#include <string>
#include <vector>

#include "perf/bench_runner.hpp"

namespace fmossim::perf {

/// Gate configuration.
struct CheckOptions {
  /// Directory holding the baseline BENCH_<scenario>.json files.
  std::string baselineDir = ".";
  /// Maximum tolerated wall-clock regression, percent of the baseline
  /// median (15 = fail if fresh median > 1.15 x baseline median).
  double tolerancePct = 15.0;
  /// When true (an unfiltered run), every BENCH_*.json in baselineDir must
  /// correspond to a fresh scenario — a stale baseline for a removed or
  /// renamed scenario fails the gate instead of rotting silently. Leave
  /// false for --scenario-filtered runs, where most baselines are
  /// legitimately absent from the fresh set.
  bool expectComplete = false;
};

/// One gate violation.
struct CheckIssue {
  std::string scenario;  ///< scenario the issue is in
  std::string row;       ///< row label ("concurrent policy=any drop=yes"), or
                         ///< empty for scenario-level issues
  std::string detail;    ///< human-readable description
};

/// Result of a gate run.
struct CheckReport {
  std::vector<CheckIssue> issues;  ///< empty means the gate passes
  unsigned rowsChecked = 0;        ///< rows compared across all scenarios
  /// True if every check passed.
  bool ok() const { return issues.empty(); }
};

/// Compares one fresh scenario result against its baseline (pure function;
/// the unit-testable core of the gate). Appends issues to `report`.
void checkScenarioAgainstBaseline(const ScenarioResult& fresh,
                                  const ScenarioResult& baseline,
                                  double tolerancePct, CheckReport& report);

/// Shape-validates a service benchmark file (a baseline carrying a
/// `service` object, e.g. BENCH_serve_mixed.json). Service benchmarks have
/// no registry scenario to re-run, so the gate cannot compare them against
/// fresh numbers; instead it checks internal consistency — non-empty rows,
/// positive request count and throughput, ordered latency percentiles
/// (p50 <= p95 <= p99), at least one good-machine recording and a non-zero
/// result checksum. Appends issues to `report`.
void checkServiceBaselineShape(const ScenarioResult& baseline,
                               CheckReport& report);

/// Runs the gate: for every fresh scenario result, loads
/// `<baselineDir>/BENCH_<scenario>.json` and compares. A missing or
/// unparsable baseline file is itself a gate failure.
CheckReport checkAgainstBaselines(const std::vector<ScenarioResult>& fresh,
                                  const CheckOptions& options);

}  // namespace fmossim::perf
