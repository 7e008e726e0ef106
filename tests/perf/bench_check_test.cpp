// Benchmark regression gate: row matching, exact checks, tolerance math,
// and the file-level baseline loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "perf/bench_check.hpp"
#include "perf/bench_json.hpp"

namespace fmossim::perf {
namespace {

BenchRow makeRow(const char* backend, unsigned jobs, double medianMs) {
  BenchRow row;
  row.backend = backend;
  row.jobs = jobs;
  row.policy = "any";
  row.dropDetected = true;
  row.medianMs = medianMs;
  row.stddevMs = 0.1;
  row.reps = 3;
  row.checksum = 0xabcdef0123456789ULL;
  row.nodeEvals = 1000;
  row.numDetected = 9;
  row.numFaults = 10;
  return row;
}

ScenarioResult makeScenario() {
  ScenarioResult sr;
  sr.scenario = "unit";
  sr.description = "gate unit-test scenario";
  sr.transistors = 4;
  sr.nodes = 3;
  sr.faults = 10;
  sr.patterns = 5;
  sr.rows = {makeRow("concurrent", 1, 100.0), makeRow("sharded-4", 4, 50.0)};
  return sr;
}

TEST(BenchCheckTest, IdenticalResultsPass) {
  const ScenarioResult sr = makeScenario();
  CheckReport report;
  checkScenarioAgainstBaseline(sr, sr, 15.0, report);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rowsChecked, 2u);
}

TEST(BenchCheckTest, WallClockRegressionBeyondToleranceFails) {
  const ScenarioResult base = makeScenario();
  ScenarioResult fresh = base;
  fresh.rows[0].medianMs = 116.0;  // +16% > 15%
  CheckReport report;
  checkScenarioAgainstBaseline(fresh, base, 15.0, report);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].detail.find("wall-clock regression"),
            std::string::npos);
  // The same regression passes under a raised tolerance (the noisy-runner
  // override knob).
  CheckReport relaxed;
  checkScenarioAgainstBaseline(fresh, base, 50.0, relaxed);
  EXPECT_TRUE(relaxed.ok());
}

TEST(BenchCheckTest, FasterIsNotARegression) {
  const ScenarioResult base = makeScenario();
  ScenarioResult fresh = base;
  fresh.rows[0].medianMs = 10.0;
  CheckReport report;
  checkScenarioAgainstBaseline(fresh, base, 15.0, report);
  EXPECT_TRUE(report.ok());
}

TEST(BenchCheckTest, ChecksumAndWorkDriftAlwaysFail) {
  const ScenarioResult base = makeScenario();
  ScenarioResult fresh = base;
  fresh.rows[1].checksum ^= 1;
  fresh.rows[1].nodeEvals += 7;
  CheckReport report;
  // Even an absurd tolerance cannot excuse exact-check drift.
  checkScenarioAgainstBaseline(fresh, base, 1e9, report);
  ASSERT_EQ(report.issues.size(), 2u);
  EXPECT_NE(report.issues[0].detail.find("checksum drift"), std::string::npos);
  EXPECT_NE(report.issues[1].detail.find("nodeEvals drift"),
            std::string::npos);
}

// A row's total can stay exact while its work moves between patterns (a
// merge that drops each row's good evaluations but keeps the total): the
// per-row digest catches it at any tolerance.
TEST(BenchCheckTest, PerRowWorkDriftAlwaysFails) {
  ScenarioResult base = makeScenario();
  base.rows[1].rowNodeEvalsDigest = 0x1111;
  ScenarioResult fresh = base;
  fresh.rows[1].rowNodeEvalsDigest = 0x2222;
  CheckReport report;
  checkScenarioAgainstBaseline(fresh, base, 1e9, report);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].detail.find("per-row nodeEvals drift"),
            std::string::npos);
}

TEST(BenchCheckTest, UnbudgetedCheckpointFootprintIsExact) {
  ScenarioResult base = makeScenario();
  base.checkpointRecordings = 1;
  base.checkpointResidentBytes = 4096;
  ScenarioResult fresh = base;
  fresh.checkpointResidentBytes = 4100;
  CheckReport report;
  checkScenarioAgainstBaseline(fresh, base, 15.0, report);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].detail.find("residentBytes drift"),
            std::string::npos);
  // A budgeted (spilled) store's residency follows window timing: not
  // compared, on either side.
  base.checkpointBudget = 8192;
  CheckReport budgeted;
  checkScenarioAgainstBaseline(fresh, base, 15.0, budgeted);
  EXPECT_TRUE(budgeted.ok());
  base.checkpointBudget = 0;
  fresh.checkpointBudget = 8192;
  CheckReport overridden;
  checkScenarioAgainstBaseline(fresh, base, 15.0, overridden);
  EXPECT_TRUE(overridden.ok());
}

TEST(BenchCheckTest, MatrixChangesFailBothWays) {
  const ScenarioResult base = makeScenario();
  ScenarioResult fresh = base;
  fresh.rows.pop_back();
  fresh.rows.push_back(makeRow("sharded-8", 8, 40.0));
  CheckReport report;
  checkScenarioAgainstBaseline(fresh, base, 15.0, report);
  // sharded-4 missing from fresh, sharded-8 missing from baseline.
  EXPECT_EQ(report.issues.size(), 2u);
}

TEST(BenchCheckTest, WorkloadShapeChangeFails) {
  const ScenarioResult base = makeScenario();
  ScenarioResult fresh = base;
  fresh.patterns += 1;
  CheckReport report;
  checkScenarioAgainstBaseline(fresh, base, 15.0, report);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].detail.find("workload shape"), std::string::npos);
}

TEST(BenchCheckTest, DirectoryGateLoadsBaselinesAndReportsMissing) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fmossim_bench_check_test";
  fs::create_directories(dir);
  const ScenarioResult sr = makeScenario();
  writeBenchFile(sr, dir.string());

  CheckOptions opts;
  opts.baselineDir = dir.string();
  const CheckReport ok = checkAgainstBaselines({sr}, opts);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.rowsChecked, 2u);

  ScenarioResult other = sr;
  other.scenario = "missing";
  const CheckReport missing = checkAgainstBaselines({other}, opts);
  ASSERT_EQ(missing.issues.size(), 1u);
  EXPECT_NE(missing.issues[0].detail.find("cannot read baseline"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(BenchCheckTest, UnfilteredRunFlagsStaleBaselines) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fmossim_bench_stale_test";
  fs::create_directories(dir);
  const ScenarioResult sr = makeScenario();
  writeBenchFile(sr, dir.string());
  ScenarioResult removed = sr;
  removed.scenario = "removed_scenario";
  writeBenchFile(removed, dir.string());  // baseline with no live scenario

  CheckOptions opts;
  opts.baselineDir = dir.string();
  // Filtered run (expectComplete off): the stale file is ignored.
  EXPECT_TRUE(checkAgainstBaselines({sr}, opts).ok());
  // Unfiltered run: the stale file fails the gate.
  opts.expectComplete = true;
  const CheckReport report = checkAgainstBaselines({sr}, opts);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].scenario, "removed_scenario");
  EXPECT_NE(report.issues[0].detail.find("stale baseline"),
            std::string::npos);
  fs::remove_all(dir);
}

// SEU campaign tallies are deterministic, so any drift is an exact-check
// failure regardless of tolerance — same contract as checksums.
TEST(BenchCheckTest, SeuSummaryDriftAlwaysFails) {
  ScenarioResult base = makeScenario();
  SeuSummary seu;
  seu.injections = 32;
  seu.instants = 4;
  seu.detected = 20;
  seu.silent = 9;
  seu.latent = 3;
  base.seu = seu;

  // Identical summaries pass.
  CheckReport same;
  checkScenarioAgainstBaseline(base, base, 15.0, same);
  EXPECT_TRUE(same.ok());

  // Outcome drift fails even under an absurd tolerance.
  ScenarioResult fresh = base;
  fresh.seu->detected = 21;
  fresh.seu->silent = 8;
  CheckReport drift;
  checkScenarioAgainstBaseline(fresh, base, 1e9, drift);
  ASSERT_EQ(drift.issues.size(), 1u);
  EXPECT_NE(drift.issues[0].detail.find("seu grading drift"),
            std::string::npos);

  // Presence mismatch fails in both directions.
  ScenarioResult none = makeScenario();
  CheckReport missing;
  checkScenarioAgainstBaseline(none, base, 15.0, missing);
  EXPECT_FALSE(missing.ok());
  CheckReport extra;
  checkScenarioAgainstBaseline(base, none, 15.0, extra);
  EXPECT_FALSE(extra.ok());
}

ScenarioResult makeServiceScenario() {
  ScenarioResult sr = makeScenario();
  sr.scenario = "serve_mixed";
  ServiceSummary svc;
  svc.requests = 50;
  svc.distinctWorkloads = 10;
  svc.requestsPerSec = 100.0;
  svc.p50Ms = 10.0;
  svc.p95Ms = 20.0;
  svc.p99Ms = 30.0;
  svc.storeHits = 19;
  svc.storeRecordings = 7;
  svc.engineReuses = 42;
  sr.service = svc;
  return sr;
}

// Service baselines (BENCH_serve_mixed.json) have no registry scenario to
// re-run; an unfiltered gate shape-validates them instead of flagging them
// stale.
TEST(BenchCheckTest, ServiceBaselineIsShapeValidatedNotStale) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fmossim_bench_svc_test";
  fs::create_directories(dir);
  const ScenarioResult sr = makeScenario();
  writeBenchFile(sr, dir.string());
  writeBenchFile(makeServiceScenario(), dir.string());

  CheckOptions opts;
  opts.baselineDir = dir.string();
  opts.expectComplete = true;
  EXPECT_TRUE(checkAgainstBaselines({sr}, opts).ok());
  fs::remove_all(dir);
}

TEST(BenchCheckTest, ServiceShapeValidationCatchesInconsistencies) {
  CheckReport ok;
  checkServiceBaselineShape(makeServiceScenario(), ok);
  EXPECT_TRUE(ok.ok());

  // Out-of-order percentiles.
  ScenarioResult bad = makeServiceScenario();
  bad.service->p50Ms = 40.0;  // > p95
  CheckReport r1;
  checkServiceBaselineShape(bad, r1);
  EXPECT_FALSE(r1.ok());

  // Repeat traffic with zero store hits means reuse is broken.
  bad = makeServiceScenario();
  bad.service->storeHits = 0;
  CheckReport r2;
  checkServiceBaselineShape(bad, r2);
  EXPECT_FALSE(r2.ok());

  // No recordings at all: the store was never engaged.
  bad = makeServiceScenario();
  bad.service->storeRecordings = 0;
  CheckReport r3;
  checkServiceBaselineShape(bad, r3);
  EXPECT_FALSE(r3.ok());

  // Zero requests / zero throughput.
  bad = makeServiceScenario();
  bad.service->requests = 0;
  CheckReport r4;
  checkServiceBaselineShape(bad, r4);
  EXPECT_FALSE(r4.ok());

  // A zero row checksum means the replay recorded nothing meaningful.
  bad = makeServiceScenario();
  bad.rows[0].checksum = 0;
  CheckReport r5;
  checkServiceBaselineShape(bad, r5);
  EXPECT_FALSE(r5.ok());

  // A non-service file passed in by mistake is itself an issue.
  CheckReport r6;
  checkServiceBaselineShape(makeScenario(), r6);
  EXPECT_FALSE(r6.ok());
}

}  // namespace
}  // namespace fmossim::perf
