// BenchRunner: scenario-selection determinism, workload determinism, and
// cross-backend checksum agreement on a real (smoke-sized) measurement.
#include "perf/bench_runner.hpp"

#include <gtest/gtest.h>

#include "perf/scenarios.hpp"

namespace fmossim::perf {
namespace {

TEST(BenchScenarioTest, RegistryIsStableAndComplete) {
  const std::vector<std::string>& names = scenarioNames();
  // The registry order is part of the harness contract (BENCH file ordering,
  // docs/BENCHMARKING.md); changing it is a schema-affecting decision.
  const std::vector<std::string> expected = {
      "ram64_seq1",  "ram64_seq2", "ram256_seq1",     "fuzz_small",
      "fuzz_medium", "fuzz_large", "fuzz_xlarge_seq", "seu_ram256",
  };
  EXPECT_EQ(names, expected);
  EXPECT_EQ(scenarioNames(), names);  // deterministic across calls
  for (const std::string& n : names) EXPECT_TRUE(isScenario(n));
  EXPECT_FALSE(isScenario("no_such_scenario"));
}

TEST(BenchScenarioTest, UnknownScenarioThrows) {
  EXPECT_THROW(buildScenarioWorkload("no_such_scenario"), Error);
  BenchConfig config;
  config.only = {"fuzz_small", "typo"};
  EXPECT_THROW(BenchRunner(config).selectedScenarios(), Error);
}

TEST(BenchScenarioTest, SelectionHonorsRegistryOrderAndDedupes) {
  BenchConfig config;
  // Filter order and duplicates must not affect the run order.
  config.only = {"fuzz_small", "ram64_seq1", "fuzz_small"};
  const std::vector<std::string> sel = BenchRunner(config).selectedScenarios();
  const std::vector<std::string> expected = {"ram64_seq1", "fuzz_small"};
  EXPECT_EQ(sel, expected);

  // Empty filter selects everything.
  EXPECT_EQ(BenchRunner(BenchConfig{}).selectedScenarios(), scenarioNames());
}

TEST(BenchScenarioTest, WorkloadBuildIsDeterministic) {
  const Workload a = buildScenarioWorkload("fuzz_medium");
  const Workload b = buildScenarioWorkload("fuzz_medium");
  EXPECT_EQ(a.net.numTransistors(), b.net.numTransistors());
  EXPECT_EQ(a.net.numNodes(), b.net.numNodes());
  EXPECT_EQ(a.faults.size(), b.faults.size());
  EXPECT_EQ(a.seq.size(), b.seq.size());
  ASSERT_FALSE(a.rows.empty());
  // Equal workloads must produce equal results (and therefore equal
  // checksums) through the Engine.
  Engine ea(a.net, a.faults, a.rows[0].engineOptions());
  Engine eb(b.net, b.faults, b.rows[0].engineOptions());
  EXPECT_EQ(resultChecksum(ea.run(a.seq)), resultChecksum(eb.run(b.seq)));
}

TEST(ResultChecksumTest, SensitiveToDetectionsAndStates) {
  FaultSimResult r;
  r.numFaults = 2;
  r.detectedAtPattern = {3, -1};
  r.finalGoodStates = {State::S0, State::S1};
  const std::uint64_t base = resultChecksum(r);
  EXPECT_EQ(resultChecksum(r), base);  // stable

  FaultSimResult changed = r;
  changed.detectedAtPattern[1] = 5;
  EXPECT_NE(resultChecksum(changed), base);

  changed = r;
  changed.finalGoodStates[0] = State::SX;
  EXPECT_NE(resultChecksum(changed), base);
}

// The per-row digest sees work that moves between patterns with the total
// unchanged; resultChecksum, pinned elsewhere, does not fold work at all.
TEST(ResultChecksumTest, RowDigestSeesWorkMovingBetweenRows) {
  FaultSimResult r;
  r.numPatterns = 2;
  r.perPattern.resize(2);
  r.perPattern[0].nodeEvals = 10;
  r.perPattern[1].nodeEvals = 20;
  const std::uint64_t digest = rowNodeEvalsDigest(r);
  EXPECT_NE(digest, 0u);
  FaultSimResult moved = r;
  moved.perPattern[0].nodeEvals = 20;
  moved.perPattern[1].nodeEvals = 10;
  EXPECT_NE(rowNodeEvalsDigest(moved), digest);
  EXPECT_EQ(resultChecksum(moved), resultChecksum(r));
  EXPECT_EQ(rowNodeEvalsDigest(FaultSimResult{}), 0u);  // rowless
}

TEST(BenchRunnerTest, SmokeRunAgreesAcrossBackends) {
  BenchConfig config;
  config.smoke = true;
  config.only = {"fuzz_small"};
  const ScenarioResult sr = BenchRunner(config).runScenario("fuzz_small");
  ASSERT_GE(sr.rows.size(), 4u);
  EXPECT_EQ(sr.scenario, "fuzz_small");
  EXPECT_GT(sr.faults, 0u);
  EXPECT_GT(sr.patterns, 0u);
  for (const BenchRow& row : sr.rows) {
    EXPECT_EQ(row.reps, 1u);  // smoke: one measured repetition
    EXPECT_GT(row.numFaults, 0u);
  }
  // Rows differing only in backend/jobs must be bit-identical.
  for (const BenchRow& a : sr.rows) {
    for (const BenchRow& b : sr.rows) {
      if (a.policy == b.policy && a.dropDetected == b.dropDetected) {
        EXPECT_EQ(a.checksum, b.checksum)
            << a.backend << " vs " << b.backend;
      }
    }
  }
  // Repeating the measurement reproduces the checksums (determinism of the
  // full scenario matrix, not just of one engine).
  const ScenarioResult again = BenchRunner(config).runScenario("fuzz_small");
  ASSERT_EQ(again.rows.size(), sr.rows.size());
  for (std::size_t i = 0; i < sr.rows.size(); ++i) {
    EXPECT_EQ(again.rows[i].checksum, sr.rows[i].checksum);
    EXPECT_EQ(again.rows[i].nodeEvals, sr.rows[i].nodeEvals);
    EXPECT_EQ(again.rows[i].rowNodeEvalsDigest, sr.rows[i].rowNodeEvalsDigest);
    EXPECT_NE(sr.rows[i].rowNodeEvalsDigest, 0u) << sr.rows[i].backend;
  }
}

// Cross-row checkpoint sharing: one scenario's sharded-2 and sharded-4 rows
// (plus warmups and repetitions) must record the good machine exactly once
// — the counter that lands in the BENCH JSON.
TEST(BenchRunnerTest, ScenarioRecordsItsCheckpointExactlyOnce) {
  BenchConfig config;
  config.reps = 2;
  config.warmup = 1;
  config.only = {"fuzz_small"};
  const ScenarioResult sr = BenchRunner(config).runScenario("fuzz_small");
  bool hasSharded = false;
  for (const BenchRow& row : sr.rows) hasSharded |= row.jobs > 1;
  ASSERT_TRUE(hasSharded);
  EXPECT_EQ(sr.checkpointRecordings, 1u);
  EXPECT_GT(sr.checkpointResidentBytes, 0u);

  // A forced budget routes the same scenario through the spill path with
  // identical results and a bounded resident footprint.
  BenchConfig budgeted = config;
  budgeted.smoke = true;
  budgeted.checkpointBudget = 64u << 10;
  const ScenarioResult spilled =
      BenchRunner(budgeted).runScenario("fuzz_small");
  EXPECT_EQ(spilled.checkpointRecordings, 1u);
  EXPECT_EQ(spilled.checkpointBudget, 64u << 10);
  EXPECT_LE(spilled.checkpointResidentBytes, spilled.checkpointBudget);
  ASSERT_EQ(spilled.rows.size(), sr.rows.size());
  for (std::size_t i = 0; i < sr.rows.size(); ++i) {
    EXPECT_EQ(spilled.rows[i].checksum, sr.rows[i].checksum) << i;
    EXPECT_EQ(spilled.rows[i].nodeEvals, sr.rows[i].nodeEvals) << i;
  }
}

}  // namespace
}  // namespace fmossim::perf
