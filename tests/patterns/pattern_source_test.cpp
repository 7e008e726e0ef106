// PatternSource property tests: a streamed run must be indistinguishable
// from a materialized one.
//
// The core properties:
//   * every source yields exactly the pattern stream of its materialized
//     equivalent (labels, settings, outputs), and rewind() restarts it;
//   * PatternSource::fingerprint() equals
//     GoodMachineCheckpoint::fingerprint() of the materialized sequence —
//     the invariant that lets streamed and materialized runs share one
//     checkpoint store entry;
//   * Engine::runStream produces results checksum-identical to Engine::run
//     across the diff-oracle matrix (serial / concurrent / sharded{2,4}),
//     with the derived per-pattern rows matching the
//     materialized rows field by field.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "api/engine.hpp"
#include "core/checkpoint.hpp"
#include "core/row_sink.hpp"
#include "gen/random_circuit.hpp"
#include "patterns/pattern_source.hpp"
#include "patterns/sequence_io.hpp"
#include "perf/bench_runner.hpp"
#include "util/hash.hpp"

namespace fmossim {
namespace {

GenOptions testGen() {
  GenOptions gen;
  gen.seed = 4242;
  gen.numNodes = 24;
  gen.numInputs = 6;
  gen.numFaults = 40;
  gen.numPatterns = 24;
  return gen;
}

void expectSamePattern(const Pattern& got, const Pattern& want,
                       std::uint64_t index) {
  EXPECT_EQ(got.label, want.label) << "pattern " << index;
  ASSERT_EQ(got.settings.size(), want.settings.size()) << "pattern " << index;
  for (std::size_t s = 0; s < want.settings.size(); ++s) {
    ASSERT_EQ(got.settings[s].assignments, want.settings[s].assignments)
        << "pattern " << index << " setting " << s;
  }
}

/// Consumes `source` and asserts it yields exactly `seq`'s stream.
void expectSameStream(PatternSource& source, const TestSequence& seq) {
  ASSERT_EQ(source.numPatterns(), seq.size());
  ASSERT_EQ(source.outputs(), seq.outputs());
  Pattern p;
  for (std::uint32_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(source.next(p)) << "stream ended early at pattern " << i;
    expectSamePattern(p, seq[i], i);
  }
  EXPECT_FALSE(source.next(p)) << "stream yields more than numPatterns()";
}

TEST(PatternSourceTest, MaterializedYieldsTheSequenceAndRewinds) {
  const GeneratedWorkload w = generateWorkload(testGen());
  MaterializedPatternSource source(w.seq);
  expectSameStream(source, w.seq);
  source.rewind();
  expectSameStream(source, w.seq);
}

TEST(PatternSourceTest, FingerprintMatchesCheckpointFingerprint) {
  const GeneratedWorkload w = generateWorkload(testGen());
  MaterializedPatternSource source(w.seq);
  EXPECT_EQ(source.fingerprint(), GoodMachineCheckpoint::fingerprint(w.seq));
  // fingerprint() rewinds after its pass: the stream is still consumable.
  expectSameStream(source, w.seq);
}

// The generator's streamed and materialized paths are identical by
// construction: generateWorkload() materializes through a
// GeneratedPatternSource, so an independent source over the same options
// must reproduce the sequence exactly — and fingerprint equal.
TEST(PatternSourceTest, GeneratedStreamMatchesMaterializedWorkload) {
  const GenOptions gen = testGen();
  const GeneratedWorkload materialized = generateWorkload(gen);
  GeneratedStreamWorkload streamed = generateWorkloadStream(gen);
  GeneratedPatternSource source(streamed.seqConfig);
  expectSameStream(source, materialized.seq);
  source.rewind();
  EXPECT_EQ(source.fingerprint(),
            GoodMachineCheckpoint::fingerprint(materialized.seq));
}

TEST(PatternSourceTest, FileSourceRoundTripsTheTextFormat) {
  const GeneratedWorkload w = generateWorkload(testGen());
  const std::string path =
      ::testing::TempDir() + "/pattern_source_roundtrip.seq";
  {
    std::ofstream out(path);
    out << writeSequence(w.net, w.seq);
  }
  FilePatternSource source(w.net, path);
  expectSameStream(source, w.seq);
  source.rewind();
  EXPECT_EQ(source.fingerprint(), GoodMachineCheckpoint::fingerprint(w.seq));
  std::remove(path.c_str());
}

// The diff-oracle matrix: every backend/jobs combination must
// produce a streamed result checksum-identical to its materialized run,
// with the derived rows matching the materialized rows exactly.
TEST(PatternSourceTest, StreamedChecksumMatchesMaterializedAcrossMatrix) {
  const GeneratedWorkload w = generateWorkload(testGen());

  struct Config {
    Backend backend;
    unsigned jobs;
  };
  const Config matrix[] = {
      {Backend::Serial, 1},
      {Backend::Concurrent, 1},
      {Backend::Concurrent, 2},
      {Backend::Concurrent, 4},
  };

  for (const Config& cfg : matrix) {
    EngineOptions opts;
    opts.backend = cfg.backend;
    opts.jobs = cfg.jobs;
    Engine engine(w.net, w.faults, opts);
    SCOPED_TRACE(std::string(engine.backendName()) +
                 " jobs=" + std::to_string(cfg.jobs));

    const FaultSimResult ref = engine.run(w.seq);
    MaterializedPatternSource source(w.seq);
    FaultSimResult streamed = engine.runStream(source);

    EXPECT_EQ(perf::resultChecksum(streamed), perf::resultChecksum(ref));
    EXPECT_EQ(streamed.detectedAtPattern, ref.detectedAtPattern);
    EXPECT_EQ(streamed.numDetected, ref.numDetected);
    EXPECT_EQ(streamed.potentialDetections, ref.potentialDetections);
    EXPECT_EQ(streamed.finalGoodStates, ref.finalGoodStates);
    EXPECT_EQ(streamed.numPatterns, w.seq.size());
    EXPECT_EQ(streamed.droppedDetected, ref.droppedDetected);

    derivePerPattern(streamed);
    ASSERT_EQ(streamed.perPattern.size(), ref.perPattern.size());
    for (std::size_t pi = 0; pi < ref.perPattern.size(); ++pi) {
      EXPECT_EQ(streamed.perPattern[pi].newlyDetected,
                ref.perPattern[pi].newlyDetected)
          << "pattern " << pi;
      EXPECT_EQ(streamed.perPattern[pi].cumulativeDetected,
                ref.perPattern[pi].cumulativeDetected)
          << "pattern " << pi;
      EXPECT_EQ(streamed.perPattern[pi].aliveAfter,
                ref.perPattern[pi].aliveAfter)
          << "pattern " << pi;
    }
  }
}

// Both sinks observe the exact materialized row stream during a streaming
// run, and the aggregating sink's fold matches a manual fold of the
// reference rows.
TEST(PatternSourceTest, RowSinksSeeTheMaterializedRows) {
  const GeneratedWorkload w = generateWorkload(testGen());
  EngineOptions opts;
  opts.jobs = 2;
  Engine engine(w.net, w.faults, opts);
  const FaultSimResult ref = engine.run(w.seq);

  MaterializedPatternSource source(w.seq);
  std::vector<PatternStat> rows;
  MaterializingRowSink materializing(rows);
  engine.runStream(source, &materializing);
  ASSERT_EQ(rows.size(), ref.perPattern.size());

  AggregatingRowSink aggregating(/*aliveCurveCapacity=*/8);
  std::uint64_t wantChecksum = kFnvOffsetBasis;
  for (std::size_t pi = 0; pi < ref.perPattern.size(); ++pi) {
    EXPECT_EQ(rows[pi].newlyDetected, ref.perPattern[pi].newlyDetected);
    EXPECT_EQ(rows[pi].cumulativeDetected,
              ref.perPattern[pi].cumulativeDetected);
    EXPECT_EQ(rows[pi].aliveAfter, ref.perPattern[pi].aliveAfter);
    fnvMix(wantChecksum, ref.perPattern[pi].newlyDetected);
    fnvMix(wantChecksum, ref.perPattern[pi].cumulativeDetected);
    fnvMix(wantChecksum, ref.perPattern[pi].aliveAfter);
    aggregating.row(rows[pi]);
  }
  EXPECT_EQ(aggregating.patterns(), ref.perPattern.size());
  EXPECT_EQ(aggregating.finalCumulativeDetected(), ref.numDetected);
  EXPECT_EQ(aggregating.rowChecksum(), wantChecksum);
  EXPECT_LE(aggregating.aliveCurve().size(), 8u);
  EXPECT_GE(aggregating.aliveCurve().size(), 2u);
}

}  // namespace
}  // namespace fmossim
