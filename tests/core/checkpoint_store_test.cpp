// CheckpointStore + spilled checkpoints: shared-cache semantics (one
// recording per (network, sequence) across engines, rows and runs),
// cache invalidation on sequence changes, and bit-exact replay through the
// memory-budgeted temp-file window — including memoryBytes() staying within
// the budget while the window slides.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "api/engine.hpp"
#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "core/concurrent_sim.hpp"
#include "gen/random_circuit.hpp"
#include "patterns/pattern_source.hpp"
#include "perf/bench_runner.hpp"
#include "test_util.hpp"

namespace fmossim {
namespace {

GenOptions genOptions(std::uint64_t seed, std::uint32_t patterns) {
  GenOptions gen;
  gen.seed = seed;
  gen.numNodes = 24;
  gen.numInputs = 6;
  gen.numFaults = 36;
  gen.numPatterns = patterns;
  return gen;
}

GeneratedWorkload makeWorkload(std::uint64_t seed, std::uint32_t patterns) {
  return generateWorkload(genOptions(seed, patterns));
}

void expectBitIdentical(const FaultSimResult& ref, const FaultSimResult& got,
                        const std::string& label) {
  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern) << label;
  EXPECT_EQ(got.numDetected, ref.numDetected) << label;
  EXPECT_EQ(got.potentialDetections, ref.potentialDetections) << label;
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates) << label;
  EXPECT_EQ(got.totalNodeEvals, ref.totalNodeEvals) << label;
  EXPECT_EQ(perf::resultChecksum(got), perf::resultChecksum(ref)) << label;
}

TEST(CheckpointStoreTest, NetworkFingerprintIsStructuralNotIdentity) {
  const GeneratedWorkload a = makeWorkload(5, 8);
  const GeneratedWorkload b = makeWorkload(5, 8);   // same structure, new object
  const GeneratedWorkload c = makeWorkload(6, 8);   // different structure
  EXPECT_EQ(networkFingerprint(a.net), networkFingerprint(b.net));
  EXPECT_NE(networkFingerprint(a.net), networkFingerprint(c.net));
}

TEST(CheckpointStoreTest, AcquireRecordsOncePerNetworkAndSequence) {
  const GeneratedWorkload w = makeWorkload(7, 10);
  const GeneratedWorkload other = makeWorkload(8, 10);
  CheckpointStore store;
  FsimOptions opts;

  const auto first = store.acquire(w.net, w.seq, opts);
  EXPECT_EQ(store.recordings(), 1u);
  EXPECT_EQ(store.acquire(w.net, w.seq, opts), first);  // cache hit
  EXPECT_EQ(store.recordings(), 1u);

  const auto second = store.acquire(other.net, other.seq, opts);
  EXPECT_NE(second, first);
  EXPECT_EQ(store.recordings(), 2u);
  EXPECT_EQ(store.entries(), 2u);

  // A multi-entry cache: going back to the first workload is still a hit.
  EXPECT_EQ(store.acquire(w.net, w.seq, opts), first);
  EXPECT_EQ(store.recordings(), 2u);

  store.clear();
  EXPECT_EQ(store.entries(), 0u);
  // Outstanding references stay valid after clear(); a re-acquire records.
  EXPECT_EQ(first->numPatterns(), w.seq.size());
  store.acquire(w.net, w.seq, opts);
  EXPECT_EQ(store.recordings(), 3u);
}

// A streamed and a materialized copy of one sequence share one entry: the
// key is the sequence fingerprint, however the patterns arrive.
TEST(CheckpointStoreTest, StreamedAndMaterializedSequenceShareOneRecording) {
  const GenOptions gen = genOptions(31, 40);
  const GeneratedWorkload w = generateWorkload(gen);
  GeneratedPatternSource source(generateWorkloadStream(gen).seqConfig);
  CheckpointStore store;
  FsimOptions opts;

  const auto streamed = store.acquire(w.net, source, opts);
  EXPECT_EQ(store.acquire(w.net, w.seq, opts), streamed);
  EXPECT_EQ(store.recordings(), 1u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(streamed->goodEvalsPerPattern().size(), w.seq.size());
}

// The cache-invalidation satellite: sequences A, B, A through one Engine.
// The store keys on the sequence fingerprint, so the third run must reuse
// A's recording — exactly 2 recordings total — and reproduce run 1's result
// bit for bit.
TEST(CheckpointStoreTest, SequenceAbaThroughOneEngineRecordsTwice) {
  const GeneratedWorkload w = makeWorkload(11, 14);
  TestSequence seqB;
  seqB.setOutputs(w.seq.outputs());
  for (std::uint32_t pi = 0; pi + 2 < w.seq.size(); ++pi) {
    seqB.addPattern(w.seq[pi]);
  }

  auto store = std::make_shared<CheckpointStore>();
  EngineOptions opts;
  opts.jobs = 4;
  opts.checkpointStore = store;
  Engine engine(w.net, w.faults, opts);

  const FaultSimResult a1 = engine.run(w.seq);
  EXPECT_EQ(store->recordings(), 1u);
  const FaultSimResult b = engine.run(seqB);
  EXPECT_EQ(store->recordings(), 2u);
  const FaultSimResult a2 = engine.run(w.seq);
  EXPECT_EQ(store->recordings(), 2u) << "A's checkpoint must survive B";
  ASSERT_EQ(b.perPattern.size(), seqB.size());
  expectBitIdentical(a1, a2, "run A #1 vs run A #2");
}

// Two engines sharing one store — the BenchRunner sharded-2/sharded-4 row
// situation, with each Engine owning its private *copy* of the network —
// must record once and agree bit for bit.
TEST(CheckpointStoreTest, SharedStoreAcrossEnginesRecordsOnce) {
  const GeneratedWorkload w = makeWorkload(13, 16);
  auto store = std::make_shared<CheckpointStore>();

  FaultSimResult results[2];
  const unsigned jobsOf[2] = {2, 4};
  for (int i = 0; i < 2; ++i) {
    EngineOptions opts;
    opts.jobs = jobsOf[i];
    opts.checkpointStore = store;
    Engine engine(w.net, w.faults, opts);
    results[i] = engine.run(w.seq);
  }
  EXPECT_EQ(store->recordings(), 1u);
  expectBitIdentical(results[0], results[1], "jobs=2 vs jobs=4, shared store");
}

// Budgeted recording spills the trace and replays it bit-identically
// through the sliding window, with memoryBytes() inside the budget both
// right after recording and after a full replay has slid the window across
// the whole file.
TEST(CheckpointStoreTest, SpilledReplayIsBitExactWithinBudget) {
  const GeneratedWorkload w = makeWorkload(17, 700);
  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;

  const GoodMachineCheckpoint unbounded =
      testing::recordSequence(w.net, w.seq, opts);
  ASSERT_FALSE(unbounded.spilled());
  const std::size_t budget = unbounded.memoryBytes() / 4;
  ASSERT_GT(budget, 0u);

  const GoodMachineCheckpoint spilledCk =
      testing::recordSequence(w.net, w.seq, opts, budget);
  ASSERT_TRUE(spilledCk.spilled());
  EXPECT_EQ(spilledCk.budgetBytes(), budget);
  EXPECT_LE(spilledCk.memoryBytes(), budget) << "resident after recording";
  EXPECT_EQ(spilledCk.seqFingerprint(), unbounded.seqFingerprint());
  EXPECT_EQ(spilledCk.numSettles(), unbounded.numSettles());
  EXPECT_EQ(spilledCk.finalGoodStates(), unbounded.finalGoodStates());
  EXPECT_EQ(spilledCk.goodEvalsPerPattern(), unbounded.goodEvalsPerPattern());

  // Replays from the spilled and the in-memory trace must agree with each
  // other and with a self-simulating engine, field by field.
  ConcurrentFaultSimulator plain(w.net, w.faults, opts);
  const FaultSimResult ref = plain.run(w.seq);
  ConcurrentFaultSimulator fromMemory(w.net, w.faults, opts, nullptr,
                                      &unbounded);
  const FaultSimResult memResult = fromMemory.run(w.seq);
  ConcurrentFaultSimulator fromSpill(w.net, w.faults, opts, nullptr,
                                     &spilledCk);
  const FaultSimResult spillResult = fromSpill.run(w.seq);

  expectBitIdentical(memResult, spillResult, "in-memory vs spilled replay");
  EXPECT_EQ(spillResult.detectedAtPattern, ref.detectedAtPattern);
  EXPECT_EQ(spillResult.finalGoodStates, ref.finalGoodStates);
  EXPECT_EQ(spilledCk.totalGoodEvals() + spillResult.totalNodeEvals,
            ref.totalNodeEvals);
  EXPECT_LE(spilledCk.memoryBytes(), budget) << "resident after replay";

  // The copy-on-write snapshot path streams the spilled blocks too.
  for (const std::uint32_t pi :
       {0u, w.seq.size() / 2, w.seq.size() - 1}) {
    EXPECT_EQ(spilledCk.goodStateAfterPattern(pi),
              unbounded.goodStateAfterPattern(pi))
        << "pattern " << pi;
  }
}

// The store-eviction satellite: a store whose budget is forced below the
// unbounded trace size makes every sharded run replay through the spill
// window; results (checksums + nodeEvals) must match the unbounded jobs=1
// run exactly.
TEST(CheckpointStoreTest, BudgetedStoreMatchesUnboundedRun) {
  const GeneratedWorkload w = makeWorkload(19, 500);

  EngineOptions plain;
  plain.policy = DetectionPolicy::AnyDifference;
  Engine reference(w.net, w.faults, plain);
  const FaultSimResult ref = reference.run(w.seq);
  ASSERT_GT(ref.numDetected, 0u);

  FsimOptions fopts;
  fopts.policy = DetectionPolicy::AnyDifference;
  const std::size_t traceBytes =
      testing::recordSequence(w.net, w.seq, fopts).memoryBytes();

  CheckpointStore::Options sopts;
  sopts.budgetBytes = traceBytes / 3;  // force the spill + window path
  auto store = std::make_shared<CheckpointStore>(sopts);
  for (const unsigned jobs : {2u, 4u}) {
    EngineOptions opts = plain;
    opts.jobs = jobs;
    opts.checkpointStore = store;
    Engine engine(w.net, w.faults, opts);
    const FaultSimResult got = engine.run(w.seq);
    expectBitIdentical(ref, got,
                       "budgeted jobs=" + std::to_string(jobs) +
                           " vs unbounded jobs=1");
    ASSERT_NE(store->memoryBytes(), 0u);
    EXPECT_LE(store->memoryBytes(), sopts.budgetBytes);
  }
  EXPECT_EQ(store->recordings(), 1u);
}

// A spill write that fails (here EFBIG, from this process's own lowered
// file-size limit with SIGXFSZ ignored) surfaces as an fmossim::Error naming
// the errno from CheckpointStore::acquire. It does not abort the process or
// poison the store: an in-memory store records under the same limit, and
// once the limit is restored the failed store records and replays exactly.
TEST(CheckpointStoreTest, SpillWriteFailureThrowsAndLeavesTheStoreUsable) {
  const GeneratedWorkload w = makeWorkload(29, 700);
  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;
  const GoodMachineCheckpoint unbounded =
      testing::recordSequence(w.net, w.seq, opts);
  CheckpointStore::Options sopts;
  sopts.budgetBytes = unbounded.memoryBytes() / 4;
  CheckpointStore budgeted(sopts);
  CheckpointStore inMemory;

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  // Restores the limit and the signal disposition on every exit path.
  struct Restore {
    rlimit limit;
    void (*handler)(int);
    ~Restore() {
      ::setrlimit(RLIMIT_FSIZE, &limit);
      std::signal(SIGXFSZ, handler);
    }
  } restore{saved, std::signal(SIGXFSZ, SIG_IGN)};
  rlimit low = saved;
  low.rlim_cur = 1024;  // the first spilled chunk already crosses it
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &low), 0);

  std::string message;
  try {
    budgeted.acquire(w.net, w.seq, opts);
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("checkpoint spill write failed"), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::strerror(EFBIG)), std::string::npos) << message;
  EXPECT_EQ(budgeted.entries(), 0u);
  EXPECT_EQ(budgeted.recordings(), 0u);

  // In-memory recording writes no file, so the lowered limit cannot fail it.
  const auto mem = inMemory.acquire(w.net, w.seq, opts);
  EXPECT_FALSE(mem->spilled());
  EXPECT_EQ(mem->finalGoodStates(), unbounded.finalGoodStates());

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit now{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &now), 0);
  EXPECT_EQ(now.rlim_cur, saved.rlim_cur);

  const auto spilled = budgeted.acquire(w.net, w.seq, opts);
  ASSERT_TRUE(spilled->spilled());
  EXPECT_EQ(budgeted.recordings(), 1u);
  ConcurrentFaultSimulator fromMemory(w.net, w.faults, opts, nullptr,
                                      mem.get());
  ConcurrentFaultSimulator fromSpill(w.net, w.faults, opts, nullptr,
                                     spilled.get());
  expectBitIdentical(fromMemory.run(w.seq), fromSpill.run(w.seq),
                     "in-memory vs spilled replay after a failed spill");
}

// Wall-clock vs aggregate-CPU timing split: both populated, CPU >= each
// batch's share, and the unsharded engine reports them equal.
TEST(CheckpointStoreTest, CpuAndWallTimeAreDistinctFields) {
  const GeneratedWorkload w = makeWorkload(23, 20);
  EngineOptions opts;
  Engine single(w.net, w.faults, opts);
  const FaultSimResult one = single.run(w.seq);
  EXPECT_DOUBLE_EQ(one.totalSeconds, one.totalCpuSeconds);

  opts.jobs = 4;
  Engine sharded(w.net, w.faults, opts);
  const FaultSimResult many = sharded.run(w.seq);
  EXPECT_GT(many.totalSeconds, 0.0);
  // Batch engine time plus the recording is counted in CPU seconds; the
  // wall clock of the whole run bounds neither from above in general, but
  // CPU time can never be zero when work ran.
  EXPECT_GT(many.totalCpuSeconds, 0.0);
}

}  // namespace
}  // namespace fmossim
