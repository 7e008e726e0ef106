// Chunk boundaries of the checkpoint trace. Spilled mode: a window budget
// exactly at a chunk edge, the single-chunk floor, and re-pinning a chunk
// after the window evicted it. In-memory mode: the same chunked layout held
// resident, exact-sized, and read at every chunk edge. Each case must replay
// content-identically to the other storage mode — where a chunk lives is
// purely a residency concern, never a correctness one.
#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/concurrent_sim.hpp"
#include "gen/random_circuit.hpp"
#include "perf/scenarios.hpp"
#include "test_util.hpp"

namespace fmossim {
namespace {

GeneratedWorkload windowWorkload() {
  GenOptions gen;
  gen.seed = 31;
  gen.numNodes = 24;
  gen.numInputs = 6;
  gen.numFaults = 36;
  gen.numPatterns = 300;
  return generateWorkload(gen);
}

using Change = GoodMachineCheckpoint::Change;
using Members = std::vector<NodeId>;

std::vector<std::uint32_t> packed(std::span<const Change> changes) {
  std::vector<std::uint32_t> out;
  for (const Change& c : changes) out.push_back(c.packed);
  return out;
}

/// Every vicinity of phase `k`, in evaluation order.
std::vector<Members> vicinities(const CheckpointReader& rd, std::uint32_t k) {
  std::vector<Members> out;
  rd.forEachHotVicinity(
      k, [](NodeId) { return true; },
      [&](std::span<const NodeId> v) { out.emplace_back(v.begin(), v.end()); });
  return out;
}

/// Compares settle `si` as a reader over a spilled checkpoint yields it
/// against a reader over the in-memory recording — the full trace content
/// of every phase (members, vicinity bounds, changes), not just results.
void expectSameSettle(const GoodMachineCheckpoint& mem, CheckpointReader& rd,
                      std::uint32_t si) {
  CheckpointReader want(mem);
  want.enterSettle(si);
  rd.enterSettle(si);
  ASSERT_EQ(rd.phaseCount(), want.phaseCount()) << "settle " << si;
  EXPECT_EQ(packed(rd.inputChanges()), packed(want.inputChanges()))
      << "settle " << si;
  for (std::uint32_t k = 0; k < want.phaseCount(); ++k) {
    const auto members = rd.members(k);
    const auto wantMembers = want.members(k);
    ASSERT_EQ(Members(members.begin(), members.end()),
              Members(wantMembers.begin(), wantMembers.end()))
        << "settle " << si << " phase " << k;
    ASSERT_EQ(vicinities(rd, k), vicinities(want, k))
        << "settle " << si << " phase " << k;
    EXPECT_EQ(packed(rd.changes(k)), packed(want.changes(k)))
        << "settle " << si << " phase " << k;
  }
}

struct WindowFixture : ::testing::Test {
  void SetUp() override {
    w = windowWorkload();
    mem = testing::recordSequence(w.net, w.seq, opts);
    ASSERT_FALSE(mem.spilled());
  }

  /// Records with `budget` and asserts the spill path engaged with the same
  /// deterministic chunking as any other sub-32-KiB budget (the chunk
  /// target clamps to its floor there, so chunk layout is budget-invariant).
  GoodMachineCheckpoint spill(std::size_t budget) {
    GoodMachineCheckpoint ck =
        testing::recordSequence(w.net, w.seq, opts, budget);
    EXPECT_TRUE(ck.spilled());
    EXPECT_GT(ck.chunkCount(), 2u)
        << "workload too small to exercise eviction";
    EXPECT_EQ(ck.seqFingerprint(), mem.seqFingerprint());
    EXPECT_EQ(ck.numSettles(), mem.numSettles());
    EXPECT_EQ(ck.finalGoodStates(), mem.finalGoodStates());
    return ck;
  }

  GeneratedWorkload w;
  FsimOptions opts;
  GoodMachineCheckpoint mem;
};

// Budget below the window floor: the window is clamped to exactly one
// decodable chunk (maxChunkBytes), so every cross-chunk step evicts — and
// the full trace content must still come back bit-identically.
TEST_F(WindowFixture, SingleChunkWindowYieldsFullTrace) {
  GoodMachineCheckpoint ck = spill(1);
  EXPECT_EQ(ck.windowBudgetBytes(), ck.maxChunkBytes());
  CheckpointReader rd(ck);
  for (std::uint32_t si = 0; si < mem.numSettles(); ++si) {
    expectSameSettle(mem, rd, si);
  }
}

// Budget exactly at a chunk edge: fixed footprint + exactly one max-sized
// chunk. The window budget lands exactly on maxChunkBytes (no slack for a
// second chunk), the boundary where an off-by-one in eviction accounting
// would either thrash or overrun the budget.
TEST_F(WindowFixture, BudgetExactlyAtChunkEdge) {
  // Self-calibrating: right after recording no decoded chunks are resident,
  // so memoryBytes() is exactly the fixed (non-window) footprint. Iterate
  // budget -> fixed(budget) + maxChunk(budget) to the fixed point where the
  // budget sits exactly one max-sized chunk above the fixed footprint — the
  // boundary where an off-by-one in window accounting would either evict
  // the only decodable chunk or overrun the budget.
  std::size_t budget = std::size_t{48} << 10;
  GoodMachineCheckpoint ck = spill(budget);
  bool converged = false;
  for (int i = 0; i < 10 && !converged; ++i) {
    const std::size_t edge = ck.memoryBytes() + ck.maxChunkBytes();
    converged = edge == budget;
    if (!converged) {
      budget = edge;
      ck = spill(budget);
    }
  }
  ASSERT_TRUE(converged) << "fixed footprint did not stabilize";
  EXPECT_EQ(ck.windowBudgetBytes(), ck.maxChunkBytes());

  ConcurrentFaultSimulator plain(w.net, w.faults, opts);
  const FaultSimResult ref = plain.run(w.seq);
  ConcurrentFaultSimulator replaying(w.net, w.faults, opts, nullptr, &ck);
  const FaultSimResult got = replaying.run(w.seq);
  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern);
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates);
  EXPECT_EQ(ck.totalGoodEvals() + got.totalNodeEvals, ref.totalNodeEvals);
  EXPECT_LE(ck.memoryBytes(), budget) << "resident after a full replay";
}

// goodStateAfterPattern at arbitrary mid-sequence instants: the fold that
// SEU campaigns use to materialize an injection instant must yield the same
// snapshot from a spilled single-chunk window as from the unbounded
// recording — including out-of-order access, which forces the reader to
// seek backwards across evicted chunks.
TEST_F(WindowFixture, GoodStateAfterPatternMatchesUnbounded) {
  GoodMachineCheckpoint ck = spill(1);
  const std::uint64_t numPatterns = mem.numPatterns();
  ASSERT_GT(numPatterns, 8u);
  const std::uint64_t probes[] = {0,
                                  1,
                                  numPatterns / 3,
                                  numPatterns / 2,
                                  numPatterns - 2,
                                  numPatterns - 1,
                                  2,  // backwards after reaching the end
                                  numPatterns / 2};
  for (const std::uint64_t p : probes) {
    EXPECT_EQ(ck.goodStateAfterPattern(p), mem.goodStateAfterPattern(p))
        << "pattern " << p;
    EXPECT_EQ(ck.settleEndingPattern(p), mem.settleEndingPattern(p))
        << "pattern " << p;
  }
  EXPECT_EQ(ck.goodStateAfterPattern(numPatterns - 1), ck.finalGoodStates());
}

// Re-pin after eviction: walk the whole trace forward (sliding the
// single-chunk window off chunk 0), then seek back to settle 0 — the
// evicted chunk must reload with identical content, repeatedly.
TEST_F(WindowFixture, RePinAfterEvictionReloadsIdenticalContent) {
  GoodMachineCheckpoint ck = spill(1);
  CheckpointReader rd(ck);
  const std::uint32_t last = mem.numSettles() - 1;
  for (int round = 0; round < 2; ++round) {
    expectSameSettle(mem, rd, 0);
    expectSameSettle(mem, rd, mem.numSettles() / 2);
    expectSameSettle(mem, rd, last);
  }
  // Two concurrent readers at opposite ends of the file keep forcing each
  // other's chunks out of a one-chunk window; both must stay correct.
  CheckpointReader a(ck), b(ck);
  for (int round = 0; round < 2; ++round) {
    expectSameSettle(mem, a, 0);
    expectSameSettle(mem, b, last);
    expectSameSettle(mem, a, 1);
    expectSameSettle(mem, b, last - 1);
  }
}

// --- in-memory chunks -------------------------------------------------------

/// Content bytes of settles [first, end) of one chunk, counted the way the
/// recorder's flush threshold counts them (one end bit per member, rounded
/// up to whole words per chunk).
std::size_t contentBytes(const GoodMachineCheckpoint& ck, std::uint32_t first,
                         std::uint32_t end) {
  using Ck = GoodMachineCheckpoint;
  CheckpointReader rd(ck);
  std::size_t phases = 0, members = 0, changes = 0, inputs = 0;
  for (std::uint32_t s = first; s < end; ++s) {
    rd.enterSettle(s);
    phases += rd.phaseCount();
    inputs += rd.inputChanges().size();
    for (std::uint32_t k = 0; k < rd.phaseCount(); ++k) {
      members += rd.members(k).size();
      changes += rd.changes(k).size();
    }
  }
  return (end - first) * sizeof(Ck::Settle) + phases * sizeof(Ck::Phase) +
         members * sizeof(NodeId) + (members + 63) / 64 * 8 +
         (changes + inputs) * sizeof(Ck::Change);
}

/// One past the last settle of chunk `c`.
std::uint32_t chunkEnd(const GoodMachineCheckpoint& ck, std::uint32_t c) {
  return c + 1 < ck.chunkCount() ? ck.chunkFirstSettle(c + 1)
                                 : ck.numSettles();
}

constexpr std::size_t kChunkTarget = std::size_t{64} << 10;

/// RAM64 sequence 1 (paper Fig. 1), whose trace spans several 64 KiB
/// chunks, recorded in memory and spilled (single-chunk window); built once.
struct Ram64Recordings {
  perf::Workload w;
  GoodMachineCheckpoint mem;
  GoodMachineCheckpoint spilled;
};
const Ram64Recordings& ram64() {
  static const Ram64Recordings r = [] {
    perf::Workload w = perf::buildScenarioWorkload("ram64_seq1");
    GoodMachineCheckpoint mem =
        testing::recordSequence(w.net, w.seq, FsimOptions{});
    GoodMachineCheckpoint spilled =
        testing::recordSequence(w.net, w.seq, FsimOptions{}, 1);
    return Ram64Recordings{std::move(w), std::move(mem), std::move(spilled)};
  }();
  return r;
}

// The in-memory trace is chunked like a spilled one: several chunks, each
// closed at the first settle boundary at or past the 64 KiB target, so no
// chunk's content exceeds the target by more than its last settle.
TEST(MemoryChunkTest, InMemoryTraceIsChunkedAtTheTarget) {
  const GoodMachineCheckpoint* mem = &ram64().mem;
  ASSERT_FALSE(mem->spilled());
  ASSERT_GT(mem->chunkCount(), 1u);
  EXPECT_EQ(mem->chunkFirstSettle(0), 0u);
  for (std::uint32_t c = 0; c < mem->chunkCount(); ++c) {
    const std::uint32_t first = mem->chunkFirstSettle(c);
    const std::uint32_t end = chunkEnd(*mem, c);
    ASSERT_LT(first, end) << "chunk " << c;
    EXPECT_LT(contentBytes(*mem, first, end - 1), kChunkTarget)
        << "chunk " << c << " exceeds the target by more than one settle";
    if (c + 1 < mem->chunkCount()) {
      EXPECT_GE(contentBytes(*mem, first, end), kChunkTarget)
          << "chunk " << c << " closed before reaching the target";
    }
  }
}

// memoryBytes() is the fixed per-node, per-settle and per-chunk index plus
// the chunks' exact content: no growth slack anywhere.
TEST(MemoryChunkTest, MemoryBytesIsFixedPlusExactChunkBytes) {
  const GoodMachineCheckpoint* mem = &ram64().mem;
  std::size_t chunks = 0;
  for (std::uint32_t c = 0; c < mem->chunkCount(); ++c) {
    chunks += contentBytes(*mem, mem->chunkFirstSettle(c), chunkEnd(*mem, c));
  }
  const std::size_t fixed =
      2 * std::size_t{mem->numNodes()} * sizeof(State) +
      (mem->numSettles() + 63) / 64 * 8 +
      mem->outputs().size() * sizeof(NodeId) +
      mem->chunkCount() *
          (sizeof(std::uint32_t) +
           sizeof(std::shared_ptr<const GoodMachineCheckpoint::SettleBlock>));
  EXPECT_EQ(mem->memoryBytes(), fixed + chunks);
}

// At every in-memory chunk edge, the snapshot fold, the pattern-end lookup
// and a reader entering settles out of order (backwards across the edge,
// then jumping between chunks) agree with the spilled recording.
TEST(MemoryChunkTest, ChunkEdgesAgreeWithSpilledMode) {
  const GoodMachineCheckpoint* mem = &ram64().mem;
  const GoodMachineCheckpoint* spilled = &ram64().spilled;
  ASSERT_TRUE(spilled->spilled());
  ASSERT_EQ(spilled->numSettles(), mem->numSettles());
  for (std::uint64_t p = 0; p < mem->numPatterns(); ++p) {
    ASSERT_EQ(mem->settleEndingPattern(p), spilled->settleEndingPattern(p))
        << "pattern " << p;
  }
  CheckpointReader rd(*mem);
  std::uint64_t p = 0;
  for (std::uint32_t c = 1; c < mem->chunkCount(); ++c) {
    const std::uint32_t edge = mem->chunkFirstSettle(c);
    expectSameSettle(*spilled, rd, edge);
    expectSameSettle(*spilled, rd, edge - 1);
    expectSameSettle(*spilled, rd, mem->chunkFirstSettle(c / 2));
    // The patterns ending on either side of the edge.
    while (p + 1 < mem->numPatterns() &&
           mem->settleEndingPattern(p) < edge - 1) {
      ++p;
    }
    for (const std::uint64_t q : {p, std::min(p + 1, mem->numPatterns() - 1)}) {
      EXPECT_EQ(mem->goodStateAfterPattern(q),
                spilled->goodStateAfterPattern(q))
          << "pattern " << q << " at chunk edge " << c;
    }
  }
}

// Replays from either storage mode are identical row for row, work counters
// included, and derive the same per-pattern good evaluations.
TEST(MemoryChunkTest, InMemoryAndSpilledReplaysAgreeRowForRow) {
  const GoodMachineCheckpoint* mem = &ram64().mem;
  const GoodMachineCheckpoint* spilled = &ram64().spilled;
  const perf::Workload* w = &ram64().w;
  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;
  ConcurrentFaultSimulator fromMem(w->net, w->faults, opts, nullptr, mem);
  const FaultSimResult a = fromMem.run(w->seq);
  ConcurrentFaultSimulator fromSpill(w->net, w->faults, opts, nullptr,
                                     spilled);
  const FaultSimResult b = fromSpill.run(w->seq);
  EXPECT_EQ(a.detectedAtPattern, b.detectedAtPattern);
  EXPECT_EQ(a.finalGoodStates, b.finalGoodStates);
  EXPECT_EQ(a.totalNodeEvals, b.totalNodeEvals);
  ASSERT_EQ(a.perPattern.size(), b.perPattern.size());
  for (std::size_t pi = 0; pi < a.perPattern.size(); ++pi) {
    const PatternStat& x = a.perPattern[pi];
    const PatternStat& y = b.perPattern[pi];
    EXPECT_EQ(x.nodeEvals, y.nodeEvals) << "pattern " << pi;
    EXPECT_EQ(x.newlyDetected, y.newlyDetected) << "pattern " << pi;
    EXPECT_EQ(x.cumulativeDetected, y.cumulativeDetected) << "pattern " << pi;
    EXPECT_EQ(x.aliveAfter, y.aliveAfter) << "pattern " << pi;
  }
  EXPECT_EQ(mem->goodEvalsPerPattern(), spilled->goodEvalsPerPattern());
}

}  // namespace
}  // namespace fmossim
