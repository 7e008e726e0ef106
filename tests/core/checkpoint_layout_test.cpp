// Trace layout of a good-machine checkpoint: vicinities delimited by one
// end bit per member, changes packed into one word, and the replay hot scan
// that searches a vicinity's bounds only around hot members. Hand-built
// traces pin the word-boundary cases; a property test checks the hot scan
// against the vicinities the recorder was given.
#include <gtest/gtest.h>

#include <set>

#include "core/checkpoint.hpp"
#include "core/concurrent_sim.hpp"
#include "perf/scenarios.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace fmossim {
namespace {

using Vic = std::vector<NodeId>;
using PhaseSpec = std::vector<Vic>;     // the vicinities of one phase
using SettleSpec = std::vector<PhaseSpec>;

/// `count` consecutive node ids starting at `first`.
Vic run(std::uint32_t first, std::uint32_t count) {
  Vic v;
  for (std::uint32_t i = 0; i < count; ++i) v.push_back(NodeId(first + i));
  return v;
}

/// Records `settles` through the recorder the engine drives, one pattern
/// per settle; each phase also commits its first member's node to S1.
GoodMachineCheckpoint build(const std::vector<SettleSpec>& settles) {
  GoodMachineCheckpoint ck;
  CheckpointRecorder rec(ck);
  for (const SettleSpec& settle : settles) {
    rec.beginSettle();
    for (const PhaseSpec& phase : settle) {
      rec.beginPhase();
      for (const Vic& v : phase) rec.goodVicinity(v);
      if (!phase.empty()) rec.goodCommit(phase[0][0], State::S1);
    }
    rec.endPattern();
  }
  rec.finish();
  return ck;
}

/// The vicinities of phase `k` the hot scan yields for the hot node set.
std::vector<Vic> hotScan(const CheckpointReader& rd, std::uint32_t k,
                         const std::set<std::uint32_t>& hot) {
  std::vector<Vic> out;
  rd.forEachHotVicinity(
      k, [&](NodeId n) { return hot.count(n.value) != 0; },
      [&](std::span<const NodeId> v) { out.emplace_back(v.begin(), v.end()); });
  return out;
}

/// The vicinities of `phase` holding a hot node, in order — the full walk.
std::vector<Vic> expectedHot(const PhaseSpec& phase,
                             const std::set<std::uint32_t>& hot) {
  std::vector<Vic> out;
  for (const Vic& v : phase) {
    for (const NodeId n : v) {
      if (hot.count(n.value) != 0) {
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

/// Every single-member hot set of every phase yields exactly the vicinity
/// holding that member; an all-hot set yields every vicinity.
void expectTraceReadsBack(const GoodMachineCheckpoint& ck,
                          const std::vector<SettleSpec>& settles) {
  CheckpointReader rd(ck);
  ASSERT_EQ(ck.numSettles(), settles.size());
  for (std::uint32_t s = 0; s < settles.size(); ++s) {
    rd.enterSettle(s);
    ASSERT_EQ(rd.phaseCount(), settles[s].size()) << "settle " << s;
    for (std::uint32_t k = 0; k < rd.phaseCount(); ++k) {
      const PhaseSpec& phase = settles[s][k];
      std::set<std::uint32_t> all;
      Vic flat;
      for (const Vic& v : phase) {
        flat.insert(flat.end(), v.begin(), v.end());
        for (const NodeId n : v) all.insert(n.value);
      }
      const auto members = rd.members(k);
      EXPECT_EQ(Vic(members.begin(), members.end()), flat);
      EXPECT_EQ(hotScan(rd, k, all), phase) << "settle " << s << " phase " << k;
      for (const NodeId n : flat) {
        const std::set<std::uint32_t> one{n.value};
        EXPECT_EQ(hotScan(rd, k, one), expectedHot(phase, one))
            << "settle " << s << " phase " << k << " hot node " << n.value;
      }
      ASSERT_EQ(rd.changes(k).size(), phase.empty() ? 0u : 1u);
    }
  }
}

TEST(CheckpointLayoutTest, ChangePacksNodeAndState) {
  const NodeId big((std::uint32_t{1} << 30) - 1);
  for (const State v : {State::S0, State::S1, State::SX}) {
    const GoodMachineCheckpoint::Change c(big, v);
    EXPECT_EQ(c.node(), big);
    EXPECT_EQ(c.value(), v);
  }
  EXPECT_EQ(sizeof(GoodMachineCheckpoint::Change), 4u);
  const GoodMachineCheckpoint::Change zero(NodeId(0), State::SX);
  EXPECT_EQ(zero.node(), NodeId(0));
  EXPECT_EQ(zero.value(), State::SX);
}

// Vicinity ends on bit 63 (the last bit of word 0) and bit 64 (the first
// of word 1), then a vicinity starting on a word boundary.
TEST(CheckpointLayoutTest, EndsOnWordBoundaries) {
  const std::vector<SettleSpec> settles = {
      {{run(0, 64), run(64, 1), run(65, 3)}},
      {{run(100, 63), run(163, 1), run(164, 1), run(165, 64), run(229, 2)}},
  };
  const GoodMachineCheckpoint ck = build(settles);
  expectTraceReadsBack(ck, settles);
}

// A phase with zero vicinities (and zero changes) between busy ones, at the
// start of the trace and at its end, and a settle with no phases at all.
TEST(CheckpointLayoutTest, PhaseWithZeroVicinities) {
  const std::vector<SettleSpec> settles = {
      {{}, {run(0, 2), run(2, 1)}, {}, {}, {run(3, 70)}, {}},
      {},
      {{run(80, 1)}, {}},
  };
  const GoodMachineCheckpoint ck = build(settles);
  expectTraceReadsBack(ck, settles);
}

// Vicinities of more than 64 members span several end-bit words; a hot
// member deep inside one must still yield it whole.
TEST(CheckpointLayoutTest, VicinityOfMoreThan64Members) {
  const std::vector<SettleSpec> settles = {
      {{run(0, 1), run(1, 150), run(151, 1)}, {run(200, 129)}},
  };
  const GoodMachineCheckpoint ck = build(settles);
  expectTraceReadsBack(ck, settles);
  CheckpointReader rd(ck);
  rd.enterSettle(0);
  EXPECT_EQ(hotScan(rd, 0, {100}), (std::vector<Vic>{run(1, 150)}));
  EXPECT_EQ(hotScan(rd, 1, {328}), (std::vector<Vic>{run(200, 129)}));
}

// For random traces and random hot sets, the hot scan yields exactly the
// vicinities of the full walk that hold a hot member, in order, once each.
TEST(CheckpointLayoutTest, HotScanMatchesFullWalk) {
  Rng rng(19);
  constexpr std::uint32_t kNodes = 200;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<SettleSpec> settles(1 + rng.below(4));
    for (SettleSpec& settle : settles) {
      settle.resize(rng.below(5));
      for (PhaseSpec& phase : settle) {
        phase.resize(rng.below(8));
        for (Vic& v : phase) {
          // Mostly the one-to-three-member vicinities real traces hold,
          // sometimes one crossing a word or two.
          const std::uint32_t size =
              rng.below(8) == 0 ? 40 + rng.below(100) : 1 + rng.below(3);
          for (std::uint32_t i = 0; i < size; ++i) {
            v.push_back(NodeId(rng.below(kNodes)));
          }
        }
      }
    }
    const GoodMachineCheckpoint ck = build(settles);
    CheckpointReader rd(ck);
    for (const std::uint32_t density : {0u, 1u, 5u, 30u, 100u}) {
      std::set<std::uint32_t> hot;
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        if (rng.below(100) < density) hot.insert(n);
      }
      for (std::uint32_t s = 0; s < settles.size(); ++s) {
        rd.enterSettle(s);
        for (std::uint32_t k = 0; k < settles[s].size(); ++k) {
          EXPECT_EQ(hotScan(rd, k, hot), expectedHot(settles[s][k], hot))
              << "trial " << trial << " settle " << s << " phase " << k
              << " density " << density;
        }
      }
    }
  }
}

// The layout's point: RAM64 sequence 1 (paper Fig. 1) holds its whole
// trace in under half the 1,390,232 bytes that one eight-byte span per
// vicinity and eight-byte changes took.
TEST(CheckpointLayoutTest, Ram64TraceIsUnderHalfTheSpanLayout) {
  const perf::Workload w = perf::buildScenarioWorkload("ram64_seq1");
  const GoodMachineCheckpoint ck =
      testing::recordSequence(w.net, w.seq, FsimOptions{});
  EXPECT_LT(ck.memoryBytes(), 1390232u / 2);
  // Every phase's vicinities tile its members exactly.
  CheckpointReader rd(ck);
  for (std::uint32_t s = 0; s < ck.numSettles(); ++s) {
    rd.enterSettle(s);
    for (std::uint32_t k = 0; k < rd.phaseCount(); ++k) {
      Vic tiled;
      rd.forEachHotVicinity(
          k, [](NodeId) { return true; },
          [&](std::span<const NodeId> v) {
            ASSERT_FALSE(v.empty());
            tiled.insert(tiled.end(), v.begin(), v.end());
          });
      const auto members = rd.members(k);
      ASSERT_EQ(tiled, Vic(members.begin(), members.end()))
          << "settle " << s << " phase " << k;
    }
  }
}

}  // namespace
}  // namespace fmossim
