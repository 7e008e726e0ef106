// Incremental lookup indexes of the concurrent engine vs. a recomputation.
//
// The faulty-circuit hot path answers most lookups from flat counters and
// lists that are maintained incrementally as records, stuck overlays and
// transistor overrides come and go (divergence, stuck and override counts,
// divergent-channel lists, stuck-input-neighbour and watch counts).
// ConcurrentFaultSimulator::checkIndexes() recomputes all of them from the
// overlay tables and the state table; this suite calls it after every
// pattern of every engine mode that mutates them: direct and
// checkpoint-replay grading with dropping on and off, and SEU engines (naive and tail-resumed), whose pulse injection and
// release add and remove stuck overlays mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuits/ram.hpp"
#include "core/checkpoint.hpp"
#include "core/concurrent_sim.hpp"
#include "faults/universe.hpp"
#include "gen/random_circuit.hpp"
#include "gen/transient_gen.hpp"
#include "patterns/marching.hpp"
#include "test_util.hpp"

namespace fmossim {
namespace {

constexpr std::uint64_t kCorpusSeeds = 40;

/// Runs one grading engine, checking the indexes after construction (the
/// injection settle) and after every pattern; returns the patterns checked.
std::uint32_t runChecked(const GeneratedWorkload& w, const FsimOptions& opts,
                         const GoodMachineCheckpoint* replay) {
  ConcurrentFaultSimulator sim(w.net, w.faults, opts, nullptr, replay);
  sim.checkIndexes();
  std::uint32_t checked = 0;
  sim.run(w.seq, [&](const PatternStat&) {
    sim.checkIndexes();
    ++checked;
  });
  return checked;
}

TEST(IndexConsistencyTest, GradingEnginesOverTheFuzzCorpus) {
  for (std::uint64_t seed = 1; seed <= kCorpusSeeds; ++seed) {
    const GeneratedWorkload w = generateWorkload(GenOptions::randomized(seed));
    SCOPED_TRACE(describeWorkload(w));
    FsimOptions base;
    const GoodMachineCheckpoint ck =
        testing::recordSequence(w.net, w.seq, base);
    for (const bool drop : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "drop " << drop);
      FsimOptions opts = base;
      opts.dropDetected = drop;
      runChecked(w, opts, nullptr);
      // A replaying engine exits early once every circuit is dropped, so
      // it may check fewer patterns; it must check at least one.
      EXPECT_GE(runChecked(w, opts, &ck), 1u);
    }
  }
}

TEST(IndexConsistencyTest, RamGradingWithAndWithoutReplay) {
  const RamCircuit ram = buildRam(RamConfig{4, 4});
  TestSequence seq = ramControlTests(ram);
  seq.append(ramRowMarch(ram));
  GeneratedWorkload w;
  w.net = ram.net;
  w.seq = seq;
  // Node stuck-ats (stuck overlays, on inputs too: those feed the
  // stuck-input-neighbour scan) plus transistor stuck faults (conduction
  // overrides).
  std::vector<NodeId> inputs;
  for (const NodeId n : ram.net.allNodes()) {
    if (ram.net.isInput(n)) inputs.push_back(n);
  }
  w.faults = allStorageNodeStuckFaults(ram.net);
  w.faults.append(nodeStuckFaults(ram.net, inputs));
  w.faults.append(allTransistorStuckFaults(ram.net));
  const GoodMachineCheckpoint ck =
      testing::recordSequence(w.net, w.seq, FsimOptions{});
  EXPECT_EQ(runChecked(w, FsimOptions{}, nullptr), seq.size());
  EXPECT_GE(runChecked(w, FsimOptions{}, &ck), 1u);
}

TEST(IndexConsistencyTest, SeuEnginesNaiveAndTailResumed) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const GeneratedWorkload w = generateWorkload(GenOptions::randomized(seed));
    SCOPED_TRACE(describeWorkload(w));
    SeuGenOptions g;
    g.seed = seed;
    g.numInjections = 16;
    g.numPatterns = w.seq.size();
    g.maxInstants = 2;
    g.pulseProbability = 0.5;
    g.maxPulse = 3;
    const TransientList campaign = generateSeuCampaign(w.net, g);
    const GoodMachineCheckpoint ck =
        testing::recordSequence(w.net, w.seq, FsimOptions{});
    for (const bool drop : {true, false}) {
      FsimOptions opts;
      opts.dropDetected = drop;
      // Naive: every injection in one engine, each at its own instant.
      {
        ConcurrentFaultSimulator sim(
            w.net, static_cast<std::uint32_t>(campaign.size()), opts);
        sim.checkIndexes();
        std::uint32_t checked = 0;
        sim.runTransient(w.seq, campaign, [&](const PatternStat&) {
          sim.checkIndexes();
          ++checked;
        });
        EXPECT_EQ(checked, w.seq.size());
      }
      // Tail-resumed: one engine per instant, resumed from the checkpoint.
      std::vector<std::uint64_t> instants;
      for (const TransientFault& f : campaign) {
        if (std::find(instants.begin(), instants.end(), f.atPattern) ==
            instants.end()) {
          instants.push_back(f.atPattern);
        }
      }
      for (const std::uint64_t at : instants) {
        std::vector<TransientFault> group;
        for (const TransientFault& f : campaign) {
          if (f.atPattern == at) group.push_back(f);
        }
        ConcurrentFaultSimulator sim(
            w.net, static_cast<std::uint32_t>(group.size()), opts, &ck, at);
        sim.checkIndexes();
        sim.runTransientTail(group,
                             [&](const PatternStat&) { sim.checkIndexes(); });
        sim.checkIndexes();
      }
    }
  }
}

}  // namespace
}  // namespace fmossim
