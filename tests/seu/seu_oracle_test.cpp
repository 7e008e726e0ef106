// SEU campaign oracle: checkpoint-replay transient grading must be
// bit-identical to naive from-scratch injection of each transient — per
// injection (outcome AND detecting pattern), not just in aggregate — and
// deterministic across worker counts and checkpoint cache
// state. The naive engine self-simulates the whole sequence per injection;
// the replay engine materializes the group's instant from the checkpoint
// and simulates only the tail, so every line of the resume construction is
// on trial here.
#include <gtest/gtest.h>

#include "circuits/ram.hpp"
#include "gen/random_circuit.hpp"
#include "gen/transient_gen.hpp"
#include "patterns/marching.hpp"
#include "seu/seu_campaign.hpp"

namespace fmossim {
namespace {

using seu::CampaignOptions;
using seu::CampaignResult;
using seu::Outcome;
using seu::runSeuCampaign;

struct RamWorkload {
  RamCircuit ram;
  TestSequence seq;
};

RamWorkload ramWorkload() {
  RamWorkload w{buildRam(RamConfig{4, 4}), {}};
  w.seq = ramControlTests(w.ram);
  w.seq.append(ramRowMarch(w.ram));
  return w;
}

TransientList ramCampaign(const RamWorkload& w, std::uint64_t seed,
                          std::uint32_t maxInstants) {
  SeuGenOptions g;
  g.seed = seed;
  g.numInjections = 24;
  g.numPatterns = w.seq.size();
  g.maxInstants = maxInstants;
  g.pulseProbability = 0.35;
  g.maxPulse = 3;
  return generateSeuCampaign(w.ram.net, g);
}

void expectIdentical(const CampaignResult& got, const CampaignResult& ref) {
  ASSERT_EQ(got.injections.size(), ref.injections.size());
  for (std::size_t i = 0; i < ref.injections.size(); ++i) {
    EXPECT_EQ(got.injections[i].outcome, ref.injections[i].outcome)
        << "injection " << i << " (" << ref.injections[i].fault.name << ")";
    EXPECT_EQ(got.injections[i].detectedAtPattern,
              ref.injections[i].detectedAtPattern)
        << "injection " << i << " (" << ref.injections[i].fault.name << ")";
  }
  EXPECT_EQ(got.numDetected, ref.numDetected);
  EXPECT_EQ(got.numSilent, ref.numSilent);
  EXPECT_EQ(got.numLatent, ref.numLatent);
  EXPECT_EQ(got.checksum(), ref.checksum());
}

// The headline oracle: clustered campaign (shared tails, pulses included)
// on the RAM — replay vs. naive, per-injection bit identity.
TEST(SeuOracleTest, ReplayMatchesNaiveOnRam) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 11, 4);

  CampaignOptions naive;
  naive.naive = true;
  const CampaignResult ref = runSeuCampaign(w.ram.net, w.seq, campaign, naive);

  const CampaignResult got = runSeuCampaign(w.ram.net, w.seq, campaign, {});
  expectIdentical(got, ref);
  EXPECT_EQ(got.injections.size(), ref.numDetected + ref.numSilent +
                                       ref.numLatent);
  EXPECT_LE(got.numGroups, 4u);
  EXPECT_TRUE(got.recordedCheckpoint);
  EXPECT_FALSE(ref.recordedCheckpoint);
}

// Unclustered campaign (every injection its own instant -> one machine per
// tail engine) must also match, including under AnyDifference.
TEST(SeuOracleTest, ReplayMatchesNaiveUnclustered) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 23, 0);

  CampaignOptions naive;
  naive.naive = true;
  naive.policy = DetectionPolicy::AnyDifference;
  CampaignOptions replay;
  replay.policy = DetectionPolicy::AnyDifference;

  const CampaignResult ref = runSeuCampaign(w.ram.net, w.seq, campaign, naive);
  const CampaignResult got =
      runSeuCampaign(w.ram.net, w.seq, campaign, replay);
  expectIdentical(got, ref);
}

// Same oracle over generated circuits: pass-transistor paths, charge nodes,
// ratioed fights and X-rich state, where a broken resume construction would
// actually diverge.
TEST(SeuOracleTest, ReplayMatchesNaiveOnGeneratedCircuits) {
  for (const std::uint64_t seed : {3u, 17u, 42u}) {
    GenOptions gen;
    gen.seed = seed;
    gen.numNodes = 20;
    gen.numInputs = 5;
    gen.numFaults = 0;
    gen.numPatterns = 30;
    const GeneratedWorkload w = generateWorkload(gen);

    SeuGenOptions g;
    g.seed = seed + 100;
    g.numInjections = 16;
    g.numPatterns = w.seq.size();
    g.maxInstants = 5;
    const TransientList campaign = generateSeuCampaign(w.net, g);

    CampaignOptions naive;
    naive.naive = true;
    const CampaignResult ref = runSeuCampaign(w.net, w.seq, campaign, naive);
    const CampaignResult got = runSeuCampaign(w.net, w.seq, campaign, {});
    expectIdentical(got, ref);
  }
}

// Determinism: every jobs count must checksum identically to the
// single-threaded run (and to naive).
TEST(SeuOracleTest, DeterministicAcrossJobCounts) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 5, 3);

  CampaignOptions naive;
  naive.naive = true;
  const std::uint64_t want =
      runSeuCampaign(w.ram.net, w.seq, campaign, naive).checksum();

  for (const unsigned jobs : {1u, 2u, 4u}) {
    CampaignOptions o;
    o.jobs = jobs;
    const CampaignResult got = runSeuCampaign(w.ram.net, w.seq, campaign, o);
    EXPECT_EQ(got.checksum(), want) << "jobs " << jobs;
  }
  // Naive mode parallelizes per injection; it must be jobs-invariant too.
  CampaignOptions n4 = naive;
  n4.jobs = 4;
  EXPECT_EQ(runSeuCampaign(w.ram.net, w.seq, campaign, n4).checksum(), want);
}

// A shared store records once; the second campaign hits the cache and still
// produces identical results.
TEST(SeuOracleTest, SharedStoreRecordsOnce) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 9, 4);

  CampaignOptions o;
  o.store = std::make_shared<CheckpointStore>();
  const CampaignResult first = runSeuCampaign(w.ram.net, w.seq, campaign, o);
  const CampaignResult second = runSeuCampaign(w.ram.net, w.seq, campaign, o);
  EXPECT_TRUE(first.recordedCheckpoint);
  EXPECT_FALSE(second.recordedCheckpoint);
  expectIdentical(second, first);
}

// Replay under a spilled (budgeted) private checkpoint window must still be
// bit-identical — eviction is a residency concern, never correctness.
TEST(SeuOracleTest, SpilledCheckpointWindowMatchesNaive) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 31, 5);

  CampaignOptions naive;
  naive.naive = true;
  const CampaignResult ref = runSeuCampaign(w.ram.net, w.seq, campaign, naive);

  CampaignOptions o;
  o.checkpointBudgetBytes = 1;  // clamps to the single-chunk window floor
  const CampaignResult got = runSeuCampaign(w.ram.net, w.seq, campaign, o);
  expectIdentical(got, ref);
}

// The campaign must grade a detected injection with the exact first
// divergent pattern, and classify a strike on a written-then-never-read
// location as non-detected. Use a hand-built pair on the RAM data array.
TEST(SeuOracleTest, OutcomesArePlausible) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 11, 4);
  const CampaignResult res = runSeuCampaign(w.ram.net, w.seq, campaign, {});
  // The marching workload reads back everything it writes, so a storage-cell
  // campaign of this size detects at least one strike...
  EXPECT_GT(res.numDetected, 0u);
  // ...and every detection carries a plausible pattern index strictly after
  // its injection instant.
  for (const auto& r : res.injections) {
    if (r.outcome == Outcome::Detected) {
      ASSERT_GE(r.detectedAtPattern, 0);
      EXPECT_GT(static_cast<std::uint64_t>(r.detectedAtPattern),
                r.fault.atPattern);
      EXPECT_LT(static_cast<std::uint64_t>(r.detectedAtPattern),
                w.seq.size());
    } else {
      EXPECT_EQ(r.detectedAtPattern, -1);
    }
  }
}

// Campaign-level validation: bad specs fail before any engine runs.
TEST(SeuOracleTest, RejectsInvalidCampaigns) {
  const RamWorkload w = ramWorkload();
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, {}, {}), Error);

  TransientFault pastEnd;
  pastEnd.node = NodeId(0);
  pastEnd.atPattern = w.seq.size();
  pastEnd.name = "past-end";
  // NodeId(0) is Vdd (an input) on the RAM, so pick a storage node instead.
  for (std::uint32_t n = 0; n < w.ram.net.numNodes(); ++n) {
    if (!w.ram.net.isInput(NodeId(n))) {
      pastEnd.node = NodeId(n);
      break;
    }
  }
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, {pastEnd}, {}), Error);

  TransientFault onInput;
  onInput.node = NodeId(0);
  onInput.atPattern = 0;
  onInput.name = "on-input";
  ASSERT_TRUE(w.ram.net.isInput(onInput.node));
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, {onInput}, {}), Error);
}

// The cancellation hook aborts the campaign with the thrown error.
TEST(SeuOracleTest, CheckPointHookCancels) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 7, 2);
  CampaignOptions o;
  o.checkPoint = []() { throw Error("cancelled"); };
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, campaign, o), Error);
}

}  // namespace
}  // namespace fmossim
