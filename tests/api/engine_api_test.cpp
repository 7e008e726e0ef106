// The unified Engine API: both backends reachable through the same class
// with a shared, fully populated FaultSimResult; repeatable runs
// (fresh-session semantics); and one library-wide default detection policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "circuits/demo_circuits.hpp"
#include "faults/universe.hpp"

namespace fmossim {
namespace {

/// A shift-register stimulus: clock a data pattern through both phases and
/// observe the final stage.
TestSequence shiftSequence(const ShiftRegister& sr) {
  TestSequence seq;
  seq.addOutput(sr.out());
  const char bits[] = "110100101";
  for (const char* bit = bits; *bit; ++bit) {
    Pattern p;
    InputSetting s0;
    s0.set(sr.vdd, State::S1);
    s0.set(sr.gnd, State::S0);
    s0.set(sr.din, *bit == '1' ? State::S1 : State::S0);
    s0.set(sr.phi1, State::S1);
    s0.set(sr.phi2, State::S0);
    InputSetting s1;
    s1.set(sr.phi1, State::S0);
    s1.set(sr.phi2, State::S1);
    InputSetting s2;
    s2.set(sr.phi2, State::S0);
    p.settings = {s0, s1, s2};
    p.label = std::string("shift ") + *bit;
    seq.addPattern(std::move(p));
  }
  return seq;
}

FaultList shiftFaults(const ShiftRegister& sr) {
  FaultList faults = allStorageNodeStuckFaults(sr.net);
  faults.append(allTransistorStuckFaults(sr.net));
  return faults;
}

TEST(EngineApiTest, BothBackendsReachableThroughOneInterface) {
  const ShiftRegister sr = buildShiftRegister(2);
  const TestSequence seq = shiftSequence(sr);
  const FaultList faults = shiftFaults(sr);

  for (const DetectionPolicy policy :
       {DetectionPolicy::DefiniteOnly, DetectionPolicy::AnyDifference}) {
    std::vector<std::unique_ptr<Engine>> engines;
    for (const Backend backend : {Backend::Serial, Backend::Concurrent}) {
      EngineOptions opts;
      opts.backend = backend;
      opts.policy = policy;
      engines.push_back(std::make_unique<Engine>(sr.net, faults, opts));
    }

    std::vector<FaultSimResult> results;
    for (const auto& engine : engines) results.push_back(engine->run(seq));

    const FaultSimResult& serial = results[0];
    const FaultSimResult& concurrent = results[1];
    ASSERT_EQ(serial.numFaults, faults.size());
    ASSERT_EQ(concurrent.numFaults, faults.size());
    EXPECT_GT(concurrent.numDetected, 0u);
    EXPECT_EQ(serial.numDetected, concurrent.numDetected);
    for (std::uint32_t fi = 0; fi < faults.size(); ++fi) {
      EXPECT_EQ(serial.detectedAtPattern[fi], concurrent.detectedAtPattern[fi])
          << "fault '" << faults[fi].name << "'";
    }
  }
}

TEST(EngineApiTest, SerialBackendPopulatesFullResult) {
  const ShiftRegister sr = buildShiftRegister(2);
  const TestSequence seq = shiftSequence(sr);
  const FaultList faults = shiftFaults(sr);

  EngineOptions opts;
  opts.backend = Backend::Serial;
  opts.policy = DetectionPolicy::AnyDifference;
  Engine engine(sr.net, faults, opts);
  const FaultSimResult res = engine.run(seq);

  // Per-pattern rows exist and are internally consistent, exactly like the
  // concurrent backend's (so --csv and the stats recorder work unchanged).
  ASSERT_EQ(res.perPattern.size(), seq.size());
  std::uint32_t cumulative = 0;
  std::uint64_t evals = 0;
  for (std::uint32_t pi = 0; pi < seq.size(); ++pi) {
    const PatternStat& st = res.perPattern[pi];
    EXPECT_EQ(st.index, pi);
    cumulative += st.newlyDetected;
    EXPECT_EQ(st.cumulativeDetected, cumulative);
    EXPECT_EQ(st.aliveAfter, res.numFaults - cumulative);
    evals += st.nodeEvals;
  }
  EXPECT_EQ(cumulative, res.numDetected);
  EXPECT_GT(res.numDetected, 0u);
  EXPECT_GT(res.coverage(), 0.0);
  EXPECT_GT(evals, 0u);
  EXPECT_GE(res.totalNodeEvals, evals);  // total also covers the good run
}

TEST(EngineApiTest, NoDropAliveReportingMatchesAcrossBackends) {
  const ShiftRegister sr = buildShiftRegister(2);
  const TestSequence seq = shiftSequence(sr);
  const FaultList faults = shiftFaults(sr);

  for (const bool drop : {true, false}) {
    std::vector<FaultSimResult> results;
    for (const Backend backend : {Backend::Serial, Backend::Concurrent}) {
      EngineOptions opts;
      opts.backend = backend;
      opts.dropDetected = drop;
      Engine engine(sr.net, faults, opts);
      results.push_back(engine.run(seq));
    }
    ASSERT_EQ(results[0].perPattern.size(), results[1].perPattern.size());
    for (std::uint32_t pi = 0; pi < seq.size(); ++pi) {
      EXPECT_EQ(results[0].perPattern[pi].aliveAfter,
                results[1].perPattern[pi].aliveAfter)
          << "drop=" << drop << " pattern=" << pi;
    }
    // The serial replay holds one live faulty circuit at a time.
    EXPECT_EQ(results[0].maxAlive, 1u);
  }
}

TEST(EngineApiTest, RunsAreRepeatableAndResettable) {
  const ShiftRegister sr = buildShiftRegister(2);
  const TestSequence seq = shiftSequence(sr);
  const FaultList faults = shiftFaults(sr);

  for (const Backend backend : {Backend::Serial, Backend::Concurrent}) {
    EngineOptions opts;
    opts.backend = backend;
    Engine engine(sr.net, faults, opts);
    const FaultSimResult first = engine.run(seq);
    const FaultSimResult second = engine.run(seq);  // no once-per-instance
    engine.reset();
    const FaultSimResult third = engine.run(seq);
    for (const FaultSimResult* r : {&second, &third}) {
      EXPECT_EQ(first.numDetected, r->numDetected);
      EXPECT_EQ(first.detectedAtPattern, r->detectedAtPattern);
      EXPECT_EQ(first.totalNodeEvals, r->totalNodeEvals);  // deterministic
    }
  }
}

TEST(EngineApiTest, PatternCallbackFiresInOrderForEveryBackend) {
  const ShiftRegister sr = buildShiftRegister(2);
  const TestSequence seq = shiftSequence(sr);
  const FaultList faults = shiftFaults(sr);

  for (const unsigned jobs : {1u, 2u}) {
    for (const Backend backend : {Backend::Serial, Backend::Concurrent}) {
      EngineOptions opts;
      opts.backend = backend;
      opts.jobs = jobs;
      Engine engine(sr.net, faults, opts);
      std::vector<std::uint32_t> seen;
      const FaultSimResult res = engine.run(
          seq, [&](const PatternStat& st) { seen.push_back(st.index); });
      ASSERT_EQ(seen.size(), seq.size());
      for (std::uint32_t pi = 0; pi < seq.size(); ++pi) EXPECT_EQ(seen[pi], pi);
      EXPECT_EQ(res.perPattern.size(), seq.size());
    }
  }
}

TEST(EngineApiTest, DefaultDetectionPolicyIsUniform) {
  // The CLI and every option struct must agree on one library-wide default.
  EXPECT_EQ(EngineOptions{}.policy, DetectionPolicy::DefiniteOnly);
  EXPECT_EQ(FsimOptions{}.policy, DetectionPolicy::DefiniteOnly);
  EXPECT_EQ(SerialOptions{}.policy, DetectionPolicy::DefiniteOnly);
}

TEST(EngineApiTest, BackendNamesAndAccessors) {
  const ShiftRegister sr = buildShiftRegister(1);
  const FaultList faults = shiftFaults(sr);

  Engine serial(sr.net, faults, {.backend = Backend::Serial});
  Engine concurrent(sr.net, faults, {.backend = Backend::Concurrent});
  Engine sharded(sr.net, faults,
                 {.backend = Backend::Concurrent, .jobs = 4});
  EXPECT_STREQ(serial.backendName(), "serial");
  EXPECT_STREQ(concurrent.backendName(), "concurrent");
  EXPECT_STREQ(sharded.backendName(), "sharded");
  // jobs > 1 over a single fault has nothing to shard: it runs the plain
  // concurrent engine (the differential oracle relies on this fallback).
  Engine single(sr.net, FaultList({faults[0]}),
                {.backend = Backend::Concurrent, .jobs = 4});
  EXPECT_STREQ(single.backendName(), "concurrent");
  EXPECT_EQ(serial.faults().size(), faults.size());
  EXPECT_EQ(serial.network().numNodes(), sr.net.numNodes());
}

}  // namespace
}  // namespace fmossim
