// Reproduces the RAM64 -> RAM256 scaling study of §5 (text):
//
//   "Comparing these results to the time required for RAM64, we see that
//    both the time to simulate the good circuit alone and the time for
//    concurrent simulation has scaled up by a factor of 9, while the time
//    for serial simulation has scaled by a factor of 37."
//
// Paper values: good 2.7 -> 25.3 min (x9.4); concurrent 21.9 -> 202 min
// (x9.2); serial 404 -> 15169 min (x37.5). Concurrent time scales as
// (circuit size x patterns); serial as (size x patterns x faults).
//
// This harness additionally runs a TRUE serial simulation of RAM64 to
// validate the paper's estimation method against reality.
#include <cstdio>

#include "bench_util.hpp"

using namespace fmossim;
using namespace fmossim::bench;

namespace {

struct ScalePoint {
  std::string name;
  std::uint32_t transistors = 0;
  std::uint32_t faults = 0;
  std::uint32_t patterns = 0;
  double goodSeconds = 0.0;
  double concurrentSeconds = 0.0;
  double serialSeconds = 0.0;  // estimated
  double goodEvals = 0.0;
  double concurrentEvals = 0.0;
  double serialEvals = 0.0;
  double coverage = 0.0;
};

ScalePoint measure(const perf::Workload& w, const char* name) {
  ScalePoint pt;
  pt.name = name;
  const FaultList& faults = w.faults;
  const TestSequence& seq = w.seq;
  pt.transistors = w.net.numTransistors();
  pt.faults = faults.size();
  pt.patterns = seq.size();

  Engine engine(w.net, faults, paperEngineOptions());
  const GoodRunResult good = engine.runGood(seq);
  pt.goodSeconds = good.totalSeconds;
  pt.goodEvals = double(good.totalNodeEvals);

  const FaultSimResult res = engine.run(seq);
  pt.concurrentSeconds = res.totalSeconds;
  pt.concurrentEvals = double(res.totalNodeEvals);
  pt.coverage = res.coverage();

  const SerialEstimate est =
      estimateSerial(res.detectedAtPattern, seq.size(),
                     good.secondsPerPattern(), good.nodeEvalsPerPattern());
  pt.serialSeconds = est.seconds;
  pt.serialEvals = est.nodeEvals;
  return pt;
}

}  // namespace

int main() {
  banner("Scaling study (paper §5 text): RAM64 -> RAM256");

  // Both scale points are registry scenarios, shared with the BENCH_*.json
  // harness (see src/perf/scenarios.hpp).
  const perf::Workload w64 = perf::buildScenarioWorkload("ram64_seq1");
  const perf::Workload w256 = perf::buildScenarioWorkload("ram256_seq1");
  const ScalePoint p64 = measure(w64, "RAM64");
  const ScalePoint p256 = measure(w256, "RAM256");

  std::printf("  %-8s %11s %8s %9s %12s %14s %14s %9s\n", "circuit",
              "transistors", "faults", "patterns", "good (s)",
              "concurrent (s)", "serial est (s)", "coverage");
  for (const ScalePoint* p : {&p64, &p256}) {
    std::printf("  %-8s %11u %8u %9u %12.3f %14.3f %14.3f %8.1f%%\n",
                p->name.c_str(), p->transistors, p->faults, p->patterns,
                p->goodSeconds, p->concurrentSeconds, p->serialSeconds,
                100.0 * p->coverage);
  }

  const double goodScale = p256.goodEvals / p64.goodEvals;
  const double concScale = p256.concurrentEvals / p64.concurrentEvals;
  const double serialScale = p256.serialEvals / p64.serialEvals;

  std::printf("\n  Scale factors RAM64 -> RAM256 (work units; wall in parens)\n");
  paperVsMeasured("good circuit alone", "x9.4 (2.7->25.3 min)",
                  format("x%.1f (x%.1f wall)", goodScale,
                         p256.goodSeconds / p64.goodSeconds)
                      .c_str());
  paperVsMeasured("concurrent fault simulation", "x9.2 (21.9->202 min)",
                  format("x%.1f (x%.1f wall)", concScale,
                         p256.concurrentSeconds / p64.concurrentSeconds)
                      .c_str());
  paperVsMeasured("serial fault simulation", "x37.5 (404->15169 min)",
                  format("x%.1f (x%.1f wall)", serialScale,
                         p256.serialSeconds / p64.serialSeconds)
                      .c_str());
  paperVsMeasured("RAM256 serial/concurrent", "75x (202 min vs 10.4 days)",
                  format("%.0fx (work units)",
                         p256.serialEvals / p256.concurrentEvals)
                      .c_str());

  // Validate the estimator against TRUE serial simulation on RAM64.
  std::printf("\n  Estimator validation (true serial run, RAM64, all faults)\n");
  SerialOptions sopts;
  sopts.policy = DetectionPolicy::AnyDifference;
  // The serial simulator's own result keeps the directly measured
  // good/faulty timing split the shared FaultSimResult folds together.
  const SerialRunResult real =
      SerialFaultSimulator(w64.net, sopts).run(w64.seq, w64.faults);
  const double faultSeconds = real.faultSeconds;
  const std::uint64_t faultEvals = real.faultNodeEvals;
  std::printf("  true serial: %.3f s, %llu evals; estimate: %.3f s, %.0f evals\n",
              faultSeconds, (unsigned long long)faultEvals,
              p64.serialSeconds, p64.serialEvals);
  const double estErr = p64.serialEvals / double(faultEvals);
  std::printf("  estimate/true ratio (work units): %.2f\n", estErr);
  std::printf("  true serial / concurrent (wall): %.1fx\n",
              faultSeconds / p64.concurrentSeconds);

  bool ok = true;
  ok &= serialScale > 2.0 * concScale;  // serial scales much worse
  ok &= concScale > 3.0 && concScale < 30.0;
  ok &= estErr > 0.2 && estErr < 5.0;   // estimator in the right ballpark
  std::printf("\n  Shape checks: %s\n", ok ? "[OK]" : "[FAILED]");
  return ok ? 0 : 1;
}
