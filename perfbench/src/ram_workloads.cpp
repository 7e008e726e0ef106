// grade_ram256 and replay_ram256: the paper's Fig. 3 fault-grading run
// (RAM256, test sequence 1, 1398 faults, AnyDifference, dropping on) as a
// closed loop of one op at a time.
//
//   grade  — one op is Engine::run from scratch on the concurrent backend,
//            jobs=1: the good machine is solved alongside the faulty ones.
//   replay — one op is Engine::run with jobs=2 against a CheckpointStore
//            recorded once during set-up: only faulty circuits are solved,
//            the good machine replays from the trace.
//
// Every op is checked against the checksum and nodeEvals that every
// BENCH_ram256_seq1.json row pins; the check runs after the op's clock
// stops.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "api/engine.hpp"
#include "circuits/ram.hpp"
#include "common.hpp"
#include "core/checkpoint_store.hpp"
#include "core/estimator.hpp"
#include "patterns/marching.hpp"
#include "perf/bench_runner.hpp"
#include "perf/scenarios.hpp"
#include "sched/fault_schedule.hpp"

namespace perfbench {

using namespace fmossim;

namespace {

/// Expected result of one grading op.
struct Pinned {
  const char* scenario;
  std::uint64_t checksum;
  std::uint64_t nodeEvals;
};
/// Concurrent, AnyDifference, dropping on — the values of every
/// BENCH_ram256_seq1.json / BENCH_ram64_seq1.json row with those settings.
constexpr Pinned kRam256{"ram256_seq1", 0x6aa5d500c6291e09ULL, 1775994};
constexpr Pinned kRam64{"ram64_seq1", 0x7bba0c26caa800d9ULL, 310392};

struct RamInputs {
  Network net;
  FaultList faults;
  TestSequence seq;
};

/// The scenario's inputs. Untraced runs take them from the scenario
/// registry, so they are the same bytes as the BENCH rows; traced runs take
/// the registry's three steps one by one, one span per module.
RamInputs buildInputs(const Pinned& pinned, bool tiny) {
  if (!Tracer::enabled()) {
    perf::Workload w = perf::buildScenarioWorkload(pinned.scenario);
    return {std::move(w.net), std::move(w.faults), std::move(w.seq)};
  }
  RamCircuit ram = [&] {
    Span s("circuits.build");
    return buildRam(tiny ? ram64Config() : ram256Config());
  }();
  FaultList faults = [&] {
    Span s("faults.universe");
    return perf::paperFaultUniverse(ram);
  }();
  TestSequence seq = [&] {
    Span s("patterns.sequence");
    return ramTestSequence1(ram);
  }();
  return {std::move(ram.net), std::move(faults), std::move(seq)};
}

/// Everything a timed op needs, built by one set-up pass.
struct RamState {
  RamInputs inputs;
  std::unique_ptr<Engine> engine;           ///< grade: the jobs=1 engine
  std::shared_ptr<CheckpointStore> store;   ///< replay: the shared store
  std::shared_ptr<const GoodMachineCheckpoint> checkpoint;
};

EngineOptions replayOptions(const std::shared_ptr<CheckpointStore>& store) {
  EngineOptions o = perf::paperEngineOptions();
  o.jobs = 2;
  o.checkpointStore = store;
  return o;
}

RamState setUp(const Pinned& pinned, bool tiny, bool replay) {
  Span setup("bench.setup");
  RamState st{buildInputs(pinned, tiny), nullptr, nullptr, nullptr};
  if (!replay) {
    Span s("api.engine_ctor");
    st.engine = std::make_unique<Engine>(st.inputs.net, st.inputs.faults,
                                         perf::paperEngineOptions());
    return st;
  }
  st.store = std::make_shared<CheckpointStore>();
  FsimOptions fo;
  fo.sim = perf::paperEngineOptions().sim;
  fo.policy = perf::paperEngineOptions().policy;
  Span s("core.record");
  st.checkpoint = st.store->acquire(st.inputs.net, st.inputs.seq, fo);
  return st;
}

/// Checks one op's result; returns an empty string when it matches.
std::string verify(const FaultSimResult& res, std::uint64_t checksum,
                   std::uint64_t nodeEvals) {
  const std::uint64_t got = perf::resultChecksum(res);
  if (got == checksum && res.totalNodeEvals == nodeEvals) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "checksum 0x%016llx nodeEvals %llu, expected 0x%016llx %llu",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(res.totalNodeEvals),
                static_cast<unsigned long long>(checksum),
                static_cast<unsigned long long>(nodeEvals));
  return buf;
}

/// The per-batch walk: each planned batch's fault slice alone through a
/// jobs=2 engine on the warm store (batchFaults = slice length makes it a
/// single batch). Each slice's detections must equal the full run's.
void batchWalk(const RamState& st, const sched::BatchPlan& plan,
               const FaultSimResult& full, Report& report) {
  for (const auto& [begin, end] : plan.slices) {
    std::vector<Fault> slice;
    for (std::uint32_t pos = begin; pos < end; ++pos) {
      slice.push_back(st.inputs.faults[plan.globalIndex(pos)]);
    }
    EngineOptions o = replayOptions(st.store);
    o.batchFaults = end - begin;
    Engine engine(st.inputs.net, FaultList(std::move(slice)), o);
    FaultSimResult res;
    {
      Span s("api.batch");
      res = engine.run(st.inputs.seq);
    }
    ++report.attempted;
    for (std::uint32_t pos = begin; pos < end; ++pos) {
      if (res.detectedAtPattern[pos - begin] !=
          full.detectedAtPattern[plan.globalIndex(pos)]) {
        report.fail("batch [" + std::to_string(begin) + ", " +
                    std::to_string(end) + ") detections differ from the full run");
        break;
      }
    }
  }
}

}  // namespace

Report runRamWorkload(const RunOptions& options, bool replay) {
  const Pinned& pinned = options.tiny ? kRam64 : kRam256;
  const std::uint64_t expectChecksum = options.expectChecksumOverride != 0
                                           ? options.expectChecksumOverride
                                           : pinned.checksum;
  const std::size_t mark = Tracer::count();
  Report report;

  // Set-up passes: one before the timed loop, whose state serves the first
  // ops, and more spread through the loop, each replacing the state the
  // following ops use. Sharing the loop's stretch of time, setup_s follows
  // the host's drift as the ops do instead of sampling its first seconds.
  std::vector<double> setupSeconds;
  std::vector<double> setupSteal;
  double setupTotal = 0.0;
  RamState st;
  const auto setUpPass = [&] {
    st = RamState{};  // free the previous pass before timing the next
    const double steal0 = hostStealTicks();
    const double t0 = nowSeconds();
    st = setUp(pinned, options.tiny, replay);
    setupSeconds.push_back(nowSeconds() - t0);
    setupSteal.push_back(stealSince(steal0));
    setupTotal += setupSeconds.back();
  };
  setUpPass();

  // Timed closed loop: one op at a time until the run's time is up.
  std::vector<double> wallMs;
  std::vector<double> cpuMs;
  std::vector<double> stealTicks;
  std::uint64_t goodEvals = 0;
  FaultSimResult first;
  const double loopStart = nowSeconds();
  double deadline = loopStart + options.seconds;
  constexpr std::size_t kMinOps = 3;
  while (wallMs.size() < kMinOps || nowSeconds() < deadline) {
    // Set-up passes due by now: kMinSetupPasses and kMinSetupSeconds over
    // the whole loop, in proportion. The deadline moves out by their time.
    const double done = std::min(
        1.0, (nowSeconds() - loopStart - (setupTotal - setupSeconds.front())) /
                 options.seconds);
    while (setupTotal < kMinSetupSeconds * done ||
           static_cast<double>(setupSeconds.size()) <
               static_cast<double>(kMinSetupPasses) * done) {
      const double before = setupTotal;
      setUpPass();
      deadline += setupTotal - before;
    }
    // A replay op gets a fresh engine (untimed), so each op looks its
    // checkpoint up in the shared store as a service request would.
    std::unique_ptr<Engine> fresh;
    if (replay) {
      fresh = std::make_unique<Engine>(st.inputs.net, st.inputs.faults,
                                       replayOptions(st.store));
    }
    Engine& engine = replay ? *fresh : *st.engine;
    FaultSimResult res;
    const double steal0 = hostStealTicks();
    const double c0 = processCpuSeconds();
    const double t0 = nowSeconds();
    {
      Span s(replay ? "api.sharded_run" : "core.run");
      res = engine.run(st.inputs.seq);
    }
    wallMs.push_back((nowSeconds() - t0) * 1000.0);
    cpuMs.push_back((processCpuSeconds() - c0) * 1000.0);
    stealTicks.push_back(stealSince(steal0));

    ++report.attempted;
    const std::string err =
        verify(res, expectChecksum, pinned.nodeEvals);
    if (!err.empty()) report.fail("op " + std::to_string(wallMs.size()) + ": " + err);
    if (wallMs.size() == 1) first = std::move(res);

    if (Tracer::enabled() && !replay) {
      // The paper's split: the good circuit alone, next to each op.
      Span s("switch.runGood");
      const GoodRunResult good = st.engine->runGood(st.inputs.seq);
      goodEvals = good.totalNodeEvals;
    }
  }

  // The timing metrics cover the quiet passes and ops (see hostStealTicks).
  const std::vector<double> quietWallMs = quietValues(wallMs, stealTicks);
  const std::vector<double> quietCpuMs = quietValues(cpuMs, stealTicks);
  double wallSum = 0.0;
  for (const double w : quietWallMs) wallSum += w;
  report.add("setup_s", median(quietValues(setupSeconds, setupSteal)), "s");
  report.add("op_ms", median(quietWallMs), "ms");
  report.add("op_cpu_ms", median(quietCpuMs), "ms");
  report.add("peak_rss_mb", peakRssMiB(), "MiB");
  report.add("req_p50_ms", median(quietWallMs), "ms");
  report.add("req_p95_ms",
             percentile(quietWallMs, tailPercentile(quietWallMs.size())), "ms");
  report.add("req_per_s",
             1000.0 * static_cast<double>(quietWallMs.size()) / wallSum, "1/s");
  std::fprintf(stderr,
               "%s: %zu ops, %zu quiet (steal median %.0f ticks), setup "
               "passes %zu, op median %.3f ms quiet / %.3f ms all, tail "
               "percentile p%.1f\n",
               replay ? "replay" : "grade", wallMs.size(), quietWallMs.size(),
               median(stealTicks), setupSeconds.size(), median(quietWallMs),
               median(wallMs), tailPercentile(quietWallMs.size()));

  if (!Tracer::enabled()) return report;

  // ---- per-layer metrics from this phase's spans ----
  const auto spanMedian = [&](const char* name) {
    return median(Tracer::durationsMs(name, mark));
  };
  report.add("circuits.build_ms", spanMedian("circuits.build"), "ms");
  report.add("faults.universe_ms", spanMedian("faults.universe"), "ms");
  report.add("patterns.sequence_ms", spanMedian("patterns.sequence"), "ms");

  if (!replay) {
    const double goodMedian = spanMedian("switch.runGood");
    const double fsim = spanMedian("core.run");
    const std::uint32_t patterns = st.inputs.seq.size();
    const SerialEstimate est = estimateSerial(
        first.detectedAtPattern, patterns, goodMedian / 1000.0 / patterns,
        static_cast<double>(goodEvals) / patterns);
    report.add("switch.good_ms", goodMedian, "ms");
    report.add("switch.good_node_evals", static_cast<double>(goodEvals), "count");
    report.add("core.fsim_ms", fsim, "ms");
    report.add("core.faulty_ms", fsim - goodMedian, "ms");
    report.add("core.node_evals", static_cast<double>(first.totalNodeEvals), "count");
    report.add("core.max_alive", first.maxAlive, "count");
    report.add("core.final_records", static_cast<double>(first.finalRecords), "count");
    report.add("core.detected", first.numDetected, "count");
    report.add("core.potential_detections",
               static_cast<double>(first.potentialDetections), "count");
    report.add("core.est_serial_ms", est.seconds * 1000.0, "ms");
    report.add("core.concurrent_speedup", est.seconds * 1000.0 / fsim, "x");
    return report;
  }

  // Replay: plan the batches the way the sharded runner does, then walk them.
  // The runner plans for the workers it can actually run (hardware cap).
  const unsigned jobs = std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
  sched::BatchPlan plan;
  for (int i = 0; i < 5; ++i) {
    Span s("sched.plan");
    plan = sched::makeSchedule(sched::SchedulePolicy::Contiguous, nullptr)
               ->plan(st.inputs.faults.size(), jobs, 0, 1);
  }
  std::vector<double> batchMax;
  std::vector<double> batchSum;
  for (int walk = 0; walk < 3; ++walk) {
    const std::size_t before = Tracer::count();
    batchWalk(st, plan, first, report);
    const std::vector<double> batches = Tracer::durationsMs("api.batch", before);
    double mx = 0.0;
    double sum = 0.0;
    for (const double b : batches) {
      mx = std::max(mx, b);
      sum += b;
    }
    batchMax.push_back(mx);
    batchSum.push_back(sum);
  }

  std::vector<double> idleMs;
  for (std::size_t i = 0; i < wallMs.size(); ++i) {
    idleMs.push_back(jobs * wallMs[i] - cpuMs[i]);
  }
  const double sharded = spanMedian("api.sharded_run");
  report.add("core.record_ms", spanMedian("core.record"), "ms");
  report.add("core.ckpt_mb",
             static_cast<double>(st.checkpoint->memoryBytes()) / (1024.0 * 1024.0),
             "MiB");
  report.add("core.store_recordings", static_cast<double>(st.store->recordings()),
             "count");
  report.add("core.store_hits", static_cast<double>(st.store->hits()), "count");
  report.add("api.sharded_ms", sharded, "ms");
  report.add("api.sharded_cpu_ms", median(cpuMs), "ms");
  report.add("api.idle_ms", median(idleMs), "ms");
  report.add("sched.plan_ms", spanMedian("sched.plan"), "ms");
  report.add("sched.batches", static_cast<double>(plan.slices.size()), "count");
  report.add("api.batch_max_ms", median(batchMax), "ms");
  report.add("api.batch_sum_ms", median(batchSum), "ms");
  report.add("api.critical_path_frac", median(batchMax) / sharded, "fraction");
  return report;
}

}  // namespace perfbench
