#include "perf/scenarios.hpp"

#include "faults/universe.hpp"
#include "gen/random_circuit.hpp"
#include "gen/transient_gen.hpp"
#include "patterns/marching.hpp"
#include "util/error.hpp"

namespace fmossim::perf {

FaultList paperFaultUniverse(const RamCircuit& ram) {
  FaultList faults = allStorageNodeStuckFaults(ram.net);
  for (const TransId ft : ram.bitLineShorts) {
    faults.add(Fault::faultDeviceActive(ram.net, ft));
  }
  return faults;
}

EngineOptions paperEngineOptions() {
  EngineOptions opts;
  opts.backend = Backend::Concurrent;
  opts.policy = DetectionPolicy::AnyDifference;
  return opts;
}

EngineOptions RowSpec::engineOptions() const {
  EngineOptions opts;
  opts.backend = backend;
  opts.jobs = jobs;
  opts.policy = policy;
  opts.dropDetected = dropDetected;
  opts.batchFaults = batchFaults;
  opts.schedule = schedule;
  return opts;
}

std::string RowSpec::label() const {
  if (backend == Backend::Serial) return "serial";
  std::string base = jobs > 1 ? "sharded-" + std::to_string(jobs) : "concurrent";
  if (schedule == sched::SchedulePolicy::History) base += "-hist";
  return base;
}

std::string RowSpec::seuLabel() const {
  if (seuNaive) return "seu-naive";
  return jobs > 1 ? "seu-replay-" + std::to_string(jobs) : "seu-replay";
}

namespace {

// The standard row matrix: the concurrent headline, the sharded scaling
// points, the no-drop ablation, and (for workloads where a serial replay is
// affordable) the serial baseline.
std::vector<RowSpec> rowMatrix(DetectionPolicy policy, bool withSerial) {
  std::vector<RowSpec> rows;
  if (withSerial) {
    rows.push_back({Backend::Serial, 1, policy, true});
  }
  rows.push_back({Backend::Concurrent, 1, policy, true});
  rows.push_back({Backend::Concurrent, 2, policy, true});
  rows.push_back({Backend::Concurrent, 4, policy, true});
  rows.push_back({Backend::Concurrent, 1, policy, false});
  return rows;
}

Workload ramScenario(const std::string& name, const RamConfig& config,
                     bool seq2, bool withSerial, const char* description) {
  Workload w;
  w.scenario = name;
  w.description = description;
  RamCircuit ram = buildRam(config);
  w.faults = paperFaultUniverse(ram);
  w.seq = seq2 ? ramTestSequence2(ram) : ramTestSequence1(ram);
  w.net = std::move(ram.net);
  // The paper's detection criterion is literal "any difference".
  w.rows = rowMatrix(DetectionPolicy::AnyDifference, withSerial);
  return w;
}

// Fixed (non-randomized) generator configurations so the fuzz scenarios are
// stable benchmark workloads, not moving targets.
GenOptions fuzzGen(std::uint64_t seed, std::uint32_t nodes,
                   std::uint32_t inputs, std::uint32_t faults,
                   std::uint32_t patterns) {
  GenOptions gen;
  gen.seed = seed;
  gen.numNodes = nodes;
  gen.numInputs = inputs;
  gen.numFaults = faults;
  gen.numPatterns = patterns;
  gen.numOutputs = 4;
  gen.maxSettingsPerPattern = 3;
  return gen;
}

Workload fuzzScenario(const std::string& name, const GenOptions& gen,
                      const char* description) {
  Workload w;
  w.scenario = name;
  w.description = description;
  GeneratedWorkload g = generateWorkload(gen);
  w.net = std::move(g.net);
  w.faults = std::move(g.faults);
  w.seq = std::move(g.seq);
  // Library default policy; serial is affordable at these sizes.
  w.rows = rowMatrix(DetectionPolicy::DefiniteOnly, /*withSerial=*/true);
  return w;
}

}  // namespace

const std::vector<std::string>& scenarioNames() {
  static const std::vector<std::string> names = {
      "ram64_seq1",  "ram64_seq2", "ram256_seq1",     "fuzz_small",
      "fuzz_medium", "fuzz_large", "fuzz_xlarge_seq", "seu_ram256",
  };
  return names;
}

bool isScenario(const std::string& name) {
  for (const std::string& n : scenarioNames()) {
    if (n == name) return true;
  }
  return false;
}

Workload buildScenarioWorkload(const std::string& name) {
  if (name == "ram64_seq1") {
    return ramScenario(name, ram64Config(), /*seq2=*/false, /*withSerial=*/true,
                       "RAM64, test sequence 1 (paper Fig. 1: 428 faults, "
                       "407 patterns)");
  }
  if (name == "ram64_seq2") {
    return ramScenario(name, ram64Config(), /*seq2=*/true, /*withSerial=*/true,
                       "RAM64, test sequence 2 (paper Fig. 2: row/column "
                       "marches omitted)");
  }
  if (name == "ram256_seq1") {
    // The serial replay of the full RAM256 universe costs tens of concurrent
    // runs (the paper itself only *estimated* it, footnote p. 717); the
    // serial point is covered by the fuzz scenarios and RAM64.
    Workload w = ramScenario(name, ram256Config(), /*seq2=*/false,
                             /*withSerial=*/false,
                             "RAM256, test sequence 1 (paper Fig. 3 / scaling "
                             "study: 1398 faults, 1447 patterns)");
    // History-schedule rows: laid out by the detection record the earlier
    // contiguous sharded rows of this scenario published into the shared
    // per-scenario history store (bench_runner attaches it to every row).
    // Hard-to-detect faults are co-batched so cheap batches early-exit their
    // replay; checksums and nodeEvals must equal the contiguous rows' —
    // the policy only permutes batch membership.
    w.rows.push_back({Backend::Concurrent, 4, DetectionPolicy::AnyDifference,
                      true, 0, false, sched::SchedulePolicy::History});
    return w;
  }
  if (name == "fuzz_small") {
    return fuzzScenario(name, fuzzGen(11, 16, 5, 32, 16),
                        "generated switch-level workload, small (16 storage "
                        "nodes, 32 faults)");
  }
  if (name == "fuzz_medium") {
    return fuzzScenario(name, fuzzGen(12, 48, 7, 96, 24),
                        "generated switch-level workload, medium (48 storage "
                        "nodes, 96 faults)");
  }
  if (name == "fuzz_large") {
    Workload w = fuzzScenario(name, fuzzGen(13, 120, 8, 240, 32),
                              "generated switch-level workload, large (120 "
                              "storage nodes, 240 faults)");
    // History-schedule coverage on an irregular generated circuit (seeded by
    // the contiguous sharded rows above; equal row checksums and nodeEvals
    // vs those rows gate bit-identity in CI).
    w.rows.push_back({Backend::Concurrent, 4, DetectionPolicy::DefiniteOnly,
                      true, 0, false, sched::SchedulePolicy::History});
    return w;
  }
  // Huge-sequence scale tracker: the workload class the streaming pattern
  // path and the checkpoint spill store exist for. A small circuit driven by
  // a million-pattern sequence makes the good-machine trace dwarf the
  // circuit by orders of magnitude, so the sequence is never materialized —
  // every row pulls patterns from a GeneratedPatternSource — and the
  // sharded row records/replays a disk-spilled checkpoint under a
  // deliberately small budget on every bench run (CI included). The jobs=1
  // row streams with no checkpoint at all, so equal row checksums prove the
  // spill + trace-driven replay path bit-exact on every measurement.
  if (name == "fuzz_xlarge_seq") {
    GenOptions gen = fuzzGen(17, 10, 4, 16, 1000000);
    gen.maxSettingsPerPattern = 1;  // bound the settle index, not the trace
    GeneratedStreamWorkload g = generateWorkloadStream(gen);
    Workload w;
    w.scenario = name;
    w.description =
        "huge-sequence scale tracker: 1M generated patterns streamed (never "
        "materialized); sharded row replays a disk-spilled checkpoint under "
        "an 8 MiB budget";
    w.net = std::move(g.net);
    w.faults = std::move(g.faults);
    w.streamConfig = std::move(g.seqConfig);
    w.rows = {{Backend::Concurrent, 1, DetectionPolicy::DefiniteOnly, true},
              {Backend::Concurrent, 2, DetectionPolicy::DefiniteOnly, true}};
    w.checkpointBudgetBytes = std::size_t{8} << 20;
    return w;
  }
  // Transient-fault (SEU) grading campaign on the big RAM: 32 bit-flips
  // clustered onto 4 distinct instants of test sequence 1. Every row grades
  // the same campaign; the replay rows share one good-machine recording and
  // simulate only post-injection tails, the naive row simulates the full
  // sequence from scratch once per injection — the replay/naive wall-clock
  // ratio is the campaign speedup number docs/BENCHMARKING.md records, and
  // equal row checksums gate the SEU oracle on every bench run.
  if (name == "seu_ram256") {
    Workload w;
    w.scenario = name;
    w.description =
        "RAM256 SEU grading campaign: 32 transient bit-flips on 4 instants; "
        "checkpoint-replay tails (jobs variants) vs naive from-scratch "
        "baseline";
    RamCircuit ram = buildRam(ram256Config());
    w.seq = ramTestSequence1(ram);
    w.net = std::move(ram.net);
    SeuGenOptions g;
    g.seed = 2026;
    g.numInjections = 32;
    g.numPatterns = w.seq.size();
    g.maxInstants = 4;
    g.pulseProbability = 0.25;
    g.maxPulse = 3;
    w.seuCampaign = generateSeuCampaign(w.net, g);
    const DetectionPolicy policy = DetectionPolicy::AnyDifference;
    w.rows = {{Backend::Concurrent, 1, policy, true},
              {Backend::Concurrent, 4, policy, true},
              {Backend::Concurrent, 1, policy, true, 0, /*seuNaive=*/true}};
    return w;
  }
  throw Error("unknown benchmark scenario '" + name + "' (see scenarioNames())");
}

}  // namespace fmossim::perf
