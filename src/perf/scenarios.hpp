/// \file
/// Named benchmark scenario registry — the single source of truth for what
/// the performance harness measures.
///
/// Every scenario is a complete, deterministic fault-simulation workload
/// (network + fault universe + test sequence) with a fixed matrix of engine
/// configurations (backend, jobs, detection policy, drop mode). The paper
/// reproduction harnesses under bench/ and the JSON-emitting BenchRunner
/// (bench_runner.hpp) both build their workloads here, so a figure in
/// docs/PAPER_MAP.md, a bench/fig*.cpp harness and a BENCH_<scenario>.json
/// file all refer to the same bytes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "circuits/ram.hpp"
#include "faults/fault.hpp"
#include "faults/transient.hpp"
#include "patterns/pattern.hpp"
#include "patterns/pattern_source.hpp"  // GeneratedSequenceConfig
#include "switch/network.hpp"

/// Reproducible performance harness over the Engine API: scenario registry,
/// BenchRunner, and BENCH_*.json serialization (see docs/BENCHMARKING.md).
namespace fmossim::perf {

/// The paper's fault universe for a RAM (§5): all single storage-node
/// stuck-at faults plus all adjacent-bit-line shorts.
FaultList paperFaultUniverse(const RamCircuit& ram);

/// Engine configuration of the paper's own measurements: concurrent backend,
/// literal "any difference" detection criterion.
EngineOptions paperEngineOptions();

/// One engine configuration to measure a scenario under.
struct RowSpec {
  Backend backend = Backend::Concurrent;  ///< simulation strategy
  unsigned jobs = 1;  ///< >1 selects the sharded concurrent runner
  DetectionPolicy policy = DetectionPolicy::DefiniteOnly;  ///< detection criterion
  bool dropDetected = true;  ///< drop faulty circuits once detected
  std::uint32_t batchFaults = 0;  ///< sharded fault-batch size (0 = auto)
  /// SEU campaign scenarios only (Workload::seuCampaign non-empty): run the
  /// naive from-scratch baseline (one full-sequence engine per injection)
  /// instead of checkpoint-replay tails. The replay rows' checksums must
  /// equal this row's — the harness-level restatement of the SEU oracle.
  bool seuNaive = false;
  /// Batch-layout policy for sharded rows (EngineOptions::schedule).
  /// History rows consume the detection record the scenario's earlier
  /// contiguous rows published into the shared per-scenario history store;
  /// their checksums and nodeEvals must equal the contiguous rows' exactly
  /// (the policy only reorders), which `bench --check` gates.
  sched::SchedulePolicy schedule = sched::SchedulePolicy::Contiguous;

  /// EngineOptions equivalent of this row.
  EngineOptions engineOptions() const;
  /// Stable row label ("concurrent", "sharded-4", "sharded-4-hist",
  /// "serial").
  std::string label() const;
  /// Stable row label for SEU campaign scenarios ("seu-replay",
  /// "seu-replay-4", "seu-naive").
  std::string seuLabel() const;
};

/// A fully built benchmark workload.
struct Workload {
  std::string scenario;     ///< registry name ("ram64_seq1", ...)
  std::string description;  ///< one-line human summary incl. paper reference
  Network net;              ///< the circuit under test
  FaultList faults;         ///< fault universe, global index order
  TestSequence seq;         ///< test patterns + observed outputs
  /// When set, the scenario's sequence is never materialized: every row runs
  /// through Engine::runStream over a GeneratedPatternSource built from this
  /// config (`seq` stays empty), so resident memory is flat in the pattern
  /// count — the configuration the million-pattern scale tracker uses.
  std::optional<GeneratedSequenceConfig> streamConfig;
  /// When non-empty, the scenario is a transient-fault (SEU) grading
  /// campaign: every row runs src/seu/ runSeuCampaign over this campaign
  /// (instead of Engine::run over `faults`), with RowSpec::seuNaive
  /// selecting the from-scratch baseline row. `faults` stays empty.
  TransientList seuCampaign;
  std::vector<RowSpec> rows;  ///< configurations the harness measures
  /// Memory budget for the scenario's shared checkpoint store: 0 keeps the
  /// good-machine trace in RAM; > 0 spills it to disk and replays through a
  /// sliding window (huge-sequence scenarios set this so the spill path is
  /// measured — and exercised by CI — by default). The harness's
  /// `--checkpoint-budget` flag overrides it.
  std::size_t checkpointBudgetBytes = 0;
};

/// Deterministic, stable-order list of all scenario names. The order is the
/// order BenchRunner runs them in.
const std::vector<std::string>& scenarioNames();

/// True if `name` is a registered scenario.
bool isScenario(const std::string& name);

/// Builds the named scenario's workload. Deterministic: two calls produce
/// bit-identical workloads. Throws Error for unknown names.
Workload buildScenarioWorkload(const std::string& name);

}  // namespace fmossim::perf
