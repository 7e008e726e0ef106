/// \file
/// Engine — the single entry point for fault simulation.
///
/// Owns the network and fault list and runs them on the strategy that
/// EngineOptions selects, with repeatable runs:
///
///   * Backend::Serial — one fresh LogicSimulator replay per fault (paper
///     §1), lifted into the shared FaultSimResult shape.
///   * Backend::Concurrent with jobs = 1, or over a single fault — a fresh
///     ConcurrentFaultSimulator per call (paper §4; the core engine is
///     single-shot).
///   * Backend::Concurrent with jobs > 1 — an owned ShardedRunner (see
///     api/sharded_runner.hpp) that replays one good-machine checkpoint per
///     fault batch across a worker pool.
///
/// \code
///   Engine engine(net, faults, {.backend = Backend::Concurrent, .jobs = 4});
///   FaultSimResult r1 = engine.run(seq);
///   FaultSimResult r2 = engine.run(seq);   // fresh session, identical result
/// \endcode
///
/// The library-wide default detection policy is DetectionPolicy::DefiniteOnly
/// (a tester cannot distinguish an X from a driven value); the paper's own
/// benchmark criterion is AnyDifference and the bench harnesses set it
/// explicitly.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/checkpoint_store.hpp"
#include "core/concurrent_sim.hpp"  // FaultSimResult, PatternStat, FsimOptions
#include "core/serial_sim.hpp"
#include "faults/fault.hpp"
#include "patterns/pattern.hpp"
#include "sched/fault_schedule.hpp"
#include "switch/network.hpp"

/// Switch-level concurrent fault simulation (Bryant & Schuster, DAC 1985
/// reproduction). See README.md for the architecture overview.
namespace fmossim {

class ShardedRunner;

/// Invoked after each pattern with the (possibly merged) per-pattern row.
/// The serial and sharded strategies call it only after the whole run, once
/// per pattern in ascending order.
using PatternCallback = std::function<void(const PatternStat&)>;

/// Content fingerprint of a fault list (FNV-1a over each fault's kind,
/// node/transistor index and stuck value — names are excluded, mirroring
/// networkFingerprint()). Two fault lists that inject the same faults in the
/// same order fingerprint equal; the service-mode EnginePool keys pooled
/// engines on (networkFingerprint, faultListFingerprint, options) to decide
/// whether a live engine can serve a request as-is.
std::uint64_t faultListFingerprint(const FaultList& faults);

/// Simulation strategy selector for EngineOptions::backend.
enum class Backend : std::uint8_t {
  Serial,      ///< one fresh LogicSimulator replay per fault (paper §1)
  Concurrent,  ///< difference simulation of all faults at once (paper §4)
};

/// Engine construction knobs (backend, detection policy, parallelism).
struct EngineOptions {
  /// Simulation strategy (default: the paper's concurrent algorithm).
  Backend backend = Backend::Concurrent;
  /// Switch-level simulation options forwarded to the core engines.
  SimOptions sim;
  /// Output-mismatch detection criterion.
  DetectionPolicy policy = DetectionPolicy::DefiniteOnly;
  /// Drop faulty circuits once detected (concurrent backends only; the
  /// serial backend always stops a fault's replay at first detection).
  bool dropDetected = true;
  /// Number of parallel workers for the concurrent backend. jobs > 1 records
  /// a good-machine checkpoint once, cuts the fault list into batches and
  /// runs one checkpoint-replaying engine per batch, work-stealing style;
  /// results are deterministic and bit-identical to jobs = 1.
  unsigned jobs = 1;
  /// Fault-batch size for the sharded scheduler (jobs > 1 only): 0 selects
  /// the auto schedule (~4 batches per worker of at least 32 faults, none
  /// larger than one worker's share of the faults), any other value
  /// fixed-size batches of that many faults. Any setting produces identical
  /// results; the knob trades scheduling granularity against per-batch
  /// replay overhead.
  std::uint32_t batchFaults = 0;
  /// Shared good-machine checkpoint cache (jobs > 1 only). Engines handed
  /// the same store record the fault-free run once per (network, sequence)
  /// and reuse it across engines, rows and run() calls — the cache survives
  /// Engine::reset(), which only clears the engine's own state. Null (the
  /// default) gives each sharded runner a private store with
  /// `checkpointBudgetBytes` as its budget; that private cache still
  /// persists across run() calls but dies with reset(). Results are
  /// bit-identical either way.
  std::shared_ptr<CheckpointStore> checkpointStore;
  /// Memory budget in bytes for recorded good-machine checkpoints (the CLI's
  /// `--checkpoint-budget`); 0 = unbounded (in-memory trace). A positive
  /// budget spills the settle-block trace to a temp file and replays through
  /// a sliding window so GoodMachineCheckpoint::memoryBytes() stays within
  /// budget — the knob that opens million-pattern sequences. Applies to the
  /// private store only; a shared `checkpointStore` carries its own budget.
  std::size_t checkpointBudgetBytes = 0;
  /// Batch-layout policy for the sharded scheduler (jobs > 1 only; the CLI's
  /// `--schedule`). Contiguous (the default) slices the global fault order;
  /// History lays batches out by a prior run's detection record — expensive
  /// (late- or never-detected) faults are co-batched so the cheap batches
  /// exit their replay early. Every policy is bit-identical in results
  /// (detections, nodeEvals, rows); only wall clock changes. The History
  /// policy falls back to the contiguous layout until a history exists in
  /// `historyStore` or `historyFile`.
  sched::SchedulePolicy schedule = sched::SchedulePolicy::Contiguous;
  /// Shared in-memory detection-history cache (jobs > 1 only), the
  /// scheduling twin of `checkpointStore`: every sharded run records its
  /// detection outcome into the store (keyed on the fault-list fingerprint)
  /// and the History policy schedules on the newest record. Engines handed
  /// the same store feed each other — the serve daemon hangs one store off
  /// its engine pool, giving per-tenant history across requests. Null keeps
  /// history per-runner only (still recorded when `historyFile` is set).
  std::shared_ptr<sched::HistoryStore> historyStore;
  /// Detection-history sidecar path (jobs > 1 only; the CLI's
  /// `--history-file`): loaded as the fallback history source and rewritten
  /// after every sharded run, so history survives process restarts. Empty
  /// disables the sidecar.
  std::string historyFile;
  /// Forwarded to FsimOptions::debugLoseTriggerEvery (concurrent backends
  /// only): the differential-fuzzing oracle's self-test bug injector. 0 = off.
  std::uint32_t debugLoseTriggerEvery = 0;
};

/// The core engines' options for an Engine configuration: the one place
/// EngineOptions' simulation fields map onto FsimOptions (the jobs = 1 engine
/// and every ShardedRunner batch run under it).
FsimOptions fsimOptions(const EngineOptions& options);

/// The facade every caller should use: owns the workload and runs it on the
/// strategy EngineOptions selects (see the file comment).
class Engine {
 public:
  /// Takes ownership of the network and fault list (copy or move in).
  Engine(Network net, FaultList faults, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;             ///< non-copyable (owns runner)
  Engine& operator=(const Engine&) = delete;  ///< non-copyable (owns runner)

  /// Name of the selected strategy ("serial", "concurrent", "sharded").
  const char* backendName() const;
  /// The owned network.
  const Network& network() const { return net_; }
  /// The owned fault list.
  const FaultList& faults() const { return faults_; }
  /// The options the engine was constructed with.
  const EngineOptions& options() const { return options_; }

  /// Runs the full test sequence and returns the complete result: per-pattern
  /// rows, per-fault detection indices and coverage, whatever the strategy.
  /// Repeatable: each call simulates from scratch. `onPattern` (may be null)
  /// fires with each pattern's (merged) row.
  FaultSimResult run(const TestSequence& seq,
                     const PatternCallback& onPattern = {});

  /// Streaming run: pulls patterns from `source` (rewinding it first, so the
  /// call is repeatable like run()) and delivers per-pattern rows to `sink`
  /// and `onPattern` in pattern order. The concurrent and sharded strategies
  /// keep resident memory flat in the sequence length and return a rowless
  /// result (perPattern empty, numPatterns/droppedDetected set — see
  /// core/row_sink.hpp); the serial strategy materializes the source into a
  /// TestSequence and returns run()'s result.
  FaultSimResult runStream(PatternSource& source, RowSink* sink = nullptr,
                           const PatternCallback& onPattern = {});

  /// Discards cached session state (fresh-session semantics): the sharded
  /// runner forgets its last checkpoint and clears a private store.
  void reset();

  /// Replaces the engine's workload in place and rebuilds the runner,
  /// keeping the current options — the engines-as-reusable-resources hook
  /// the service-mode EnginePool uses instead of destroying and
  /// reconstructing Engine objects per request. A shared
  /// EngineOptions::checkpointStore is carried over, so a rebound engine
  /// still reuses every recording the store holds for its new workload.
  void rebind(Network net, FaultList faults);

  /// Like rebind(net, faults) but also replaces the options (e.g. a request
  /// asking for a different jobs count or detection policy).
  void rebind(Network net, FaultList faults, EngineOptions options);

  /// Structural fingerprint of the owned network (networkFingerprint(),
  /// cached until rebind()). Equal fingerprints mean a checkpoint or a
  /// pooled engine recorded for one network is valid for the other.
  std::uint64_t netFingerprint() const;

  /// Fingerprint of the owned fault list (faultListFingerprint(), cached
  /// until rebind()).
  std::uint64_t faultsFingerprint() const;

  /// Content fingerprint of a test sequence — the key the checkpoint store
  /// pairs with netFingerprint(); re-exported from GoodMachineCheckpoint so
  /// service-layer callers need only the Engine API.
  static std::uint64_t sequenceFingerprint(const TestSequence& seq);

  /// Good-circuit-only reference run (output trace + timing), the baseline
  /// the paper reports every fault-simulation cost against.
  GoodRunResult runGood(const TestSequence& seq) const;

 private:
  /// Builds sharded_ when the options select the sharded strategy.
  void rebuild();

  Network net_;
  FaultList faults_;
  EngineOptions options_;
  /// Non-null iff the concurrent backend runs with jobs > 1 over more than
  /// one fault.
  std::unique_ptr<ShardedRunner> sharded_;
  /// Lazily computed, invalidated by rebind() (the workload is otherwise
  /// immutable for the engine's lifetime).
  mutable std::optional<std::uint64_t> netFp_;
  mutable std::optional<std::uint64_t> faultsFp_;  ///< see netFp_
};

}  // namespace fmossim
