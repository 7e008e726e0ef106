/// \file
/// Engine — the single entry point for fault simulation.
///
/// Owns the network and fault list, selects a backend (serial replay,
/// concurrent difference simulation, or sharded parallel concurrent runs)
/// from EngineOptions, and exposes the uniform FaultSimulator contract with
/// repeatable runs:
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

#include <memory>
#include <optional>

#include "api/backends.hpp"
#include "api/fault_simulator.hpp"
#include "api/sharded_runner.hpp"

namespace fmossim {

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
  /// Engine::reset(), which only rebuilds the backend. Null (the default)
  /// gives each sharded backend a private store with `checkpointBudgetBytes`
  /// as its budget; that private cache still persists across run() calls
  /// but dies with reset(). Results are bit-identical either way.
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

/// The facade every caller should use: owns the workload, builds the
/// selected backend, and delegates the FaultSimulator contract to it.
class Engine : public FaultSimulator {
 public:
  /// Takes ownership of the network and fault list (copy or move in).
  Engine(Network net, FaultList faults, EngineOptions options = {});

  Engine(const Engine&) = delete;             ///< non-copyable (owns backend)
  Engine& operator=(const Engine&) = delete;  ///< non-copyable (owns backend)

  /// Name of the selected backend ("serial", "concurrent", "sharded").
  const char* backendName() const override { return backend_->backendName(); }
  /// The owned network.
  const Network& network() const override { return net_; }
  /// The owned fault list.
  const FaultList& faults() const override { return faults_; }
  /// The options the engine was constructed with.
  const EngineOptions& options() const { return options_; }

  /// Runs the sequence on the selected backend (fresh session per call).
  FaultSimResult run(const TestSequence& seq,
                     const PatternCallback& onPattern) override;
  using FaultSimulator::run;

  /// Streaming run on the selected backend (see FaultSimulator::runStream):
  /// the concurrent and sharded backends pull patterns from the source
  /// directly with flat resident memory; the serial backend falls back to
  /// materializing the source.
  FaultSimResult runStream(PatternSource& source, RowSink* sink = nullptr,
                           const PatternCallback& onPattern = {}) override;

  /// Rebuilds the backend from scratch (fresh-session semantics).
  void reset() override;

  /// Replaces the engine's workload in place and rebuilds the backend,
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
  std::unique_ptr<FaultSimulator> makeBackend() const;

  Network net_;
  FaultList faults_;
  EngineOptions options_;
  std::unique_ptr<FaultSimulator> backend_;
  /// Lazily computed, invalidated by rebind() (the workload is otherwise
  /// immutable for the engine's lifetime).
  mutable std::optional<std::uint64_t> netFp_;
  mutable std::optional<std::uint64_t> faultsFp_;  ///< see netFp_
};

}  // namespace fmossim
