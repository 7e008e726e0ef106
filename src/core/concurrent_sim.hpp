/// \file
/// FMOSSIM's concurrent switch-level fault simulation engine (paper §4).
///
/// The engine simulates the good circuit in full and every faulty circuit by
/// difference:
///
///   * Node states are kept as per-node sorted record lists (StateTable);
///     a faulty circuit's state exists only where it diverges from the good
///     circuit.
///   * Events are (node, circuit) pairs: "an 'event' specifies both a node
///     and a circuit indicating that the state of this node must be
///     recomputed in this particular circuit."
///   * Each unit-delay phase first simulates all good-circuit activity; each
///     evaluated good vicinity then *triggers* events for the faulty circuits
///     that diverge on it or structurally differ adjacent to it (records on
///     member or gate nodes, stuck nodes, transistor overrides — adjacency is
///     needed because a fault can extend the vicinity in the faulty circuit).
///     The faulty circuits are then simulated one at a time in ascending
///     circuit-ID order, each under its own topology and its own pre-phase
///     charge state.
///   * After each pattern the observed outputs are compared; a mismatch
///     detects the fault and its circuit is dropped from simulation.
///
/// Faulty circuits are bit-identified overlays on the shared network: a node
/// stuck-at fault makes the node an input in that circuit only; transistor
/// faults and activated fault devices are per-circuit conduction overrides.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/state_table.hpp"
#include "faults/fault.hpp"
#include "faults/transient.hpp"
#include "patterns/pattern.hpp"
#include "switch/logic_sim.hpp"
#include "switch/solver.hpp"
#include "switch/vicinity.hpp"
#include "util/timer.hpp"

namespace fmossim {

class CheckpointReader;
class CheckpointRecorder;
class GoodMachineCheckpoint;
class PatternSource;
class RowSink;

/// How output mismatches count as detections.
enum class DetectionPolicy : std::uint8_t {
  /// Detected only when good and faulty outputs are both definite and differ
  /// (an X cannot be distinguished on a tester). X-involved mismatches are
  /// counted as potential detections but the circuit keeps simulating.
  DefiniteOnly,
  /// Any difference counts (including X vs definite).
  AnyDifference,
};

/// Options of one concurrent fault-simulation engine.
struct FsimOptions {
  /// Switch-level simulation options (settle limit and X-coercion); they
  /// shape the good-machine trace, so they also key recorded checkpoints.
  SimOptions sim;
  /// How output mismatches count as detections.
  DetectionPolicy policy = DetectionPolicy::DefiniteOnly;
  /// Drop faulty circuits once detected (paper: "the simulation of that
  /// circuit is dropped"). Disable for the ablation benchmark.
  bool dropDetected = true;
  /// Self-test hook for the differential fuzzing oracle (src/gen/): when
  /// N > 0, every Nth faulty-circuit trigger collected during a good-circuit
  /// phase is deliberately lost, emulating the classic concurrent-simulation
  /// bug of missed divergence propagation. Must stay 0 in real use; only the
  /// oracle's mutation tests set it.
  std::uint32_t debugLoseTriggerEvery = 0;
};

/// Per-pattern measurement row (the raw data behind Figures 1 and 2).
struct PatternStat {
  /// Pattern index in the sequence.
  std::uint32_t index = 0;
  /// Aggregate engine time spent on this pattern, summed across every
  /// engine that simulated it. For unsharded runs this is the pattern's
  /// wall-clock time; for sharded runs it is CPU-like time (concurrent
  /// batches overlap on the wall clock) — see FaultSimResult::totalSeconds
  /// vs. totalCpuSeconds for the run-level pair.
  double seconds = 0.0;
  std::uint64_t nodeEvals = 0;    ///< solver work in this pattern (all circuits)
  std::uint32_t newlyDetected = 0;       ///< faults first detected here
  std::uint32_t cumulativeDetected = 0;  ///< faults detected so far
  std::uint32_t aliveAfter = 0;   ///< faulty circuits still being simulated
};

/// Result of a full fault-simulation run.
struct FaultSimResult {
  /// One row per pattern for materialized runs; empty for streaming
  /// (rowless) runs, whose rows are derivable (core/row_sink.hpp).
  std::vector<PatternStat> perPattern;
  /// Per fault: index of the detecting pattern, or -1 if undetected.
  std::vector<std::int32_t> detectedAtPattern;
  std::uint32_t numFaults = 0;    ///< faulty machines simulated
  std::uint32_t numDetected = 0;  ///< faults detected by the run
  std::uint64_t potentialDetections = 0;  ///< X-involved mismatches observed
  /// Wall-clock seconds for the whole run (sharded runs: the parallel run's
  /// elapsed time, including checkpoint recording when this run recorded).
  double totalSeconds = 0.0;
  /// Aggregate engine (CPU-like) seconds summed across every engine that
  /// contributed to the run — all fault batches plus checkpoint recording.
  /// Equals totalSeconds for unsharded backends; for sharded runs
  /// totalCpuSeconds / totalSeconds approximates the effective parallelism.
  double totalCpuSeconds = 0.0;
  /// Deterministic work counter: node evaluations across every circuit.
  std::uint64_t totalNodeEvals = 0;
  /// Peak number of simultaneously live faulty circuits of the modeled
  /// (single-engine) simulation — the paper's Fig. statistic. Exact for
  /// every backend and jobs count: alive counts never increase during a
  /// run, so each engine peaks at sequence start and a merged sharded
  /// result reports the same peak as a jobs=1 run (asserted by the
  /// scheduler matrix test), not an upper bound.
  std::uint32_t maxAlive = 0;
  /// State-table divergence records at end of run (summed across shards;
  /// 0 for the serial backend, which keeps no difference state).
  std::uint64_t finalRecords = 0;
  /// Good-circuit state of every node after the last pattern, indexed by
  /// NodeId. Every backend fills this (the serial backend from its reference
  /// run, sharded runs from their first shard), so the differential oracle
  /// can cross-check final states and not just detections.
  std::vector<State> finalGoodStates;
  /// Number of patterns the run covered. 64-bit: streaming runs leave
  /// perPattern empty and may exceed the materialized 2^32 row bound; every
  /// backend fills this (for materialized runs it equals perPattern.size()).
  std::uint64_t numPatterns = 0;
  /// Whether the run dropped detected circuits (FsimOptions::dropDetected).
  /// Together with detectedAtPattern/numFaults/numPatterns this makes the
  /// per-pattern row triples of a rowless result fully derivable — see
  /// core/row_sink.hpp (forEachDerivedRow).
  bool droppedDetected = false;

  /// Fraction of the faults detected.
  double coverage() const {
    return numFaults == 0 ? 0.0 : double(numDetected) / double(numFaults);
  }
};

/// The concurrent fault-simulation engine: the good circuit in full, every
/// faulty circuit by difference (see the file comment).
class ConcurrentFaultSimulator {
 public:
  /// Builds the engine and injects every fault (initial divergence records
  /// and events are created; call settle() or run a sequence next).
  ///
  /// `record` (optional) captures the good machine's phase trace into a
  /// checkpoint being built — only meaningful with an empty fault list (the
  /// checkpoint must contain pure good-machine activity).
  ///
  /// `replay` (optional) switches the engine into checkpoint-replay mode:
  /// the good circuit is never simulated; every good phase (vicinity trigger
  /// stimuli + state commits, already coerced) is replayed from the
  /// checkpoint's trace instead, keeping phase alignment and results
  /// bit-identical to a self-simulating engine while spending solver work on
  /// faulty circuits only. A replay engine's run is driven from the trace
  /// and may exit early (see the run entry points below).
  ConcurrentFaultSimulator(const Network& net, const FaultList& faults,
                           FsimOptions options = {},
                           CheckpointRecorder* record = nullptr,
                           const GoodMachineCheckpoint* replay = nullptr);

  /// Transient (SEU) mode: `numTransientMachines` faulty circuits with no
  /// permanent fault — each stays bit-identical to the good circuit until
  /// its TransientFault (given to runTransient / runTransientTail) flips
  /// one storage node's settled state.
  ///
  /// With `replay` null the engine self-simulates the good circuit and
  /// runTransient drives a full sequence (the naive from-scratch baseline).
  /// With `replay` given the engine *resumes at a pattern boundary*: the
  /// good state after `resumeAfterPattern` is materialized straight from
  /// the checkpoint (goodStateAfterPattern — zero solver work for the
  /// prefix, in which no transient machine can diverge) and
  /// runTransientTail simulates only the remaining patterns, bit-identical
  /// to the naive run (SEU oracle test).
  ConcurrentFaultSimulator(const Network& net,
                           std::uint32_t numTransientMachines,
                           FsimOptions options = {},
                           const GoodMachineCheckpoint* replay = nullptr,
                           std::uint64_t resumeAfterPattern = 0);

  /// Out of line: the replay reader's type is incomplete here.
  ~ConcurrentFaultSimulator();

  /// The simulated network.
  const Network& network() const { return net_; }
  /// The injected permanent faults (empty in transient mode).
  const FaultList& faults() const { return faults_; }

  // --- runs -----------------------------------------------------------------
  //
  // Every run entry point wraps one private driver. Pattern by pattern it
  // applies the stimulus, observes the outputs (recording detections and
  // dropping detected circuits), runs the pattern-boundary step (SEU
  // injections and pulse releases; nothing for permanent faults) and hands
  // the pattern's PatternStat row to the run's RowSink. The stimulus is a
  // PatternSource in a self-simulating engine and the checkpoint's recorded
  // trace in a replay engine: each recorded settle re-applies the input
  // changes of one applySetting of the recording run, so both stimuli yield
  // the same rows. In replay mode with dropDetected, once every faulty
  // circuit is detected and dropped the remaining rows are synthesized (no
  // detections, no live circuits, no solver work) and the checkpoint
  // supplies the final good states. An engine runs once.

  /// Materialized run: the result's perPattern holds one row per pattern,
  /// and `onPattern` (optional) sees each row as it completes. In replay
  /// mode `seq` must be the sequence the checkpoint recorded (asserted via
  /// fingerprint); the run is then driven from the trace, as runReplay.
  FaultSimResult run(
      const TestSequence& seq,
      const std::function<void(const PatternStat&)>& onPattern = {});

  /// Streaming run of a self-simulating engine: pulls patterns from
  /// `source` one at a time and never materializes per-pattern rows — each
  /// row goes to `sink` (and `onPattern`) as it completes and the result's
  /// perPattern stays empty (numPatterns/droppedDetected are set instead;
  /// see core/row_sink.hpp). Resident memory is flat in the sequence
  /// length. When recording a checkpoint the source is consumed once.
  FaultSimResult run(PatternSource& source, RowSink* sink = nullptr,
                     const std::function<void(const PatternStat&)>& onPattern = {});

  /// Trace-driven run of a replay engine: the whole sequence comes from the
  /// checkpoint (input changes and pattern boundaries), so the caller needs
  /// neither a TestSequence nor a PatternSource. Rows stream to
  /// `sink`/`onPattern` and the result is rowless, as in the streaming
  /// run().
  FaultSimResult runReplay(RowSink* sink = nullptr,
                           const std::function<void(const PatternStat&)>& onPattern = {});

  // --- transient (SEU) runs (transient-mode engines only; see src/seu/) ----

  /// Naive full-sequence transient run: simulates the whole sequence from
  /// scratch, flipping machine i+1 per specs[i] at its injection instant
  /// (specs.size() must equal the machine count; instants may differ).
  /// Rowless result; `onPattern` sees each pattern's row once the pattern's
  /// injections and releases have settled. Classification per machine:
  /// detectedAtPattern(i) >= 0 is detected; else hasDivergence(i+1) is
  /// latent; else silent.
  FaultSimResult runTransient(
      const TestSequence& seq, std::span<const TransientFault> specs,
      const std::function<void(const PatternStat&)>& onPattern = {});

  /// Checkpoint-tail transient run: every spec must share the engine's
  /// resume instant (a same-instant injection group). The boundary step
  /// flips every machine at the resumed pattern boundary, then the driver
  /// replays only the remaining patterns from the trace; rows start at the
  /// pattern after the resume instant. Early-exits once every machine is
  /// detected and dropped. Bit-identical to runTransient of the same specs
  /// over the recorded sequence.
  FaultSimResult runTransientTail(
      std::span<const TransientFault> specs,
      const std::function<void(const PatternStat&)>& onPattern = {});

  /// True when circuit c's state currently differs from the good circuit
  /// anywhere — records or an active pulse holding a value the good circuit
  /// does not (end-of-run latent classification; transient mode only).
  bool hasDivergence(CircuitId c) const;

  // --- fine-grained control (equivalence tests, examples) -----------------

  /// Applies one batch of input assignments and settles all circuits.
  SettleResult applySetting(std::span<const std::pair<NodeId, State>> assignments);

  /// Observes the outputs, records detections against `patternIndex`, and
  /// drops newly detected circuits (if enabled). Returns number of new
  /// detections.
  std::uint32_t observe(const std::vector<NodeId>& outputs,
                        std::uint32_t patternIndex);

  /// Good-circuit state of node n.
  State goodState(NodeId n) const { return table_.good(n); }
  /// State of node n in faulty circuit c (c in [1, numFaults]).
  State faultyState(NodeId n, CircuitId c) const;
  /// Whether faulty circuit c is still simulated (not dropped).
  bool alive(CircuitId c) const { return alive_[c] != 0; }
  /// Number of faulty circuits still simulated.
  std::uint32_t aliveCount() const { return aliveCount_; }
  /// Detecting pattern of fault `faultIndex`, or -1 while undetected.
  std::int32_t detectedAtPattern(std::uint32_t faultIndex) const {
    return detectedAt_[faultIndex];
  }
  /// X-involved output mismatches observed so far.
  std::uint64_t potentialDetections() const { return potentialDetections_; }

  /// Deterministic work counter: member-node evaluations across all
  /// circuits, so the paper's growth-shape claims remain comparable across
  /// engine versions.
  std::uint64_t nodeEvals() const { return solver_.nodeEvals(); }
  /// Unit-delay phases run so far.
  std::uint64_t phaseCount() const { return phases_; }
  /// Faulty-circuit events created by good-vicinity triggers so far.
  std::uint64_t triggeredEvents() const { return triggeredEvents_; }
  /// Divergence records currently held in the state table.
  std::uint64_t recordCount() const { return table_.totalRecords(); }
  /// Peak number of simultaneously live faulty circuits.
  std::uint32_t maxAliveObserved() const { return maxAliveObserved_; }

  /// Consistency check for tests: recomputes every incrementally maintained
  /// lookup index (divergence and trigger-watch counts, the
  /// divergent-channel lists, the stuck-input-neighbour counts, each
  /// circuit's fault site and each node's lane-group mask) from the overlay
  /// tables, the active pulses and the state table, and fails an
  /// FMOSSIM_ASSERT on the first mismatch. O(network + records + circuits);
  /// call between patterns.
  void checkIndexes() const;

 private:
  /// The good circuit's view for the vicinity builder (engine internals).
  friend struct GoodCircuitView;
  /// One faulty circuit's pre-phase view (engine internals).
  friend struct FaultyCircuitView;

  // Per-circuit static overlays, sorted by circuit id.
  struct Override {
    CircuitId circuit;
    State value;
  };

  /// A faulty circuit's one fault site: the stuck node (a permanent node
  /// stuck-at, or the struck node while an SEU pulse is held) or the
  /// overridden transistor, with the value it is held at. Every faulty
  /// circuit carries at most one overlay, so the circuit-major question
  /// "is n stuck / is t overridden in circuit c" is one compare against
  /// site_[c]; the per-node and per-transistor overlay lists serve the
  /// node-major scans.
  static constexpr std::uint32_t kNoSite = 0xffffffff;
  struct FaultSite {
    std::uint32_t node = kNoSite;
    std::uint32_t trans = kNoSite;
    State value = State::SX;

    bool operator==(const FaultSite&) const = default;
  };

  /// Master constructor both public constructors delegate to: permanent
  /// faults size the machine count themselves; transient mode passes an
  /// empty fault list and an explicit count (plus the resume instant when a
  /// checkpoint tail is being simulated).
  ConcurrentFaultSimulator(const Network& net, const FaultList& faults,
                           std::uint32_t numMachines, FsimOptions options,
                           CheckpointRecorder* record,
                           const GoodMachineCheckpoint* replay,
                           bool transientMode,
                           std::uint64_t resumeAfterPattern);

  /// The one run driver (see the run entry points). `source` is the
  /// stimulus of a self-simulating engine; null drives a replay engine from
  /// its checkpoint's trace. Rows go to `sink` and `onPattern`.
  FaultSimResult drive(
      PatternSource* source, RowSink* sink,
      const std::function<void(const PatternStat&)>& onPattern);
  /// Applies the next pattern's input settings and settles every circuit:
  /// from `source` into `scratch`, or from the trace when `source` is null.
  /// False when the stimulus is exhausted.
  bool applyNextPattern(PatternSource* source, Pattern& scratch);
  /// The pattern-boundary step after pattern `pi` is observed: SEU
  /// injections due at `pi` and pulse releases, settled in place. A no-op
  /// for permanent-fault engines.
  void patternBoundary(std::uint64_t pi);
  void inject();
  SettleResult settleAll();
  void runPhase(bool coerce);
  void processGoodPhase(bool coerce);
  void processFaultyCircuit(CircuitId c, bool coerce);
  void collectTriggers(std::span<const NodeId> members);
  void dropCircuit(CircuitId c);
  /// Gives circuit c its fault site: sets site_[c], inserts the overlay into
  /// the node-major list in circuit order and updates the watch counts.
  void addOverlay(CircuitId c, FaultSite site);
  /// Removes circuit c's fault site (if any) in the same three places.
  void removeOverlay(CircuitId c);

  // --- transient (SEU) machinery (transientMode_ only) ---------------------
  //
  // A transient machine carries no static overlay until injection. An
  // instantaneous flip becomes an ordinary divergence record (reconciled
  // like a faulty-circuit commit); a pulse becomes a temporary node-stuck
  // overlay at the flipped value (the machine's fault site while held),
  // released at its boundary with the held value left behind as charge (a
  // record, unless it agrees with the good circuit). Both schedule the node
  // and its gated transistors' channel ends, exactly like a node-stuck
  // injection, and the perturbation is settled in place (settleInPlace:
  // the replay cursor, when present, must not advance — the good machine is
  // quiet between patterns).
  struct TransientMachine {
    NodeId node;
    std::uint64_t atPattern = 0;
    std::uint32_t pulsePatterns = 0;
    bool injected = false;
  };
  /// True while transient machine c holds its pulse.
  bool pulseHeld(CircuitId c) const { return site_[c].node != kNoSite; }
  void loadTransientSpecs(std::span<const TransientFault> specs,
                          std::uint64_t numPatterns);
  void injectTransientFlip(CircuitId c);
  void releaseTransientPulse(CircuitId c);
  void scheduleTransientSite(CircuitId c, NodeId n);
  SettleResult settleInPlace();

  // Checkpoint replay (see checkpoint.hpp): one settle block per settleAll,
  // whose recorded phases are consumed one per runPhase — the good prefix of
  // the settle. replayGoodPhase applies a recorded phase's trigger stimuli
  // and state commits in place of processGoodPhase. All trace access goes
  // through replayReader_, the forward cursor that works for in-memory and
  // spilled (windowed temp-file) checkpoints alike.
  bool replayPhasesRemain() const;
  void replayBeginSettle();
  void replayGoodPhase();

  // Index maintenance. Every divergence source — a record, a stuck-node
  // overlay, a transistor override — enters and leaves through these three
  // helpers, which keep all derived indexes in step: the per-node
  // divergence counts, the divergent-channel lists, the
  // stuck-input-neighbour counts and the trigger watch counts.
  // watchCount_[n] is the number of sources whose trigger scan lands on
  // node n, mirroring collectTriggers' member scan exactly; a member with
  // count 0 cannot mark any circuit, so the scan skips it — the common case
  // once faults start dropping.
  void addRecordWatch(NodeId m, std::int32_t delta);
  void addStuckWatch(NodeId n, std::int32_t delta);
  void addTransWatch(TransId t, std::int32_t delta);
  /// Marks t divergent, and lists it at both channel ends, iff it carries
  /// an override or its gate diverges (fault devices: override only) — the
  /// transistors whose trigger scan can mark a circuit and whose conduction
  /// can differ from the good circuit's. O(1) insert and swap-remove.
  void refreshDivergentChannel(TransId t);

  // Lookup helpers: the innermost lookups of the faulty-circuit views (tens
  // of millions of calls per run). FaultyCircuitView (concurrent_sim.cpp) is
  // the one implementation of a faulty circuit's pre-phase state and
  // conduction; stateIn/conductionIn wrap it for callers that hold only a
  // circuit id. The view answers, in order, from the circuit's fault site,
  // the state table's lane-group miss filter (a miss reads the pre-phase good
  // circuit) and, only for nodes where some circuit of the same lane group
  // diverges, the record lookup.
  bool isStuckNode(NodeId n, CircuitId c) const {
    return site_[c].node == n.value;
  }
  bool hasOverride(TransId t, CircuitId c) const {
    return site_[c].trans == t.value;
  }
  /// Good state of n as it was when the current phase began.
  State preGood(NodeId n) const {
    return goodOldStamp_[n.value] == phaseEpoch_ ? goodOldValue_[n.value]
                                                 : table_.good(n);
  }
  /// Good conduction of t as it was when the current phase began.
  State preGoodConduction(TransId t) const {
    return condOldStamp_[t.value] == phaseEpoch_ ? condOldValue_[t.value]
                                                 : cond0_[t.value];
  }
  /// Pre-phase view of node n in circuit c.
  State stateIn(NodeId n, CircuitId c) const;
  /// Conduction of t in circuit c under the pre-phase lens.
  State conductionIn(TransId t, CircuitId c) const;
  /// Circuit c's record at n if it holds one, else the pre-phase good state
  /// (the out-of-line tail of the view's lookup, reached only when a circuit
  /// of c's lane group may diverge at n).
  State recordedStateIn(NodeId n, CircuitId c) const;
  /// Sets the good conduction of t during a good-phase commit, stashing the
  /// pre-phase value for the conduction lens.
  void commitGoodConduction(TransId t, State nc) {
    if (nc == cond0_[t.value]) return;
    if (condOldStamp_[t.value] != phaseEpoch_) {
      condOldStamp_[t.value] = phaseEpoch_;
      condOldValue_[t.value] = cond0_[t.value];
    }
    cond0_[t.value] = nc;
  }

  // Event scheduling.
  void scheduleGood(NodeId n);
  void scheduleFaulty(CircuitId c, NodeId n);
  void scheduleSettingSeeds(NodeId input, State oldGood);

  const Network& net_;
  FaultList faults_;  ///< empty in transient mode
  FsimOptions options_;
  /// Number of faulty machines (circuits 1..numMachines_). Equals
  /// faults_.size() for permanent faults; in transient mode the machine
  /// count is independent of the (empty) fault list.
  std::uint32_t numMachines_ = 0;
  bool transientMode_ = false;
  std::uint64_t resumeAfterPattern_ = 0;  ///< tail-resume boundary (replay)
  std::vector<TransientMachine> transient_;  ///< per machine, transient mode
  CheckpointRecorder* record_ = nullptr;
  const GoodMachineCheckpoint* replay_ = nullptr;
  std::unique_ptr<CheckpointReader> replayReader_;  // non-null iff replay_
  std::uint32_t replaySettle_ = 0;  // 1-based after replayBeginSettle
  std::uint32_t replayPhase_ = 0;   // next phase within the current settle
  // Set when the next settleAll() must not enter a new recorded settle: a
  // trace-driven pattern step already entered it (to apply the recorded
  // input changes it needed the reader positioned first), or the settle is
  // an in-place one between patterns.
  bool replayEntered_ = false;

  StateTable table_;
  std::vector<State> cond0_;  // good-circuit conduction states
  // Pre-phase good conduction for transistors whose cond0_ the good circuit
  // changed this phase (the conduction counterpart of goodOldValue_).
  std::vector<State> condOldValue_;
  std::vector<std::uint32_t> condOldStamp_;

  // Static per-circuit overlays: node-major lists for the trigger,
  // scheduling and observation scans, and the circuit-major site.
  std::vector<std::vector<Override>> nodeStuck_;     // per node
  std::vector<std::vector<Override>> transOverride_; // per transistor
  std::vector<FaultSite> site_;                      // per circuit, [0] unused

  std::vector<std::uint8_t> alive_;        // [0..F], alive_[0] unused
  std::vector<std::int32_t> detectedAt_;   // per fault index
  std::vector<std::vector<NodeId>> touched_;  // per circuit: nodes with records
  // Compaction threshold per circuit: touched_ is append-only on record
  // insert (erases leave stale entries behind), so a long-lived circuit that
  // keeps diverging and reconverging would grow it without bound — linear in
  // the sequence length for never-definitely-detected faults. When the list
  // reaches the threshold it is deduplicated and filtered to nodes that
  // still hold a record, and the threshold doubles from the live size:
  // amortized O(1) per insert, size bounded by the circuit's live records.
  std::vector<std::uint32_t> touchedCap_;
  void touchedInsert(CircuitId c, NodeId n);
  void compactTouched(CircuitId c);
  std::vector<std::uint32_t> watchCount_;  // per node: trigger sources landing here
  // Per node: #divergence records + #stuck overlays. Zero means every faulty
  // circuit agrees with the (pre-phase) good circuit here, which lets the
  // node-major scans (trigger collection, setting seeds) and the
  // divergent-channel flags skip the node. One extra trailing slot
  // (index numNodes), always zero, is the condGate_ of every fault device,
  // whose conduction never follows a node.
  std::vector<std::uint32_t> divCount_;
  std::vector<std::uint32_t> condGate_;       // per transistor: gate, or numNodes
  std::vector<std::uint8_t> isInput_;         // per node: Network::isInput
  // Divergent channels: transistors that carry an override or whose gate
  // diverges (chanDivergent_[t] != 0). Per node n, the divergent channel
  // transistors of n are packed in the CSR slice
  // [divChanOff_[n], divChanOff_[n] + divChanSize_[n]) of divChan_ (capacity
  // = n's channel count); divChanSlot_[t] is t's slot at its source and
  // drain (kNotListed when absent). collectTriggers walks only these lists,
  // and conductionIn's fast path is exactly the undivergent case.
  static constexpr std::uint32_t kNotListed = 0xffffffff;
  std::vector<std::uint8_t> chanDivergent_;
  std::vector<std::uint32_t> divChanOff_;
  std::vector<std::uint32_t> divChanSize_;
  std::vector<TransId> divChan_;
  std::vector<std::array<std::uint32_t, 2>> divChanSlot_;
  // Per node: stuck overlays on input nodes across a channel — the sources
  // of collectTriggers' stuck-input-neighbour scan, which runs only when
  // this is non-zero.
  std::vector<std::uint32_t> stuckNbrCount_;

  // Good-circuit event queue (next phase).
  std::vector<NodeId> goodSeeds_;
  std::vector<std::uint32_t> goodSeedStamp_;
  // Faulty event queues (next phase): per circuit.
  std::vector<std::vector<NodeId>> faultySeeds_;
  std::vector<CircuitId> activeCircuits_;
  std::vector<std::uint32_t> circuitStamp_;
  std::uint32_t seedGen_ = 1;

  // Current-phase working queues (swapped in by runPhase).
  std::vector<NodeId> curGoodSeeds_;
  std::vector<CircuitId> curCircuits_;
  std::vector<std::vector<NodeId>> curFaultySeeds_;

  // Pre-phase good values for nodes changed by the good circuit this phase.
  std::vector<State> goodOldValue_;
  std::vector<std::uint32_t> goodOldStamp_;
  // Marks circuits already in curCircuits_ for the current phase.
  std::vector<std::uint32_t> phaseCircuitStamp_;
  std::uint32_t phaseEpoch_ = 1;

  // Scratch.
  VicinityBuilder vicBuilder_;
  SteadyStateSolver solver_;
  Vicinity vic_;
  std::vector<State> newStates_;
  std::vector<std::pair<NodeId, State>> goodChanges_;
  struct FaultyChange {
    NodeId node;
    State oldValue;
    State newValue;
  };
  std::vector<FaultyChange> faultyChanges_;
  std::vector<std::pair<NodeId, State>> faultyResults_;
  std::vector<CircuitId> triggerScratch_;
  std::vector<std::uint32_t> triggerStamp_;
  std::uint32_t triggerGen_ = 1;
  std::uint64_t debugTriggerCount_ = 0;
  std::vector<CircuitId> dropQueue_;

  std::uint32_t aliveCount_ = 0;
  std::uint32_t maxAliveObserved_ = 0;
  std::uint64_t phases_ = 0;
  std::uint64_t triggeredEvents_ = 0;
  std::uint64_t potentialDetections_ = 0;
  bool ran_ = false;
};

}  // namespace fmossim
