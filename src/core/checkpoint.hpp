// Good-machine checkpoints — simulate the fault-free circuit once, reuse it
// everywhere (the parallel-path answer to the paper's central observation
// that the good circuit's work should be shared, not repeated).
//
// The concurrent engine already shares the good machine across all faulty
// circuits *within* one engine; a sharded run used to throw that away by
// re-simulating the good circuit once per shard. A GoodMachineCheckpoint
// captures one complete good-machine run of a test sequence as a compact
// settle-by-settle, phase-by-phase trace:
//
//   * per unit-delay phase: the members of every vicinity the good circuit
//     evaluated, concatenated in evaluation order (what faulty-circuit
//     trigger collection scans), and the committed state changes (node, new
//     value) — coercion already applied, so replay is a pure data walk with
//     no solver work;
//   * per settle (one per input setting, plus the initial all-X settle):
//     the span of phases it ran, so replay keeps the global phase counter —
//     and therefore oscillation-coercion timing — bit-aligned with an
//     unsharded run, plus the input-node changes applied just before it —
//     so replay can drive the whole sequence from the trace alone (every
//     replay-mode run of ConcurrentFaultSimulator, and runReplay without a
//     materialized TestSequence at all);
//   * per pattern: which settle ends it (one bit per settle) and the
//     observed outputs, so replay knows when to observe. The good machine's
//     logical node evaluations per pattern are not stored: every recorded
//     vicinity member is one evaluation, so goodEvalsPerPattern() derives
//     them from the trace (what a merged sharded result adds back to report
//     exactly the same deterministic work counter as a jobs=1 run).
//
// Layout (SettleBlock): a phase spans the member arena directly, and one
// bit per member marks the last member of each vicinity — a good vicinity
// averages barely more than one member, so a per-vicinity span would cost
// more than the members it points at. A change packs node and state into
// one word. Replay walks a phase's members once and asks for a vicinity's
// bounds (a word-wise search of the end bits) only where a member can
// trigger a faulty circuit.
//
// Per-pattern good states are not stored as full snapshots: the change trace
// *is* the snapshot store, copy-on-write style — all patterns share the one
// change arena and goodStateAfterPattern() materializes a snapshot by
// folding the deltas up to that pattern's last settle.
//
// The trace is recorded as a sequence of *chunks*: consecutive settles
// batched until a chunk reaches a fixed target of content bytes (a few KiB
// to 64 KiB), closed at a settle boundary. A resident per-chunk index (the
// first settle of each chunk, one word per chunk) plus one pattern-end bit
// per settle is all the per-settle state either storage mode keeps outside
// the chunks. Storage has two modes, chosen at record() time by
// `budgetBytes`; they differ only in where a finished chunk lives:
//
//   * **In-memory (budget 0).** Chunks close at the first settle boundary
//     past 64 KiB of content and stay resident, copied to their exact size
//     — about 3.6 MB in all for RAM256's 1447 patterns. Recording never
//     grows one multi-MiB block, so its peak stays near the finished
//     trace's size.
//   * **Spilled (budget > 0).** The trace grows linearly with good-machine
//     activity, so million-pattern sequences cannot hold it in RAM. Chunks
//     (sized from the budget) are streamed to an unlinked temp file as they
//     fill and replayed back through a sliding in-memory window (an LRU
//     cache of decoded chunks) sized so that the checkpoint's resident
//     footprint — reported by memoryBytes() — stays within the budget; a
//     million-settle recording fits comfortably under a single-digit-MiB
//     budget. Eviction and re-reads are invisible: replay is bit-identical
//     to the in-memory mode.
//
// All replay access goes through a CheckpointReader cursor (one per
// replaying engine); the trace itself is immutable after record() and safe
// to share across concurrently replaying engines. CheckpointStore
// (src/core/checkpoint_store.hpp) caches recorded checkpoints across
// engines and rows, keyed on (network identity, sequence fingerprint).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "patterns/pattern.hpp"
#include "switch/network.hpp"

namespace fmossim {

struct FsimOptions;
class CheckpointReader;
class PatternSource;

/// One recorded good-machine run of a test sequence (see file comment).
/// Immutable after record(); safe to share across concurrently replaying
/// engines (the spilled-mode window cache is internally synchronized).
/// Move-only: a spilled checkpoint owns its backing file.
class GoodMachineCheckpoint {
 public:
  /// One committed good-circuit state change (post-coercion; the new value
  /// always differs from the node's pre-phase state), packed into one word
  /// as `node << 2 | state` (recording asserts numNodes < 2^30).
  struct Change {
    std::uint32_t packed;

    Change() = default;
    Change(NodeId n, State v)
        : packed(n.value << 2 | static_cast<std::uint32_t>(v)) {}
    NodeId node() const { return NodeId(packed >> 2); }
    State value() const { return static_cast<State>(packed & 3); }
  };
  /// One unit-delay phase of good-circuit activity. Offsets are local to
  /// the SettleBlock holding the phase.
  struct Phase {
    std::uint32_t memberOff, memberCount;  ///< span into the member arena
    std::uint32_t changeOff, changeCount;  ///< span into the change arena
  };
  /// One settle (input setting application): its span of phases, plus the
  /// input-node changes applied immediately before it (empty for settle 0).
  /// Settle 0 is the initial all-X network evaluation; settle k >= 1 is the
  /// k-th input setting of the sequence, in run order. Input changes bypass
  /// the phase commit path in the engine, so snapshot folding and
  /// trace-driven replay need them recorded separately.
  struct Settle {
    std::uint32_t phaseOff, phaseCount;
    std::uint32_t inputOff, inputCount;  ///< span into the input-change arena
  };
  /// One chunk: consecutive settles' trace data in decodable form, offsets
  /// local to the block (what the recorder fills, an in-memory checkpoint
  /// keeps and a spill-file block decodes into).
  struct SettleBlock {
    std::vector<Settle> settles;
    std::vector<Phase> phases;
    /// Every recorded good vicinity's members, in evaluation order.
    std::vector<NodeId> members;
    /// Bit i set iff members[i] is the last member of its vicinity.
    std::vector<std::uint64_t> vicinityEnds;
    std::vector<Change> changes;
    std::vector<Change> inputChanges;

    /// Heap footprint of the block's payload (memory and window accounting;
    /// finished and decoded blocks are exact-sized so capacity == size).
    std::size_t bytes() const;
    /// Content bytes regardless of vector slack (the recorder's flush
    /// threshold — the recorder keeps its capacity across chunks).
    std::size_t contentBytes() const;
  };

  GoodMachineCheckpoint();
  GoodMachineCheckpoint(GoodMachineCheckpoint&&) noexcept;
  GoodMachineCheckpoint& operator=(GoodMachineCheckpoint&&) noexcept;
  ~GoodMachineCheckpoint();

  /// Records the good machine of `net` over `source`: runs a fault-free
  /// concurrent simulation with `options` (detection knobs are irrelevant;
  /// options.sim controls settle limits) and captures the trace, consuming
  /// the source once and never materializing it (a TestSequence records
  /// through MaterializedPatternSource). Deterministic: identical inputs
  /// produce identical checkpoints (and bit-identical replays regardless of
  /// `budgetBytes`).
  ///
  /// `budgetBytes` > 0 spills the chunked trace to an unlinked temp file in
  /// `spillDir` (empty = the system temp directory) as it records, keeping
  /// memoryBytes() within the budget — resident memory is then flat in the
  /// sequence length; 0 keeps the whole trace in RAM. See the file comment
  /// for the budget's fixed floor.
  static GoodMachineCheckpoint record(const Network& net, PatternSource& source,
                                      const FsimOptions& options,
                                      std::size_t budgetBytes = 0,
                                      const std::string& spillDir = {});

  /// Content fingerprint of a test sequence: PatternSource::fingerprint of
  /// its MaterializedPatternSource. Replay asserts the sequence it runs
  /// matches the one recorded; CheckpointStore keys its cache on this.
  static std::uint64_t fingerprint(const TestSequence& seq);

  /// Number of recorded settles (1 + total input settings of the sequence).
  std::uint32_t numSettles() const { return settleCount_; }

  // --- whole-run data --------------------------------------------------------

  /// Fingerprint of the recorded sequence (see fingerprint()).
  std::uint64_t seqFingerprint() const { return seqFingerprint_; }
  /// Number of nodes of the recorded network.
  std::uint32_t numNodes() const {
    return static_cast<std::uint32_t>(finalGoodStates_.size());
  }
  /// Number of patterns of the recorded sequence (64-bit: a streamed
  /// source is not bounded by a materialized sequence's 2^32 size).
  std::uint64_t numPatterns() const { return numPatterns_; }
  /// The observed output nodes of the recorded sequence — what a
  /// trace-driven replay observes at each pattern end.
  const std::vector<NodeId>& outputs() const { return outputs_; }
  /// True when settle `i` is the last settle of a pattern (the engine
  /// observed outputs right after it).
  bool patternEndsAtSettle(std::uint32_t i) const {
    return ((patternEndBits_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  /// Good state of every node after the last pattern (what an early-exiting
  /// replay reports as finalGoodStates).
  const std::vector<State>& finalGoodStates() const { return finalGoodStates_; }
  /// Good-machine logical node evaluations per pattern — the work a replay
  /// avoids; merged into sharded rows so their deterministic work counter
  /// equals a jobs=1 run's exactly. Derived, not stored: pattern p's count
  /// is the number of vicinity members recorded in the settles after
  /// pattern p-1's last settle up to its own (the initial settle belongs to
  /// no pattern). One pass over the trace; works in both storage modes.
  std::vector<std::uint64_t> goodEvalsPerPattern() const;
  /// Total good-machine node evaluations over the sequence (excluding the
  /// initial settle, matching FaultSimResult::totalNodeEvals semantics) —
  /// the sum of goodEvalsPerPattern(), kept so a rowless merge needs no
  /// pass over the trace.
  std::uint64_t totalGoodEvals() const { return totalGoodEvals_; }
  /// Wall-clock seconds the recording run took (merged into the recording
  /// run's aggregate CPU time; diagnostics).
  double recordSeconds() const { return recordSeconds_; }

  /// Materializes the good state of every node after pattern `p` by folding
  /// the change trace up to that pattern's last settle (the copy-on-write
  /// read path; O(nodes + changes up to p)). Works in both storage modes.
  std::vector<State> goodStateAfterPattern(std::uint64_t p) const;

  /// Index of the settle that ends pattern `p` — the settle right after
  /// which the recording engine observed that pattern's outputs
  /// (word-skipping popcount scan over the pattern-end bits; O(settles/64)).
  /// A replay resuming "just after pattern p" (SEU tail simulation) starts
  /// at settle settleEndingPattern(p) + 1. Works in both storage modes.
  std::uint32_t settleEndingPattern(std::uint64_t p) const;

  /// True when the chunked trace lives in the temp-file backing store and
  /// replays through the sliding window.
  bool spilled() const { return spill_ != nullptr; }
  /// The record-time memory budget (0 = unbounded).
  std::size_t budgetBytes() const { return budgetBytes_; }

  /// Number of trace chunks (both storage modes).
  std::uint32_t chunkCount() const {
    return static_cast<std::uint32_t>(chunkFirstSettle_.size());
  }
  /// Index of the first settle of chunk `c` (c < chunkCount()).
  std::uint32_t chunkFirstSettle(std::uint32_t c) const {
    return chunkFirstSettle_[c];
  }

  // --- spill diagnostics (0 when not spilled) --------------------------------

  /// Largest encoded chunk (the window's hard floor: one chunk must always
  /// be decodable).
  std::size_t maxChunkBytes() const;
  /// Bytes of decoded chunks the sliding window may keep resident.
  std::size_t windowBudgetBytes() const;

  /// Resident heap footprint in bytes: the fixed per-node, per-settle and
  /// per-chunk index plus every chunk in in-memory mode, or plus the
  /// current window of decoded chunks in spilled mode. The budget
  /// enforcement hook — stays <= budgetBytes() whenever the budget exceeds
  /// the fixed floor plus one chunk per concurrently replaying engine.
  std::size_t memoryBytes() const;

 private:
  friend class CheckpointRecorder;
  friend class CheckpointReader;

  struct SpillState;

  std::size_t fixedBytes() const;
  /// Chunk `c`: the resident chunk in in-memory mode, or the chunk loaded
  /// through the window cache in spilled mode.
  std::shared_ptr<const SettleBlock> loadBlock(std::uint32_t c) const;

  std::uint32_t settleCount_ = 0;  ///< total settles, both modes
  /// Per chunk: the index of its first settle (both modes).
  std::vector<std::uint32_t> chunkFirstSettle_;
  /// In-memory mode: every finished chunk, exact-sized. Empty when spilled
  /// (the chunks live in the backing file).
  std::vector<std::shared_ptr<const SettleBlock>> chunks_;

  std::vector<State> initialGoodStates_;  ///< after the initial all-X settle
  std::vector<State> finalGoodStates_;
  /// Bit i set iff settle i ends a pattern (one bit per settle — the only
  /// per-settle resident cost outside the chunks).
  std::vector<std::uint64_t> patternEndBits_;
  std::vector<NodeId> outputs_;
  std::uint64_t numPatterns_ = 0;
  std::uint64_t totalGoodEvals_ = 0;
  std::uint64_t seqFingerprint_ = 0;
  double recordSeconds_ = 0.0;

  std::size_t budgetBytes_ = 0;
  std::unique_ptr<SpillState> spill_;  ///< non-null in spilled mode
};

/// Forward-only replay cursor over a checkpoint's trace — the one access
/// path, the same in both storage modes. Each replaying engine owns one;
/// the cursor pins its current settle's chunk (keeping returned spans valid
/// until the next enterSettle), and in spilled mode the shared window cache
/// behind it slides forward with the replay. Consecutive settles of one
/// chunk reuse the pin without looking the chunk up again.
class CheckpointReader {
 public:
  /// Binds to `ck` (must outlive the reader) without loading anything.
  explicit CheckpointReader(const GoodMachineCheckpoint& ck);

  /// Positions the cursor on settle `i` (asserted in range). Sequential
  /// forward access is the fast path; any order is correct.
  void enterSettle(std::uint32_t i);

  /// Number of phases of the current settle.
  std::uint32_t phaseCount() const { return settle_.phaseCount; }
  /// The members of every vicinity phase `k` of the current settle
  /// evaluated, concatenated in evaluation order.
  std::span<const NodeId> members(std::uint32_t k) const {
    const GoodMachineCheckpoint::Phase& p = phase(k);
    return {pin_->members.data() + p.memberOff, p.memberCount};
  }
  /// Calls `fn(members)` once for each vicinity of phase `k` holding a
  /// member `n` with `hot(n)`, in evaluation order — one pass over the
  /// phase's members; bounds are searched only around hot members.
  template <typename Hot, typename Fn>
  void forEachHotVicinity(std::uint32_t k, Hot&& hot, Fn&& fn) const {
    const GoodMachineCheckpoint::Phase& p = phase(k);
    const NodeId* m = pin_->members.data();
    const std::uint32_t end = p.memberOff + p.memberCount;
    for (std::uint32_t g = p.memberOff; g < end; ++g) {
      if (!hot(m[g])) continue;
      const std::uint32_t first = vicinityFirst(g);
      const std::uint32_t last = vicinityLast(g);
      fn(std::span<const NodeId>(m + first, last + 1 - first));
      g = last;
    }
  }
  /// The state changes committed in phase `k` of the current settle.
  std::span<const GoodMachineCheckpoint::Change> changes(
      std::uint32_t k) const {
    const GoodMachineCheckpoint::Phase& p = phase(k);
    return {pin_->changes.data() + p.changeOff, p.changeCount};
  }
  /// The input-node changes applied just before the current settle.
  std::span<const GoodMachineCheckpoint::Change> inputChanges() const {
    return {pin_->inputChanges.data() + settle_.inputOff,
            settle_.inputCount};
  }

 private:
  const GoodMachineCheckpoint::Phase& phase(std::uint32_t k) const {
    return pin_->phases[settle_.phaseOff + k];
  }
  /// First member of the vicinity holding block member `g`.
  std::uint32_t vicinityFirst(std::uint32_t g) const;
  /// Last member of the vicinity holding block member `g`: the first end
  /// bit at or after `g`.
  std::uint32_t vicinityLast(std::uint32_t g) const;

  const GoodMachineCheckpoint* ck_;
  /// Pin on the chunk holding the current settle, and that chunk's first
  /// settle index.
  std::shared_ptr<const GoodMachineCheckpoint::SettleBlock> pin_;
  std::uint32_t chunkFirst_ = 0;
  GoodMachineCheckpoint::Settle settle_{};
};

/// Recording sink the concurrent engine drives during a checkpoint-recording
/// run. Appends settles to a pending chunk and closes it at the next settle
/// once it reaches the chunk byte target: in-memory mode keeps an
/// exact-sized copy resident, spilled mode writes it to the spill file.
/// One beginSettle() per settleAll(), one beginPhase() per unit-delay
/// phase, then the phase's good vicinities and commits in engine order;
/// endPattern() after each observed pattern; finish() completes the trace.
class CheckpointRecorder {
 public:
  /// Records into `into` (must outlive the recorder; its spill mode is
  /// fixed before recording starts).
  explicit CheckpointRecorder(GoodMachineCheckpoint& into);

  /// Records one input-node assignment (old != new); attached to the settle
  /// the engine runs next.
  void inputChange(NodeId n, State v);
  /// Opens the next settle (spilling the pending chunk when due).
  void beginSettle();
  /// Opens the next phase of the current settle.
  void beginPhase();
  /// Records one good-vicinity evaluation (its non-empty member list).
  void goodVicinity(std::span<const NodeId> members);
  /// Records one committed good-circuit change (post-coercion, old != new).
  void goodCommit(NodeId n, State v);
  /// Marks the current settle as a pattern boundary (the engine observed
  /// outputs right after it).
  void endPattern();
  /// Closes the final chunk; recording is complete.
  void finish();

 private:
  void flushChunk();

  GoodMachineCheckpoint& ck_;
  /// The chunk being filled; keeps its capacity across chunks.
  GoodMachineCheckpoint::SettleBlock pending_;
  /// Input changes seen since the last beginSettle (owned by the next one).
  std::vector<GoodMachineCheckpoint::Change> pendingInputs_;
  /// Close the pending chunk once it holds this many content bytes (in
  /// spilled mode small enough that the sliding window can hold several
  /// chunks under tight budgets, large enough to amortize encode/decode).
  std::size_t chunkTarget_ = 0;
};

}  // namespace fmossim
