/// \file
/// Sharded parallel fault simulation with good-machine checkpoint reuse and
/// a work-stealing fault-batch scheduler — the strategy an Engine owns when
/// EngineOptions selects the concurrent backend with jobs > 1 (the runner is
/// built from those same EngineOptions).
///
/// The concurrent engine simulates faulty circuits purely by difference from
/// the good circuit; faulty circuits never interact with each other. The
/// fault universe can therefore be partitioned and simulated in parallel —
/// the scaling lever ERASER and the batch-IVerilog work apply to fault
/// simulation (see PAPERS.md). Two things make the partition scale for real:
///
///   * **Checkpointed good-machine reuse.** The fault-free circuit is
///     simulated once per (network, sequence) into a GoodMachineCheckpoint
///     (src/core/checkpoint.hpp); every batch replays the recorded trace
///     instead of re-simulating the good machine, so adding workers adds
///     faulty-circuit work only. Checkpoints live in a CheckpointStore
///     (src/core/checkpoint_store.hpp): either a store shared by the caller
///     via EngineOptions::checkpointStore — so many engines and bench rows
///     reuse one recording — or a private per-runner store, which also
///     caches across run() calls and is cleared by reset(). The store's
///     memory budget (EngineOptions::checkpointBudgetBytes for the private
///     store) spills huge traces to disk with a sliding replay window.
///
///   * **Work stealing over fault batches.** Instead of one static slice
///     per worker, the fault list is cut into several batches per worker
///     and workers claim batches from a shared atomic queue. Fault dropping
///     makes per-fault cost wildly non-uniform — a batch whose faults all
///     drop early exits its replay early, while one undetected fault keeps
///     its batch alive for the whole sequence — so late workers steal the
///     remaining batches instead of idling behind a static slice.
///
/// *Which* faults form a batch is a pluggable policy (sched/fault_schedule):
/// the default ContiguousSchedule reproduces the classic contiguous slices;
/// the HistorySchedule lays batches out by a prior run's detection record so
/// expensive faults are quarantined together (see that header). The runner
/// feeds the schedule layer by publishing every run's detection record into
/// EngineOptions::historyStore and/or the EngineOptions::historyFile sidecar.
///
/// Determinism: the batch plan is a pure function of (numFaults, jobs,
/// batchFaults, policy, history) — workers race only for *which* batch they
/// claim, never for batch boundaries — and the merge re-indexes detections
/// back to the global fault order through the plan's permutation. A sharded
/// run's result is bit-identical to an unsharded run's for every jobs,
/// batch-size and schedule-policy choice (faulty circuits never interact, so
/// detections, nodeEvals, maxAlive and the per-pattern rows are invariant
/// under any fault permutation); the checkpoint's good-machine work is added
/// once so the merged deterministic work counter equals a jobs=1 run's
/// exactly. Timing is reported as two distinct fields: totalSeconds is the
/// run's wall clock, totalCpuSeconds the engine time summed across batches
/// and the recording (per-pattern rows sum the same way — CPU-like, since
/// batches overlap on the wall clock).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "sched/fault_schedule.hpp"
#include "util/timer.hpp"

namespace fmossim {

/// Replays a shared good-machine checkpoint in one concurrent engine per
/// fault batch, scheduled work-stealing style across `jobs` workers (the
/// calling thread and jobs - 1 spawned threads), and deterministically merges
/// the batch results.
class ShardedRunner {
 public:
  /// Reads every EngineOptions field but `backend`: the simulation fields
  /// through fsimOptions(), `jobs` (clamped to [1, faults.size()] — a worker
  /// per fault at most; at run time also capped at the hardware concurrency,
  /// see util/parallel.hpp), `batchFaults` (0 = the auto schedule, see
  /// sched::contiguousBatches), `checkpointStore` (null: a private store
  /// with `checkpointBudgetBytes` as its budget), `schedule`, and the
  /// `historyStore`/`historyFile` history sources, which every run also
  /// records into. `net` must outlive the runner.
  ShardedRunner(const Network& net, FaultList faults,
                const EngineOptions& options);

  /// The checkpoint used by the most recent run() or runStream(), or
  /// nullptr before the first run or after reset() (diagnostics and tests).
  const GoodMachineCheckpoint* checkpoint() const { return checkpoint_.get(); }

  /// Acquires the checkpoint for `seq` (the store key is the sequence
  /// fingerprint, so a checkpoint recorded by runStream() of the same
  /// sequence serves too, and the reverse), runs every fault batch through
  /// a checkpoint-replaying concurrent engine (workers steal batches from a
  /// shared queue) and merges:
  ///   * detectedAtPattern re-indexed to the global fault order,
  ///   * PatternStat rows summed per pattern (cumulative recomputed),
  ///   * the checkpoint's good-machine node evaluations added once, in
  ///     total and per row, making totalNodeEvals and every row's nodeEvals
  ///     equal to an unsharded run's,
  ///   * totalSeconds = wall clock of the whole sharded run (including
  ///     checkpoint recording when this call had to record one);
  ///     totalCpuSeconds = engine time summed across batches + recording.
  /// `onPattern` fires after the merge, once per pattern in order.
  FaultSimResult run(const TestSequence& seq,
                     const PatternCallback& onPattern = {});

  /// Native streaming run: acquires the checkpoint for the source exactly
  /// as run() does (a miss records it by consuming the source once, never
  /// materializing it), then replays every fault batch entirely from the
  /// trace (ConcurrentFaultSimulator::runReplay — workers never touch the
  /// source). The merged result is rowless; rows are derived from the
  /// merged detection record and delivered to `sink`/`onPattern` in pattern
  /// order (row triples exact, per-row timing/work fields zero — only the
  /// run-level totals are meaningful, as documented in core/row_sink.hpp).
  /// Resident memory is flat in the sequence length when the checkpoint
  /// store carries a spill budget.
  FaultSimResult runStream(PatternSource& source, RowSink* sink = nullptr,
                           const PatternCallback& onPattern = {});

  /// Drops the runner's reference to the last checkpoint and, for a private
  /// store, clears the cache (fresh-session semantics). A shared store is
  /// left untouched — its whole point is outliving individual runners.
  void reset() {
    checkpoint_.reset();
    if (options_.checkpointStore == nullptr) store_->clear();
  }

 private:
  /// Fetches the checkpoint for `source` from the store (recording on a
  /// cache miss). Returns the recording seconds this call newly spent (0 on
  /// a cache hit) for the totalCpuSeconds accounting.
  double ensureCheckpoint(PatternSource& source);
  /// Builds this run's batch plan from the configured policy: the History
  /// policy consults the shared store first, then the sidecar file, and
  /// falls back to the contiguous layout when neither has a record for this
  /// fault list.
  sched::BatchPlan buildPlan(unsigned effectiveJobs) const;
  /// Publishes the merged detection record into the history store and the
  /// sidecar file (whichever are attached) so the next run can schedule on
  /// it — contiguous runs feed history runs.
  void publishHistory(const FaultSimResult& merged) const;
  /// The body of run() and runStream(): plans the batches, replays each one
  /// from checkpoint_'s trace across the worker pool (batch b gathers its
  /// faults through plan.order, slice positions to global fault indices),
  /// merges, stamps the wall clock from `total` and adds `recordSeconds` to
  /// the engine time, and publishes the detection record. `rows` selects a
  /// materialized merge (per-batch rows summed) or a rowless one.
  FaultSimResult runBatches(const Timer& total, double recordSeconds,
                            bool rows);

  const Network& net_;
  FaultList faults_;
  EngineOptions options_;
  FsimOptions fsim_;
  unsigned jobs_;
  std::shared_ptr<CheckpointStore> store_;  ///< shared or private
  std::shared_ptr<const GoodMachineCheckpoint> checkpoint_;
  std::uint64_t faultsFp_;  ///< history key (faultListFingerprint)
};

/// Merges per-batch results (in batch order, batch b covering schedule
/// positions [slices[b].first, slices[b].second)) into one FaultSimResult.
/// `order` (optional) is the schedule's fault permutation: shard-local
/// detection slot i of batch b lands at global fault index
/// order[slices[b].first + i]; null means the identity (the classic
/// contiguous merge). When `good` is non-null its good-machine evaluation
/// counts are added once — the total always, the per-pattern counts
/// (GoodMachineCheckpoint::goodEvalsPerPattern) only when rows are merged —
/// so the merged work counters equal an unsharded run's, and its final good
/// states are used verbatim. The merged maxAlive is the modeled
/// single-engine peak (per-batch peaks coincide at sequence start, so it
/// equals a jobs=1 run's exactly — see FaultSimResult::maxAlive);
/// totalCpuSeconds and per-pattern seconds sum across batches, while the
/// caller stamps totalSeconds with the real wall clock. Rowless shards
/// (streamed runs) merge into a rowless result; rows are summed only when
/// the shards carry them. Exposed for the merge-logic unit tests.
FaultSimResult mergeShardResults(
    const std::vector<FaultSimResult>& shardResults,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& slices,
    std::uint64_t numPatterns, const GoodMachineCheckpoint* good = nullptr,
    const std::vector<std::uint32_t>* order = nullptr);

}  // namespace fmossim
