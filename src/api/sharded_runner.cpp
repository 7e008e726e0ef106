#include "api/sharded_runner.hpp"

#include <algorithm>

#include "api/engine.hpp"
#include "core/row_sink.hpp"
#include "patterns/pattern_source.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace fmossim {

ShardedRunner::ShardedRunner(const Network& net, FaultList faults,
                             const EngineOptions& options)
    : net_(net),
      faults_(std::move(faults)),
      options_(options),
      fsim_(fsimOptions(options)),
      jobs_(std::max(1u, std::min(options.jobs,
                                  std::max(1u, faults_.size())))),
      store_(options.checkpointStore),
      faultsFp_(faultListFingerprint(faults_)) {
  if (store_ == nullptr) {
    CheckpointStore::Options sopts;
    sopts.budgetBytes = options.checkpointBudgetBytes;
    store_ = std::make_shared<CheckpointStore>(sopts);
  }
}

FaultSimResult mergeShardResults(
    const std::vector<FaultSimResult>& shardResults,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& slices,
    std::uint64_t numPatterns, const GoodMachineCheckpoint* good,
    const std::vector<std::uint32_t>* order) {
  FaultSimResult merged;
  std::uint32_t numFaults = 0;
  for (const auto& [begin, end] : slices) numFaults += end - begin;
  merged.numFaults = numFaults;
  merged.numPatterns = numPatterns;
  if (!shardResults.empty()) {
    // Every shard ran under the same options; the drop mode is uniform.
    merged.droppedDetected = shardResults.front().droppedDetected;
  }
  merged.detectedAtPattern.assign(numFaults, -1);

  // Rows are merged only when the shards carry them; rowless (streamed)
  // shards leave the merged result rowless too.
  const bool rows = std::any_of(
      shardResults.begin(), shardResults.end(),
      [](const FaultSimResult& r) { return !r.perPattern.empty(); });
  if (rows) {
    merged.perPattern.resize(numPatterns);
    for (std::uint64_t pi = 0; pi < numPatterns; ++pi) {
      merged.perPattern[pi].index = static_cast<std::uint32_t>(pi);
    }
  }

  for (std::size_t s = 0; s < shardResults.size(); ++s) {
    const FaultSimResult& r = shardResults[s];
    const auto [begin, end] = slices[s];
    // Re-index the shard-local fault order to the global one, through the
    // schedule's permutation when one is in effect.
    for (std::uint32_t i = 0; i < end - begin; ++i) {
      const std::uint32_t pos = begin + i;
      merged.detectedAtPattern[order == nullptr ? pos : (*order)[pos]] =
          r.detectedAtPattern[i];
    }
    merged.numDetected += r.numDetected;
    merged.potentialDetections += r.potentialDetections;
    // Without a checkpoint every shard simulates the same good circuit; keep
    // the first one's final states (the differential oracle cross-checks
    // them per backend).
    if (merged.finalGoodStates.empty()) {
      merged.finalGoodStates = r.finalGoodStates;
    }
    merged.totalNodeEvals += r.totalNodeEvals;
    // Engine time sums across batches (they overlap on the wall clock; the
    // caller stamps merged.totalSeconds with the real elapsed time).
    merged.totalCpuSeconds += r.totalCpuSeconds;
    // Alive counts never increase during a run, so every batch's peak is
    // its initial fault population and all the peaks coincide at sequence
    // start of the modeled single-engine simulation: the summed per-batch
    // peaks ARE that engine's peak, exactly — not an upper bound. (The
    // scheduler matrix test pins merged == jobs=1; if batches ever gain
    // mid-run fault injection this derivation, and the sum, must change.)
    merged.maxAlive += r.maxAlive;
    merged.finalRecords += r.finalRecords;
    for (std::size_t pi = 0; pi < merged.perPattern.size() &&
                             pi < r.perPattern.size();
         ++pi) {
      PatternStat& row = merged.perPattern[pi];
      const PatternStat& src = r.perPattern[pi];
      row.seconds += src.seconds;
      row.nodeEvals += src.nodeEvals;
      row.newlyDetected += src.newlyDetected;
      row.aliveAfter += src.aliveAfter;
    }
  }
  if (good != nullptr) {
    // Checkpoint-replaying shards do no good-machine solver work; add the
    // recorded good machine's logical evaluations exactly once so the merged
    // work counter equals an unsharded run's.
    merged.finalGoodStates = good->finalGoodStates();
    merged.totalNodeEvals += good->totalGoodEvals();
    if (rows) {
      const std::vector<std::uint64_t> goodEvals = good->goodEvalsPerPattern();
      FMOSSIM_ASSERT(goodEvals.size() == merged.perPattern.size(),
                     "merge: checkpoint recorded a different pattern count");
      for (std::size_t pi = 0; pi < merged.perPattern.size(); ++pi) {
        merged.perPattern[pi].nodeEvals += goodEvals[pi];
      }
    }
  }
  std::uint32_t cumulative = 0;
  for (PatternStat& row : merged.perPattern) {
    cumulative += row.newlyDetected;
    row.cumulativeDetected = cumulative;
  }
  return merged;
}

double ShardedRunner::ensureCheckpoint(PatternSource& source) {
  if (checkpoint_ != nullptr &&
      checkpoint_->seqFingerprint() == source.fingerprint()) {
    return 0.0;
  }
  // Charge the recording time to the run that actually recorded; cache
  // hits (in this runner or a shared store) cost nothing.
  bool recordedNow = false;
  checkpoint_ = store_->acquire(net_, source, fsim_, &recordedNow);
  return recordedNow ? checkpoint_->recordSeconds() : 0.0;
}

sched::BatchPlan ShardedRunner::buildPlan(unsigned effectiveJobs) const {
  std::shared_ptr<const sched::DetectionHistory> hist;
  if (options_.schedule == sched::SchedulePolicy::History) {
    // The in-memory store (fed by prior runs in this process, or by other
    // engines sharing it) wins over the sidecar; the file serves cold
    // starts. Both are keyed on the fault-list fingerprint so stale history
    // from a different universe is never applied.
    if (options_.historyStore != nullptr) {
      hist = options_.historyStore->lookup(faultsFp_);
    }
    if (hist == nullptr && !options_.historyFile.empty()) {
      if (auto fromFile =
              sched::loadHistoryFile(options_.historyFile, faultsFp_)) {
        hist = std::make_shared<sched::DetectionHistory>(std::move(*fromFile));
      }
    }
  }
  return sched::makeSchedule(options_.schedule, std::move(hist))
      ->plan(faults_.size(), effectiveJobs, options_.batchFaults);
}

void ShardedRunner::publishHistory(const FaultSimResult& merged) const {
  if (options_.historyStore != nullptr) {
    options_.historyStore->record(faultsFp_, merged.detectedAtPattern);
  }
  if (!options_.historyFile.empty()) {
    sched::DetectionHistory h;
    h.faultsFingerprint = faultsFp_;
    h.detectedAtPattern = merged.detectedAtPattern;
    // Best-effort: a read-only directory loses persistence, not results.
    sched::saveHistoryFile(options_.historyFile, h);
  }
}

FaultSimResult ShardedRunner::runBatches(const Timer& total,
                                         double recordSeconds, bool rows) {
  // The batch schedule is sized for the workers that will actually run (the
  // pool caps them at the hardware's concurrency), so a 1-core machine does
  // not pay 4 cores' worth of per-batch replay overhead. Results are
  // identical for any worker and batch count.
  const sched::BatchPlan plan = buildPlan(cappedWorkers(jobs_));
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& batches =
      plan.slices;
  std::vector<FaultSimResult> batchResults(batches.size());
  forEachClaimed(batches.size(), jobs_, [&](std::size_t b) {
    const auto [begin, end] = batches[b];
    // Gather the batch's faults through the schedule's permutation (the
    // identity plan takes the straight copy below).
    std::vector<Fault> gathered;
    if (plan.order.empty()) {
      gathered.assign(faults_.all().begin() + begin,
                      faults_.all().begin() + end);
    } else {
      gathered.reserve(end - begin);
      for (std::uint32_t pos = begin; pos < end; ++pos) {
        gathered.push_back(faults_.all()[plan.order[pos]]);
      }
    }
    FaultList batch(std::move(gathered));
    // Every batch replays entirely from the trace: workers never touch the
    // sequence or the source.
    ConcurrentFaultSimulator sim(net_, batch, fsim_, nullptr,
                                 checkpoint_.get());
    std::vector<PatternStat> perPattern;
    if (rows) perPattern.reserve(checkpoint_->numPatterns());
    MaterializingRowSink sink(perPattern);
    batchResults[b] = sim.runReplay(rows ? &sink : nullptr);
    batchResults[b].perPattern = std::move(perPattern);
  });

  FaultSimResult merged = mergeShardResults(
      batchResults, plan.slices, checkpoint_->numPatterns(), checkpoint_.get(),
      plan.order.empty() ? nullptr : &plan.order);
  merged.droppedDetected = fsim_.dropDetected;
  merged.totalSeconds = total.seconds();
  merged.totalCpuSeconds += recordSeconds;
  publishHistory(merged);
  return merged;
}

FaultSimResult ShardedRunner::run(const TestSequence& seq,
                                  const PatternCallback& onPattern) {
  Timer total;
  MaterializedPatternSource source(seq);
  const double recordSeconds = ensureCheckpoint(source);
  FaultSimResult merged = runBatches(total, recordSeconds, /*rows=*/true);
  if (onPattern) {
    for (const PatternStat& st : merged.perPattern) onPattern(st);
  }
  return merged;
}

FaultSimResult ShardedRunner::runStream(PatternSource& source, RowSink* sink,
                                        const PatternCallback& onPattern) {
  Timer total;
  const double recordSeconds = ensureCheckpoint(source);
  FaultSimResult merged = runBatches(total, recordSeconds, /*rows=*/false);
  if (sink != nullptr || onPattern) {
    // Derived rows: triples exact, per-row timing/work zero (see
    // core/row_sink.hpp).
    forEachDerivedRow(merged, [&](std::uint64_t pi, std::uint32_t newly,
                                  std::uint32_t cumulative,
                                  std::uint32_t alive) {
      PatternStat st;
      st.index = static_cast<std::uint32_t>(pi);
      st.newlyDetected = newly;
      st.cumulativeDetected = cumulative;
      st.aliveAfter = alive;
      if (sink != nullptr) sink->row(st);
      if (onPattern) onPattern(st);
    });
  }
  return merged;
}

}  // namespace fmossim
