#include "api/sharded_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "api/engine.hpp"
#include "core/row_sink.hpp"
#include "patterns/pattern_source.hpp"
#include "util/timer.hpp"

namespace fmossim {

ShardedRunner::ShardedRunner(const Network& net, FaultList faults,
                             FsimOptions options, unsigned jobs,
                             std::uint32_t batchFaults,
                             std::shared_ptr<CheckpointStore> store,
                             std::size_t checkpointBudgetBytes,
                             sched::SchedulePolicy schedule,
                             std::shared_ptr<sched::HistoryStore> history,
                             std::string historyFile)
    : net_(net),
      faults_(std::move(faults)),
      options_(options),
      batchFaults_(batchFaults),
      store_(std::move(store)),
      ownsStore_(store_ == nullptr),
      schedule_(schedule),
      history_(std::move(history)),
      historyFile_(std::move(historyFile)),
      faultsFp_(faultListFingerprint(faults_)) {
  jobs_ = std::max(1u, std::min(jobs, std::max(1u, faults_.size())));
  if (ownsStore_) {
    CheckpointStore::Options sopts;
    sopts.budgetBytes = checkpointBudgetBytes;
    store_ = std::make_shared<CheckpointStore>(sopts);
  }
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> ShardedRunner::makeBatches(
    std::uint32_t numFaults, unsigned jobs, std::uint32_t batchFaults,
    std::uint32_t laneWidth) {
  return sched::contiguousBatches(numFaults, jobs, batchFaults, laneWidth);
}

FaultSimResult mergeShardResults(
    const std::vector<FaultSimResult>& shardResults,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& slices,
    std::uint32_t numPatterns, const GoodMachineCheckpoint* good,
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

  merged.perPattern.resize(numPatterns);
  for (std::uint32_t pi = 0; pi < numPatterns; ++pi) {
    merged.perPattern[pi].index = pi;
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
    for (std::uint32_t pi = 0; pi < numPatterns && pi < r.perPattern.size();
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
    const auto& goodEvals = good->perPatternGoodEvals();
    for (std::uint32_t pi = 0; pi < numPatterns && pi < goodEvals.size();
         ++pi) {
      merged.perPattern[pi].nodeEvals += goodEvals[pi];
    }
  }
  std::uint32_t cumulative = 0;
  for (PatternStat& row : merged.perPattern) {
    cumulative += row.newlyDetected;
    row.cumulativeDetected = cumulative;
  }
  return merged;
}

double ShardedRunner::ensureCheckpoint(const TestSequence& seq,
                                       std::uint64_t seqFingerprint) {
  if (checkpoint_ != nullptr && checkpoint_->seqFingerprint() == seqFingerprint) {
    return 0.0;
  }
  // Charge the recording time to the run that actually recorded; cache
  // hits (in this runner or a shared store) cost nothing.
  bool recordedNow = false;
  checkpoint_ =
      store_->acquire(net_, seq, seqFingerprint, options_, &recordedNow);
  return recordedNow ? checkpoint_->recordSeconds() : 0.0;
}

sched::BatchPlan ShardedRunner::buildPlan(unsigned effectiveJobs) const {
  std::shared_ptr<const sched::DetectionHistory> hist;
  if (schedule_ == sched::SchedulePolicy::History) {
    // The in-memory store (fed by prior runs in this process, or by other
    // engines sharing it) wins over the sidecar; the file serves cold
    // starts. Both are keyed on the fault-list fingerprint so stale history
    // from a different universe is never applied.
    if (history_ != nullptr) hist = history_->lookup(faultsFp_);
    if (hist == nullptr && !historyFile_.empty()) {
      if (auto fromFile = sched::loadHistoryFile(historyFile_, faultsFp_)) {
        hist = std::make_shared<sched::DetectionHistory>(std::move(*fromFile));
      }
    }
  }
  return sched::makeSchedule(schedule_, std::move(hist))
      ->plan(faults_.size(), effectiveJobs, batchFaults_, options_.laneWidth);
}

void ShardedRunner::publishHistory(const FaultSimResult& merged) const {
  if (history_ == nullptr && historyFile_.empty()) return;
  if (history_ != nullptr) {
    history_->record(faultsFp_, merged.detectedAtPattern);
  }
  if (!historyFile_.empty()) {
    sched::DetectionHistory h;
    h.faultsFingerprint = faultsFp_;
    h.detectedAtPattern = merged.detectedAtPattern;
    // Best-effort: a read-only directory loses persistence, not results.
    sched::saveHistoryFile(historyFile_, h);
  }
}

std::vector<FaultSimResult> ShardedRunner::runReplayBatches(
    const sched::BatchPlan& plan,
    const std::function<FaultSimResult(ConcurrentFaultSimulator&)>& runOne) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& batches =
      plan.slices;
  std::vector<FaultSimResult> batchResults(batches.size());
  std::atomic<std::uint32_t> nextBatch{0};
  const auto worker = [&]() {
    for (;;) {
      const std::uint32_t b =
          nextBatch.fetch_add(1, std::memory_order_relaxed);
      if (b >= batches.size()) return;
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
      FsimOptions batchOptions = options_;
      if (b < plan.hintWindows.size()) {
        batchOptions.shareHintWindows = plan.hintWindows[b];
      }
      ConcurrentFaultSimulator sim(net_, batch, batchOptions, nullptr,
                                   checkpoint_.get());
      batchResults[b] = runOne(sim);
    }
  };

  // More threads than cores only adds contention (the batch queue already
  // decouples batch count from worker count), so the effective worker count
  // is capped at the hardware's concurrency. Results are identical for any
  // worker and batch count.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min<std::size_t>(
      std::min(jobs_, hw), std::max<std::size_t>(1, batches.size()));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          worker();
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  return batchResults;
}

FaultSimResult ShardedRunner::run(const TestSequence& seq,
                                  const PatternCallback& onPattern) {
  Timer total;
  // Hashed once: the store lookup and every batch engine's checkpoint check
  // reuse it.
  const std::uint64_t seqFp = GoodMachineCheckpoint::fingerprint(seq);
  const double recordSeconds = ensureCheckpoint(seq, seqFp);
  // The batch schedule is sized for the workers that will actually run (see
  // runReplayBatches' hardware cap), so a 1-core machine does not pay 4
  // cores' worth of per-batch replay overhead.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned effective = std::min(jobs_, hw);
  const sched::BatchPlan plan = buildPlan(effective);

  const std::vector<FaultSimResult> batchResults = runReplayBatches(
      plan, [&seq, seqFp](ConcurrentFaultSimulator& sim) {
        return sim.run(seq, seqFp);
      });

  FaultSimResult merged =
      mergeShardResults(batchResults, plan.slices, seq.size(),
                        checkpoint_.get(),
                        plan.order.empty() ? nullptr : &plan.order);
  merged.droppedDetected = options_.dropDetected;
  merged.totalSeconds = total.seconds();
  merged.totalCpuSeconds += recordSeconds;
  publishHistory(merged);
  if (onPattern) {
    for (const PatternStat& st : merged.perPattern) onPattern(st);
  }
  return merged;
}

double ShardedRunner::ensureCheckpointStream(PatternSource& source) {
  const std::uint64_t fp = source.fingerprint();
  if (checkpoint_ != nullptr && checkpoint_->streamed() &&
      checkpoint_->seqFingerprint() == fp) {
    return 0.0;
  }
  bool recordedNow = false;
  checkpoint_ = store_->acquireStream(net_, source, options_, &recordedNow);
  return recordedNow ? checkpoint_->recordSeconds() : 0.0;
}

FaultSimResult ShardedRunner::runStream(PatternSource& source, RowSink* sink,
                                        const PatternCallback& onPattern) {
  Timer total;
  const double recordSeconds = ensureCheckpointStream(source);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned effective = std::min(jobs_, hw);
  const sched::BatchPlan plan = buildPlan(effective);

  // Workers replay entirely from the trace — the source was consumed once by
  // the recording and is never touched again.
  const std::vector<FaultSimResult> batchResults = runReplayBatches(
      plan, [](ConcurrentFaultSimulator& sim) { return sim.runReplay(); });

  // Rowless merge: the materialized merge's per-pattern row summing (and its
  // perPatternGoodEvals add-back, which streamed recordings do not carry) is
  // skipped; everything else matches mergeShardResults.
  FaultSimResult merged;
  merged.numFaults = faults_.size();
  merged.numPatterns = checkpoint_->numPatterns();
  merged.droppedDetected = options_.dropDetected;
  merged.detectedAtPattern.assign(merged.numFaults, -1);
  for (std::size_t b = 0; b < batchResults.size(); ++b) {
    const FaultSimResult& r = batchResults[b];
    const auto [begin, end] = plan.slices[b];
    for (std::uint32_t i = 0; i < end - begin; ++i) {
      merged.detectedAtPattern[plan.globalIndex(begin + i)] =
          r.detectedAtPattern[i];
    }
    merged.numDetected += r.numDetected;
    merged.potentialDetections += r.potentialDetections;
    merged.totalNodeEvals += r.totalNodeEvals;
    merged.totalCpuSeconds += r.totalCpuSeconds;
    merged.maxAlive += r.maxAlive;
    merged.finalRecords += r.finalRecords;
  }
  merged.finalGoodStates = checkpoint_->finalGoodStates();
  merged.totalNodeEvals += checkpoint_->totalGoodEvals();
  merged.totalSeconds = total.seconds();
  merged.totalCpuSeconds += recordSeconds;
  publishHistory(merged);
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
