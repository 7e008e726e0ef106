#include "sched/fault_schedule.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace fmossim::sched {

const char* schedulePolicyName(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::Contiguous: return "contiguous";
    case SchedulePolicy::History: return "history";
  }
  return "unknown";
}

std::optional<SchedulePolicy> parseSchedulePolicy(const std::string& text) {
  if (text == "contiguous") return SchedulePolicy::Contiguous;
  if (text == "history") return SchedulePolicy::History;
  return std::nullopt;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> contiguousBatches(
    std::uint32_t numFaults, unsigned jobs, std::uint32_t batchFaults) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> batches;
  if (numFaults == 0) return batches;
  jobs = std::max(1u, jobs);
  // Auto schedule: ~4 batches per worker of at least 32 faults each, but
  // never a batch larger than one worker's share, ceil(n / jobs). Per-fault
  // cost is wildly non-uniform under dropping (a batch whose faults all drop
  // early exits almost immediately; one undetected fault keeps its batch
  // running the whole sequence), so the queue needs several times more
  // batches than workers for stealing to level the load — measured on
  // RAM256, this schedule more than halves the critical path vs.
  // one-slice-per-worker at a few percent of added total work. The 32-fault
  // floor keeps per-batch checkpoint-replay overhead amortized; the
  // one-share cap keeps a small job (32 faults at jobs = 2) from collapsing
  // into a single batch that runs on one thread.
  const std::uint64_t n = numFaults;
  const std::uint64_t perWorker = (n + jobs - 1) / jobs;
  const std::uint64_t quarterShare = (n + 4ull * jobs - 1) / (4ull * jobs);
  const std::uint32_t size =
      batchFaults > 0
          ? batchFaults
          : static_cast<std::uint32_t>(std::max<std::uint64_t>(
                quarterShare, std::min<std::uint64_t>(32, perWorker)));
  std::uint32_t begin = 0;
  while (begin < numFaults) {
    // min before adding: begin + size may not fit in 32 bits.
    const std::uint32_t end = begin + std::min(size, numFaults - begin);
    batches.emplace_back(begin, end);
    begin = end;
  }
  return batches;
}

BatchPlan ContiguousSchedule::plan(std::uint32_t numFaults, unsigned jobs,
                                   std::uint32_t batchFaults) const {
  BatchPlan p;  // empty order = identity
  p.slices = contiguousBatches(numFaults, jobs, batchFaults);
  return p;
}

namespace {

/// Sort key: detection pattern index, with undetected (-1) past every real
/// index — the most expensive faults land together at the end of the order.
std::int64_t detectionKey(const DetectionHistory& h, std::uint32_t fault) {
  const std::int32_t d = h.detectedAtPattern[fault];
  return d < 0 ? std::numeric_limits<std::int64_t>::max() : d;
}

}  // namespace

BatchPlan HistorySchedule::plan(std::uint32_t numFaults, unsigned jobs,
                                std::uint32_t batchFaults) const {
  // History is advisory: none recorded (first run), or recorded for a
  // different universe size (the fingerprint gate upstream should prevent
  // this, but a size check keeps the plan safe regardless) — contiguous.
  if (history_ == nullptr ||
      history_->detectedAtPattern.size() != numFaults) {
    return ContiguousSchedule().plan(numFaults, jobs, batchFaults);
  }
  BatchPlan p;
  p.order.resize(numFaults);
  std::iota(p.order.begin(), p.order.end(), 0u);
  // Stable sort keeps the plan a pure function of the history (ties resolve
  // in global fault order), so concurrent workers always see one layout.
  const DetectionHistory& h = *history_;
  std::stable_sort(p.order.begin(), p.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return detectionKey(h, a) < detectionKey(h, b);
                   });
  p.slices = contiguousBatches(numFaults, jobs, batchFaults);
  // Claim order: the sorted layout puts early-detected (cheap) batches
  // first, so reverse — the expensive tail batches are claimed first and
  // cheap batches fill the stealing queue behind them, the classic
  // longest-job-first makespan move.
  std::reverse(p.slices.begin(), p.slices.end());
  return p;
}

std::unique_ptr<FaultSchedule> makeSchedule(
    SchedulePolicy policy, std::shared_ptr<const DetectionHistory> history) {
  switch (policy) {
    case SchedulePolicy::Contiguous:
      return std::make_unique<ContiguousSchedule>();
    case SchedulePolicy::History:
      return std::make_unique<HistorySchedule>(std::move(history));
  }
  return std::make_unique<ContiguousSchedule>();
}

}  // namespace fmossim::sched
