/// \file
/// Streaming per-pattern row consumption: the hot-path alternative to the
/// materialized FaultSimResult::perPattern vector.
///
/// A streaming run (ConcurrentFaultSimulator over a PatternSource, or a
/// sharded streamed merge) does not materialize per-pattern rows; it pushes
/// each row through a RowSink as it completes and leaves perPattern empty,
/// recording only numPatterns/droppedDetected on the result. Row-derived
/// aggregates stay exact because every row triple is fully derivable from
/// the detection record: newlyDetected is the number of faults first
/// detected at that pattern, cumulativeDetected the running sum, and
/// aliveAfter == droppedDetected ? numFaults - cumulative : numFaults — an
/// invariant every backend maintains (early-exit tails included, where
/// cumulative has reached its final value so the derived aliveAfter is 0).
///
/// Two sinks cover both worlds:
///   * MaterializingRowSink — collects rows into a vector; the engine's
///     materialized run() fills FaultSimResult::perPattern through it.
///   * AggregatingRowSink — O(1) state per pattern: running detection
///     counts, an alive curve decimated into a bounded reservoir, and an
///     incrementally folded row checksum.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace fmossim {

struct PatternStat;
struct FaultSimResult;

/// Consumer of per-pattern rows from a streaming run, called in pattern
/// order exactly once per pattern.
class RowSink {
 public:
  /// Sinks are used through base pointers.
  virtual ~RowSink() = default;
  /// Consumes the row of one pattern.
  virtual void row(const PatternStat& st) = 0;
};

/// Collects every row into an external vector (opt-in materialization).
class MaterializingRowSink final : public RowSink {
 public:
  /// Appends every row to `out` (must outlive the sink).
  explicit MaterializingRowSink(std::vector<PatternStat>& out) : out_(&out) {}
  /// Appends the row.
  void row(const PatternStat& st) override;

 private:
  std::vector<PatternStat>* out_;
};

/// Aggregates rows on the fly with memory bounded by the reservoir
/// capacity, independent of sequence length.
class AggregatingRowSink final : public RowSink {
 public:
  /// One sample of the decimated alive curve.
  struct AlivePoint {
    std::uint64_t index = 0;       ///< pattern index
    std::uint32_t aliveAfter = 0;  ///< live faulty circuits after it
  };

  /// `aliveCurveCapacity` bounds the decimated alive-curve reservoir; must
  /// be at least 2. When the reservoir fills, the sampling stride doubles
  /// and existing points are re-decimated, so the curve always spans the
  /// whole run at uniform stride.
  explicit AggregatingRowSink(std::size_t aliveCurveCapacity = 1024);

  /// Folds the row into the running aggregates.
  void row(const PatternStat& st) override;

  /// Rows seen.
  std::uint64_t patterns() const { return patterns_; }
  /// Sum of newlyDetected over every row.
  std::uint64_t totalNewlyDetected() const { return totalNewly_; }
  /// cumulativeDetected of the last row.
  std::uint32_t finalCumulativeDetected() const { return finalCumulative_; }
  /// aliveAfter of the last row.
  std::uint32_t finalAliveAfter() const { return finalAlive_; }
  /// FNV-1a fold of (newlyDetected, cumulativeDetected, aliveAfter) in row
  /// order — the same triples perf::resultChecksum folds for the
  /// perPattern segment, so two streaming runs can be compared row-exactly
  /// without materializing either.
  std::uint64_t rowChecksum() const { return rowChecksum_; }
  /// Current sampling stride of the alive curve, in patterns.
  std::uint64_t aliveCurveStride() const { return stride_; }
  /// The decimated alive curve, in pattern order.
  const std::vector<AlivePoint>& aliveCurve() const { return curve_; }

 private:
  std::uint64_t patterns_ = 0;
  std::uint64_t totalNewly_ = 0;
  std::uint32_t finalCumulative_ = 0;
  std::uint32_t finalAlive_ = 0;
  std::uint64_t rowChecksum_;
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::vector<AlivePoint> curve_;
};

/// Derives the per-pattern row triples of a rowless (streaming) result from
/// its detection record and calls `fn(index, newly, cumulative, alive)` for
/// every pattern in order. Exact: matches what a materialized run of the
/// same workload would have recorded (see header comment).
void forEachDerivedRow(
    const FaultSimResult& res,
    const std::function<void(std::uint64_t, std::uint32_t, std::uint32_t,
                             std::uint32_t)>& fn);

/// Materializes perPattern rows for a rowless streaming result (timing and
/// work-counter fields zeroed — only the row triples are derivable). No-op
/// when the result already has rows. Used by tests and the diff-oracle hook
/// to compare streamed results field by field against materialized ones.
void derivePerPattern(FaultSimResult& res);

}  // namespace fmossim
