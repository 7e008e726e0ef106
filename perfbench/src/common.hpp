// Shared pieces of the repository benchmark harness: run options, the
// metric report every workload fills, percentile helpers, process clocks and
// the span tracer that times the harness's calls into the library's modules.
//
// The tracer lives here, in the harness, on purpose: the library itself is
// not instrumented. Every span wraps one call the harness makes into a
// module (circuits, faults, patterns, switch, core, sched, api, gen, serve),
// so a traced run attributes wall time to layers without touching src/.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs (RAM64 instead of RAM256, a short serve schedule) for the
  /// harness self-test; never used for reported numbers.
  bool tiny = false;
  /// Offered request rate of the serve workload, requests per second. It
  /// has no default: BENCHMARK.json's command is the one place it is set.
  double serveRate = 0.0;
  /// Self-test hooks: replace the pinned grading checksum, corrupt one
  /// serve reference, or make every serve tenant's work band empty, so the
  /// test can check that each is reported as a failed op.
  std::uint64_t expectChecksumOverride = 0;
  bool corruptServeReference = false;
  bool unreachableBands = false;
};

/// One named metric as printed in the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: operation counts, metrics and the first few
/// verification failures (for the human-readable log).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit);
  /// Counts one failed op and keeps its message (the first few only).
  void fail(const std::string& message);
  /// Looks a metric up by name (nullptr when absent).
  const Metric* find(const std::string& name) const;
};

// ------------------------------------------------------------- statistics --

/// Median of a sample (0 for an empty sample).
double median(std::vector<double> sample);

/// The tail percentile the report may claim for a sample of `n`: the
/// highest percentile, capped at `cap`, that still has at least ten samples
/// beyond it — and never below the median (samples of 20 or fewer report
/// p50).
double tailPercentile(std::size_t n, double cap = 95.0);

/// Nearest-rank percentile `p` (0..100) of a sample.
double percentile(std::vector<double> sample, double p);

// ----------------------------------------------------------------- clocks --

/// Monotonic seconds since an arbitrary process-wide origin.
double nowSeconds();
/// CPU seconds consumed by the whole process (every thread).
double processCpuSeconds();
/// Peak resident set size of the process so far, MiB.
double peakRssMiB();

// ------------------------------------------------------------ host quiet --
//
// On a virtual machine that shares its host, the hypervisor now and then
// runs other guests on this guest's CPUs ("steal" time). A stolen interval
// stalls every thread hand-off and every op running through it, so the
// timing metrics are taken over the quiet part of a run: the set-up passes,
// ops or serve windows during which the guest's steal was at most the
// kQuietPercentile-th percentile of the run's. What is quiet is judged from
// the guest's steal counter alone, never from the measured times, and every
// op is still run and verified.

/// Steal time of the whole guest so far, in kernel clock ticks (the
/// "steal" column of /proc/stat); negative when it cannot be read.
double hostStealTicks();

/// The share of a run's samples, by steal, that count as quiet.
constexpr double kQuietPercentile = 25.0;

/// For each sample's steal (ticks over the sample's interval), whether it
/// is quiet: at most the kQuietPercentile-th percentile of all samples'
/// steal. Every sample is quiet when any steal value is negative
/// (unreadable).
std::vector<bool> quietSamples(const std::vector<double>& steal);

/// Steal ticks since `start`, a hostStealTicks() reading (negative when
/// either reading failed).
double stealSince(double start);

/// The values whose samples are quiet, by quietSamples(steal).
std::vector<double> quietValues(const std::vector<double>& values,
                                const std::vector<double>& steal);

// ----------------------------------------------------------------- tracer --

/// One recorded span. `parent` is the index of the enclosing span (-1 for a
/// root); `requestId` ties the spans of one serve request together.
struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< nowSeconds() at entry
  double end = 0.0;    ///< nowSeconds() at exit
  std::int64_t parent = -1;
  std::uint64_t requestId = 0;
  std::uint32_t thread = 0;  ///< small per-thread ordinal
};

/// In-memory span recorder; disabled (every call a no-op) unless a traced
/// run switched it on. Thread-safe.
class Tracer {
 public:
  static void setEnabled(bool on);
  static bool enabled();
  /// Opens a span on this thread, parented to the thread's innermost open
  /// span. Returns its index, -1 when disabled.
  static std::int64_t open(const std::string& name, std::uint64_t requestId = 0);
  static void close(std::int64_t id);
  /// Records an already-finished span with an explicit parent.
  static std::int64_t record(const std::string& name, double start, double end,
                             std::int64_t parent, std::uint64_t requestId = 0);
  /// Number of spans recorded so far (a phase's starting mark).
  static std::size_t count();
  /// Durations in ms of every closed span with this name, among the spans
  /// recorded at or after index `from`.
  static std::vector<double> durationsMs(const std::string& name,
                                         std::size_t from = 0);
  /// Writes every span plus a per-name summary (count, total and self time)
  /// as JSON to `path`; self time is a span's duration minus the part of it
  /// its child spans cover. Returns false when the file cannot be written.
  static bool write(const std::string& path);
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  explicit Span(const std::string& name, std::uint64_t requestId = 0)
      : id_(Tracer::open(name, requestId)) {}
  ~Span() { Tracer::close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
};

// -------------------------------------------------------------- workloads --

/// The paper's RAM grading workloads: one op is a full fault-grading run.
/// `replay` selects jobs=2 checkpoint replay against a shared store.
Report runRamWorkload(const RunOptions& options, bool replay);

/// The open-loop mixed-tenant service workload.
Report runServeWorkload(const RunOptions& options);

/// setup_s is the median of the quiet ones among repeated set-up passes: at
/// least kMinSetupPasses of them, and more until kMinSetupSeconds have gone
/// by. A grade set-up pass takes milliseconds, so a few passes alone would
/// mostly measure page faults; sized by time, it gets hundreds. The grading
/// workloads spread their passes through the timed loop; serve runs its
/// passes (each restarts the daemon) before the loop.
constexpr std::size_t kMinSetupPasses = 7;
constexpr double kMinSetupSeconds = 3.0;

/// Whether another set-up pass is due after `passes` passes that began
/// `elapsed` seconds ago.
inline bool moreSetupPasses(std::size_t passes, double elapsed) {
  return passes < kMinSetupPasses || elapsed < kMinSetupSeconds;
}

}  // namespace perfbench
