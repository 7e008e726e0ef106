#include "api/engine.hpp"

#include "api/sharded_runner.hpp"
#include "core/row_sink.hpp"
#include "patterns/pattern_source.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace fmossim {

std::uint64_t faultListFingerprint(const FaultList& faults) {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, faults.size());
  for (const Fault& f : faults) {
    fnvMix(h, static_cast<std::uint64_t>(f.kind));
    fnvMix(h, f.node.value);
    fnvMix(h, f.transistor.value);
    fnvMix(h, static_cast<std::uint64_t>(f.value));
  }
  return h;
}

FsimOptions fsimOptions(const EngineOptions& options) {
  FsimOptions fopts;
  fopts.sim = options.sim;
  fopts.policy = options.policy;
  fopts.dropDetected = options.dropDetected;
  fopts.debugLoseTriggerEvery = options.debugLoseTriggerEvery;
  return fopts;
}

namespace {

SerialOptions serialOptions(const EngineOptions& options) {
  SerialOptions sopts;
  sopts.sim = options.sim;
  sopts.policy = options.policy;
  return sopts;
}

/// Lifts a SerialRunResult into the shared FaultSimResult shape: per-pattern
/// detection counts, per-pattern cost rows, coverage and potential (X)
/// detections are populated exactly like the concurrent engine's, so CSV
/// output and the stats recorder work identically for both. `dropDetected`
/// only affects aliveAfter (the serial replay always stops a fault at first
/// detection).
FaultSimResult toFaultSimResult(const SerialRunResult& serial,
                                std::uint32_t numPatterns,
                                bool dropDetected) {
  FaultSimResult res;
  res.numFaults = static_cast<std::uint32_t>(serial.detectedAtPattern.size());
  res.numPatterns = numPatterns;
  res.droppedDetected = dropDetected;
  res.detectedAtPattern = serial.detectedAtPattern;
  res.numDetected = serial.numDetected;
  res.potentialDetections = serial.potentialDetections;
  // The totals include the good-circuit reference run (the concurrent engine
  // likewise simulates the good circuit as part of its run).
  res.totalSeconds = serial.good.totalSeconds + serial.faultSeconds;
  // Single-threaded replay: aggregate engine time is the wall clock.
  res.totalCpuSeconds = res.totalSeconds;
  res.totalNodeEvals = serial.good.totalNodeEvals + serial.faultNodeEvals;
  res.finalGoodStates = serial.good.finalStates;
  // Row semantics ("faults still being simulated after this pattern") map
  // onto the undetected-so-far count when dropping, or the full fault count
  // otherwise — matching the concurrent engine's aliveAfter in both modes.
  std::vector<std::uint32_t> newlyAt(numPatterns, 0);
  for (const std::int32_t at : serial.detectedAtPattern) {
    if (at >= 0 && static_cast<std::uint32_t>(at) < numPatterns) {
      ++newlyAt[at];
    }
  }
  res.perPattern.reserve(numPatterns);
  std::uint32_t cumulative = 0;
  for (std::uint32_t pi = 0; pi < numPatterns; ++pi) {
    PatternStat st;
    st.index = pi;
    st.seconds =
        pi < serial.patternSeconds.size() ? serial.patternSeconds[pi] : 0.0;
    st.nodeEvals =
        pi < serial.patternNodeEvals.size() ? serial.patternNodeEvals[pi] : 0;
    st.newlyDetected = newlyAt[pi];
    cumulative += newlyAt[pi];
    st.cumulativeDetected = cumulative;
    st.aliveAfter = dropDetected ? res.numFaults - cumulative : res.numFaults;
    res.perPattern.push_back(st);
  }
  // The serial replay holds exactly one faulty circuit live at a time.
  res.maxAlive = res.numFaults == 0 ? 0 : 1;
  return res;
}

}  // namespace

Engine::Engine(Network net, FaultList faults, EngineOptions options)
    : net_(std::move(net)),
      faults_(std::move(faults)),
      options_(std::move(options)) {
  rebuild();
}

Engine::~Engine() = default;

void Engine::rebuild() {
  sharded_.reset();
  if (options_.backend == Backend::Concurrent && options_.jobs > 1 &&
      faults_.size() > 1) {
    sharded_ = std::make_unique<ShardedRunner>(net_, faults_, options_);
  }
}

const char* Engine::backendName() const {
  if (options_.backend == Backend::Serial) return "serial";
  return sharded_ != nullptr ? "sharded" : "concurrent";
}

FaultSimResult Engine::run(const TestSequence& seq,
                           const PatternCallback& onPattern) {
  if (sharded_ != nullptr) return sharded_->run(seq, onPattern);
  if (options_.backend == Backend::Concurrent) {
    // The core engine is single-shot; a fresh instance per call makes run()
    // repeatable.
    ConcurrentFaultSimulator sim(net_, faults_, fsimOptions(options_));
    return sim.run(seq, onPattern);
  }
  SerialFaultSimulator sim(net_, serialOptions(options_));
  const FaultSimResult res = toFaultSimResult(
      sim.run(seq, faults_), seq.size(), options_.dropDetected);
  if (onPattern) {
    // Serial simulation iterates fault-major, so rows only exist after the
    // whole run; deliver them in pattern order like the sharded runner does.
    for (const PatternStat& st : res.perPattern) onPattern(st);
  }
  return res;
}

FaultSimResult Engine::runStream(PatternSource& source, RowSink* sink,
                                 const PatternCallback& onPattern) {
  if (sharded_ != nullptr) return sharded_->runStream(source, sink, onPattern);
  source.rewind();
  if (options_.backend == Backend::Concurrent) {
    ConcurrentFaultSimulator sim(net_, faults_, fsimOptions(options_));
    return sim.run(source, sink, onPattern);
  }
  // The serial replay has no streaming path: expand the source into a
  // TestSequence and run that. Correct for any source, but resident memory
  // is O(sequence length) — the million-pattern path is the concurrent one.
  FMOSSIM_ASSERT(source.numPatterns() <= 0xffffffffull,
                 "source exceeds a materializable sequence's 2^32 patterns");
  TestSequence seq;
  for (const NodeId n : source.outputs()) seq.addOutput(n);
  Pattern p;
  while (source.next(p)) seq.addPattern(Pattern(p));
  const FaultSimResult res = run(seq, onPattern);
  if (sink != nullptr) {
    for (const PatternStat& st : res.perPattern) sink->row(st);
  }
  return res;
}

void Engine::reset() {
  if (sharded_ != nullptr) sharded_->reset();
}

void Engine::rebind(Network net, FaultList faults) {
  net_ = std::move(net);
  faults_ = std::move(faults);
  netFp_.reset();
  faultsFp_.reset();
  rebuild();
}

void Engine::rebind(Network net, FaultList faults, EngineOptions options) {
  options_ = std::move(options);
  rebind(std::move(net), std::move(faults));
}

std::uint64_t Engine::netFingerprint() const {
  if (!netFp_) netFp_ = networkFingerprint(net_);
  return *netFp_;
}

std::uint64_t Engine::faultsFingerprint() const {
  if (!faultsFp_) faultsFp_ = faultListFingerprint(faults_);
  return *faultsFp_;
}

std::uint64_t Engine::sequenceFingerprint(const TestSequence& seq) {
  return GoodMachineCheckpoint::fingerprint(seq);
}

GoodRunResult Engine::runGood(const TestSequence& seq) const {
  SerialFaultSimulator serial(net_, serialOptions(options_));
  return serial.runGood(seq);
}

}  // namespace fmossim
