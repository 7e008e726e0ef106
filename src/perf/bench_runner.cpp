#include "perf/bench_runner.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <thread>

#include "core/row_sink.hpp"
#include "seu/seu_campaign.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace fmossim::perf {

namespace {

/// Shortest timed repetition of an SEU row (see the SEU row loop).
constexpr double kMinSeuRepSeconds = 0.05;

/// Median + sample stddev of the measured repetitions, into the row.
void fillTiming(BenchRow& row, const std::vector<double>& ms) {
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  row.medianMs = sorted[sorted.size() / 2];
  if (sorted.size() % 2 == 0) {
    row.medianMs = 0.5 * (row.medianMs + sorted[sorted.size() / 2 - 1]);
  }
  double mean = 0.0;
  for (const double v : ms) mean += v;
  mean /= double(ms.size());
  double var = 0.0;
  for (const double v : ms) var += (v - mean) * (v - mean);
  row.stddevMs = ms.size() > 1 ? std::sqrt(var / double(ms.size() - 1)) : 0.0;
}

}  // namespace

void fillHostInfo(ScenarioResult& r) {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    r.hostTimestamp = format("%04d-%02d-%02dT%02d:%02d:%02dZ",
                             utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday,
                             utc.tm_hour, utc.tm_min, utc.tm_sec);
  }
  r.hostHardwareConcurrency = std::thread::hardware_concurrency();
#ifdef NDEBUG
  r.hostBuildType = "release";
#else
  r.hostBuildType = "debug";
#endif
}

std::uint64_t resultChecksum(const FaultSimResult& res) {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, res.numFaults);
  fnvMix(h, res.numDetected);
  fnvMix(h, res.potentialDetections);
  for (const std::int32_t at : res.detectedAtPattern) {
    fnvMix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(at)));
  }
  if (res.perPattern.empty() && res.numPatterns > 0) {
    // Rowless streaming result: fold the derived triples, which are exactly
    // what a materialized run would have recorded (see core/row_sink.hpp) —
    // streamed and materialized checksums therefore compare equal.
    forEachDerivedRow(res, [&](std::uint64_t, std::uint32_t newly,
                               std::uint32_t cumulative, std::uint32_t alive) {
      fnvMix(h, newly);
      fnvMix(h, cumulative);
      fnvMix(h, alive);
    });
  } else {
    for (const PatternStat& st : res.perPattern) {
      fnvMix(h, st.newlyDetected);
      fnvMix(h, st.cumulativeDetected);
      fnvMix(h, st.aliveAfter);
    }
  }
  for (const State s : res.finalGoodStates) {
    fnvMix(h, static_cast<std::uint64_t>(s));
  }
  return h;
}

std::uint64_t rowNodeEvalsDigest(const FaultSimResult& res) {
  if (res.perPattern.empty()) return 0;
  std::uint64_t h = kFnvOffsetBasis;
  for (const PatternStat& st : res.perPattern) fnvMix(h, st.nodeEvals);
  return h;
}

BenchRunner::BenchRunner(BenchConfig config) : config_(std::move(config)) {}

std::vector<std::string> BenchRunner::selectedScenarios() const {
  if (config_.only.empty()) return scenarioNames();
  for (const std::string& name : config_.only) {
    if (!isScenario(name)) {
      throw Error("unknown benchmark scenario '" + name +
                  "' (run `fmossim_cli bench --list`)");
    }
  }
  // Honor registry order regardless of filter order, and drop duplicates, so
  // scenario selection is deterministic for any --scenario flag spelling.
  std::vector<std::string> out;
  for (const std::string& name : scenarioNames()) {
    if (std::find(config_.only.begin(), config_.only.end(), name) !=
        config_.only.end()) {
      out.push_back(name);
    }
  }
  return out;
}

ScenarioResult BenchRunner::runScenario(const std::string& name) const {
  return runScenario(name, nullptr);
}

ScenarioResult BenchRunner::runScenario(
    const std::string& name,
    const std::function<void(const ScenarioResult&, const BenchRow&)>& onRow)
    const {
  const Workload w = buildScenarioWorkload(name);
  ScenarioResult sr;
  sr.scenario = w.scenario;
  sr.description = w.description;
  sr.transistors = w.net.numTransistors();
  sr.nodes = w.net.numNodes();
  sr.faults = w.faults.size();
  sr.patterns = w.streamConfig
                    ? static_cast<std::uint32_t>(w.streamConfig->numPatterns)
                    : w.seq.size();

  const unsigned warmup = config_.effectiveWarmup();
  const unsigned reps = std::max(1u, config_.effectiveReps());

  // One checkpoint store per scenario, shared by every row: the good
  // machine is recorded once and the sharded-2/sharded-4 rows (plus all
  // their warmups and repetitions) replay the same trace. The store's
  // recording counter lands in the JSON so the sharing is auditable.
  CheckpointStore::Options storeOpts;
  storeOpts.budgetBytes =
      config_.checkpointBudget.value_or(w.checkpointBudgetBytes);
  auto store = std::make_shared<CheckpointStore>(storeOpts);
  sr.checkpointBudget = storeOpts.budgetBytes;
  // One detection-history store per scenario, also shared by every row: the
  // contiguous sharded rows record per-fault detection outcomes, and the
  // history-schedule rows later in the matrix are laid out by that record —
  // the same cross-row seeding a service deployment gets from its pool.
  auto history = std::make_shared<sched::HistoryStore>();

  // SEU grading scenarios measure runSeuCampaign per row instead of
  // Engine::run: the replay rows share this scenario store's single
  // good-machine recording, the naive row ignores the store entirely, and
  // every row's checksum is the campaign checksum — so the CLI's
  // cross-backend bit-identity pass gates replay == naive on every run.
  if (!w.seuCampaign.empty()) {
    // The replay rows share one good-machine recording. Take it before any
    // timed window, so no row's first repetition pays for it (with no
    // warmup that first repetition would otherwise be the recording).
    if (std::any_of(w.rows.begin(), w.rows.end(),
                    [](const RowSpec& r) { return !r.seuNaive; })) {
      FsimOptions recordOpts;
      recordOpts.sim = seu::CampaignOptions{}.sim;
      store->acquire(w.net, w.seq, recordOpts);
    }
    for (const RowSpec& spec : w.rows) {
      seu::CampaignOptions campaignOpts;
      campaignOpts.jobs = spec.jobs;
      campaignOpts.policy = spec.policy;
      campaignOpts.naive = spec.seuNaive;
      campaignOpts.store = store;

      BenchRow row;
      row.backend = spec.seuLabel();
      row.jobs = spec.jobs;
      row.policy =
          spec.policy == DetectionPolicy::AnyDifference ? "any" : "definite";
      row.dropDetected = spec.dropDetected;
      row.reps = reps;

      const auto runOnce = [&]() {
        return runSeuCampaign(w.net, w.seq, w.seuCampaign, campaignOpts);
      };
      for (unsigned i = 0; i < warmup; ++i) runOnce();

      // A replay campaign is a few short tail engines, so one scheduler
      // hiccup would double a single campaign's time: a repetition runs
      // campaigns back to back until it lasts kMinSeuRepSeconds and
      // reports the time per campaign.
      std::vector<double> ms;
      ms.reserve(reps);
      for (unsigned i = 0; i < reps; ++i) {
        Timer t;
        const seu::CampaignResult res = runOnce();
        unsigned campaigns = 1;
        for (; t.seconds() < kMinSeuRepSeconds; ++campaigns) runOnce();
        ms.push_back(t.seconds() * 1e3 / campaigns);
        if (i == 0) {
          row.checksum = res.checksum();
          row.nodeEvals = res.totalNodeEvals;
          row.numDetected = res.numDetected;
          row.numFaults =
              static_cast<std::uint32_t>(res.injections.size());
          if (!sr.seu.has_value()) {
            SeuSummary summary;
            summary.injections =
                static_cast<std::uint32_t>(res.injections.size());
            summary.instants = res.numGroups;
            summary.detected = res.numDetected;
            summary.silent = res.numSilent;
            summary.latent = res.numLatent;
            sr.seu = summary;
          }
        }
      }
      fillTiming(row, ms);
      sr.rows.push_back(std::move(row));
      if (onRow) onRow(sr, sr.rows.back());
    }
    sr.checkpointRecordings =
        static_cast<std::uint32_t>(store->recordings());
    sr.checkpointResidentBytes = store->memoryBytes();
    fillHostInfo(sr);
    return sr;
  }

  for (const RowSpec& spec : w.rows) {
    EngineOptions engineOpts = spec.engineOptions();
    engineOpts.checkpointStore = store;
    engineOpts.historyStore = history;
    Engine engine(w.net, w.faults, engineOpts);

    BenchRow row;
    row.backend = spec.label();
    row.jobs = spec.jobs;
    row.policy =
        spec.policy == DetectionPolicy::AnyDifference ? "any" : "definite";
    row.dropDetected = spec.dropDetected;
    row.streamed = w.streamConfig.has_value();
    row.schedule = sched::schedulePolicyName(spec.schedule);
    row.reps = reps;

    // Streaming scenarios pull every run from one rewindable source (the
    // engine rewinds it per call); the source's fingerprint cache also keeps
    // the store-key pass from re-streaming per repetition.
    std::optional<GeneratedPatternSource> source;
    if (w.streamConfig) source.emplace(*w.streamConfig);
    const auto runOnce = [&]() {
      return source ? engine.runStream(*source) : engine.run(w.seq);
    };

    for (unsigned i = 0; i < warmup; ++i) runOnce();

    std::vector<double> ms;
    ms.reserve(reps);
    for (unsigned i = 0; i < reps; ++i) {
      // Time the complete repeatable run (fresh session per call), including
      // engine construction and the initial settle — the cost a user pays.
      Timer t;
      const FaultSimResult res = runOnce();
      ms.push_back(t.seconds() * 1e3);
      if (i == 0) {
        row.checksum = resultChecksum(res);
        row.nodeEvals = res.totalNodeEvals;
        row.rowNodeEvalsDigest = rowNodeEvalsDigest(res);
        row.numDetected = res.numDetected;
        row.numFaults = res.numFaults;
      }
    }
    fillTiming(row, ms);
    sr.rows.push_back(std::move(row));
    if (onRow) onRow(sr, sr.rows.back());
  }
  sr.checkpointRecordings =
      static_cast<std::uint32_t>(store->recordings());
  sr.checkpointResidentBytes = store->memoryBytes();
  fillHostInfo(sr);
  return sr;
}

std::vector<ScenarioResult> BenchRunner::runAll(
    const std::function<void(const ScenarioResult&, const BenchRow&)>& onRow)
    const {
  std::vector<ScenarioResult> out;
  for (const std::string& name : selectedScenarios()) {
    out.push_back(runScenario(name, onRow));
  }
  return out;
}

}  // namespace fmossim::perf
