// perfbench — the repository benchmark harness (see ../README.md).
//
//   perfbench --workload grade_ram256|replay_ram256|serve_mixed
//             --seed N --seconds S --trace 0|1 --serve-rate R
//
// Prints a host line, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics when
// --trace 0, the per-layer metrics when --trace 1, named as in the
// BENCHMARK.json of the working directory (the checkout root). Exits 0 when
// every op was verified, 1 when any failed, 2 on a usage error, a missing
// BENCHMARK.json or a non-Release build.
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/json.hpp"

namespace {

using namespace perfbench;
using namespace fmossim;

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json promises: its "end_to_end" list for untraced
/// runs, its "per_layer" list for traced ones. Every workload prints every
/// listed metric (a traced run walks all three workload loops so that every
/// layer is measured). Throws when the file is missing or malformed.
std::vector<MetricSpec> promisedMetrics(bool trace) {
  std::ifstream in("BENCHMARK.json");
  if (!in) throw std::runtime_error("cannot read BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const serve::JsonValue spec = serve::JsonValue::parse(text.str());
  std::vector<MetricSpec> out;
  for (const serve::JsonValue& m :
       spec.get(trace ? "per_layer" : "end_to_end").items()) {
    out.push_back({m.get("name").asString(), m.get("unit").asString()});
  }
  return out;
}

const char* const kWorkloads[] = {"grade_ram256", "replay_ram256", "serve_mixed"};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "grade_ram256|replay_ram256|serve_mixed --seed N --seconds S "
               "--trace 0|1 --serve-rate R\n",
               msg);
  return 2;
}

/// Refuses builds whose numbers would not mean anything: -O0 and sanitizer
/// builds run 5-20x slower than Release.
bool releaseBuild() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
}

void printHost() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::printf(
      "host: nproc=%d hardware_concurrency=%u compiler=\"%s\" "
      "build_type=%s\n",
      nproc, std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE);
}

Report runWorkload(const RunOptions& o) {
  if (o.workload == "grade_ram256") return runRamWorkload(o, false);
  if (o.workload == "replay_ram256") return runRamWorkload(o, true);
  return runServeWorkload(o);
}

/// The latency a workload's users wait on: op_ms for the closed grading
/// loops, req_p50_ms for the service.
double primaryLatency(const RunOptions& o, const Report& r) {
  const Metric* m = r.find(o.workload == "serve_mixed" ? "req_p50_ms" : "op_ms");
  return m != nullptr ? m->value : 0.0;
}

/// The traced run: the selected workload once untraced (the overhead
/// baseline), then every workload loop traced, half the run time each.
Report runTraced(const RunOptions& options) {
  RunOptions phase = options;
  phase.seconds = options.seconds / 2.0;
  const Report baseline = runWorkload(phase);
  Report out;
  out.attempted = baseline.attempted;
  out.failed = baseline.failed;
  out.errors = baseline.errors;

  Tracer::setEnabled(true);
  double tracedLatency = 0.0;
  for (const char* w : kWorkloads) {
    phase.workload = w;
    const Report r = runWorkload(phase);
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
    for (const Metric& m : r.metrics) {
      if (out.find(m.name) == nullptr) out.metrics.push_back(m);
    }
    if (w == options.workload) tracedLatency = primaryLatency(phase, r);
  }
  Tracer::setEnabled(false);
  out.add("bench.trace_overhead_frac",
          tracedLatency / primaryLatency(options, baseline) - 1.0, "fraction");

  const std::string path = ".bench_build/trace/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (!Tracer::write(path)) {
    out.fail("cannot write trace to " + path);
  } else {
    std::fprintf(stderr, "trace: %s\n", path.c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") { o.trace = value() == "1"; haveTrace = true; }
      else if (a == "--serve-rate") o.serveRate = std::stod(value());
      else if (a == "--tiny") o.tiny = true;
      else if (a == "--expect-checksum") o.expectChecksumOverride = std::stoull(value(), nullptr, 0);
      else if (a == "--corrupt-serve-reference") o.corruptServeReference = true;
      else if (a == "--unreachable-bands") o.unreachableBands = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) return usage("unknown or missing --workload");
  if (!haveTrace || !(o.seconds > 0.0) || !(o.serveRate > 0.0)) {
    return usage("--trace, a positive --seconds and --serve-rate are required");
  }
  printHost();
  if (!releaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; -O0 and "
                 "sanitizer builds run 5-20x slower. Rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release.\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::vector<MetricSpec> specs;
  try {
    specs = promisedMetrics(o.trace);
  } catch (const std::exception& e) {
    return usage(("BENCHMARK.json: " + std::string(e.what())).c_str());
  }

  Report report;
  try {
    report = o.trace ? runTraced(o) : runWorkload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Every promised metric must be there, with its unit.
  std::string json = "{";
  bool complete = true;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const Metric* m = report.find(specs[k].name);
    if (m == nullptr || m->unit != specs[k].unit) {
      std::fprintf(stderr, "perfbench: metric %s missing or mis-united\n",
                   specs[k].name.c_str());
      complete = false;
      continue;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", m->name.c_str(), m->value,
                  m->unit.c_str());
    json += buf;
  }
  json += "}";
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
  const bool correct = complete && report.failed == 0 && report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
