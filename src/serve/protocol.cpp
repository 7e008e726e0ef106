#include "serve/protocol.hpp"

#include "faults/fault_spec.hpp"
#include "gen/random_circuit.hpp"
#include "gen/transient_gen.hpp"
#include "netlist/sim_format.hpp"
#include "patterns/sequence_io.hpp"
#include "util/rng.hpp"

namespace fmossim::serve {

namespace {

// A u32 workload field: values past 2^32 - 1 are refused, never truncated
// (a silently wrapped count would run a different workload than asked).
std::uint32_t u32Field(const JsonValue& v, const char* key,
                       std::uint32_t fallback) {
  const std::uint64_t x = v.u64Or(key, fallback);
  if (x > 0xffffffffull) {
    throw Error(std::string("workload: ") + key +
                " out of range (max 4294967295)");
  }
  return static_cast<std::uint32_t>(x);
}

// The generator options a gen or seu spec expands to: the seed's randomized
// defaults with the spec's non-zero pins applied.
GenOptions genOptionsFor(const WorkloadSpec& spec) {
  GenOptions gen = GenOptions::randomized(spec.circuitSeed);
  if (spec.numNodes != 0) gen.numNodes = spec.numNodes;
  if (spec.numInputs != 0) gen.numInputs = spec.numInputs;
  if (spec.numFaults != 0) gen.numFaults = spec.numFaults;
  if (spec.numPatterns != 0) gen.numPatterns = spec.numPatterns;
  return gen;
}

// Refuses a generated spec past the server's admission limits (see
// protocol.hpp), judged on the sizes it would expand to.
void checkAdmission(const WorkloadSpec& spec) {
  const GenOptions gen = genOptionsFor(spec);
  const auto refuse = [](const char* what, std::uint64_t max) {
    throw Error(std::string("workload: ") + what +
                " exceeds the server limit (max " + std::to_string(max) + ")");
  };
  if (gen.numNodes > kMaxWorkloadNodes) refuse("nodes", kMaxWorkloadNodes);
  if (gen.numFaults > kMaxWorkloadFaults) refuse("faults", kMaxWorkloadFaults);
  if (spec.seuInjections > kMaxSeuInjections) {
    refuse("seuInjections", kMaxSeuInjections);
  }
  // Both factors are below 2^32 here, so the product cannot overflow.
  if (!spec.stream && gen.numPatterns * gen.numInputs > kMaxPatternInputs) {
    refuse("patterns x inputs", kMaxPatternInputs);
  }
}

// Derives a fresh random test sequence over a generated circuit's data
// inputs: pattern 0 (the generator's power-on/init pattern, which drives
// Vdd/Gnd and every input to a known state) is kept verbatim, later patterns
// are re-drawn from seqSeed. Deterministic, so the server and the verifying
// loadgen client derive the same sequence from the same spec.
TestSequence deriveSequence(const GeneratedWorkload& w, std::uint64_t seqSeed) {
  if (w.dataInputs.empty() || w.seq.empty()) return w.seq;
  TestSequence seq;
  seq.setOutputs(w.seq.outputs());
  seq.addPattern(w.seq[0]);
  Rng rng(seqSeed ^ 0xa0761d6478bd642fULL);
  const std::uint32_t patterns = w.seq.size();
  for (std::uint32_t i = 1; i < patterns; ++i) {
    Pattern p;
    p.label = "d" + std::to_string(i);
    InputSetting setting;
    const std::size_t assignments =
        1 + rng.below(std::min<std::size_t>(3, w.dataInputs.size()));
    for (std::size_t a = 0; a < assignments; ++a) {
      const NodeId input = w.dataInputs[rng.below(w.dataInputs.size())];
      // Mostly driven values; an occasional X keeps the derived sequences in
      // the same scenario space as the generator's own.
      const State s = rng.below(20) == 0
                          ? State::SX
                          : (rng.below(2) == 0 ? State::S0 : State::S1);
      setting.set(input, s);
    }
    p.settings.push_back(std::move(setting));
    seq.addPattern(std::move(p));
  }
  return seq;
}

// Seeds are full-range 64-bit values (derived seqSeeds are FNV hashes), so
// they travel as 0x-hex strings like checksums; plain JSON numbers are
// accepted from hand-written clients when they fit a double exactly.
std::uint64_t seedFrom(const JsonValue& v, const char* key,
                       std::uint64_t fallback) {
  const JsonValue* f = v.find(key);
  if (f == nullptr) return fallback;
  return f->type() == JsonValue::Type::String ? f->asHexU64() : f->asU64();
}

}  // namespace

JsonValue WorkloadSpec::toJson() const {
  JsonValue v = JsonValue::makeObject();
  if (isInline()) {
    v.set("kind", JsonValue::makeString("inline"));
    v.set("netlist", JsonValue::makeString(netlist));
    v.set("sequence", JsonValue::makeString(sequence));
    v.set("faults", JsonValue::makeString(faults));
  } else {
    v.set("kind", JsonValue::makeString(isSeu() ? "seu" : "gen"));
    v.set("circuitSeed", JsonValue::makeHexU64(circuitSeed));
    if (seqSeed != 0) v.set("seqSeed", JsonValue::makeHexU64(seqSeed));
    if (numNodes != 0) v.set("nodes", JsonValue::makeU64(numNodes));
    if (numInputs != 0) v.set("inputs", JsonValue::makeU64(numInputs));
    if (numFaults != 0) v.set("faults", JsonValue::makeU64(numFaults));
    if (numPatterns != 0) v.set("patterns", JsonValue::makeU64(numPatterns));
    if (stream) v.set("stream", JsonValue::makeBool(true));
    if (isSeu()) {
      v.set("seuInjections", JsonValue::makeU64(seuInjections));
      v.set("seuSeed", JsonValue::makeHexU64(seuSeed));
      if (seuInstants != 0) {
        v.set("seuInstants", JsonValue::makeU64(seuInstants));
      }
    }
  }
  v.set("jobs", JsonValue::makeU64(jobs));
  // Additive: only non-default policies hit the wire, so requests to and
  // from older endpoints stay byte-compatible.
  if (schedule != sched::SchedulePolicy::Contiguous) {
    v.set("schedule",
          JsonValue::makeString(sched::schedulePolicyName(schedule)));
  }
  v.set("policy", JsonValue::makeString(
                      policy == DetectionPolicy::AnyDifference ? "any"
                                                               : "definite"));
  v.set("dropDetected", JsonValue::makeBool(dropDetected));
  return v;
}

WorkloadSpec WorkloadSpec::fromJson(const JsonValue& v) {
  WorkloadSpec spec;
  const std::string kind = v.stringOr("kind", "gen");
  if (kind == "inline") {
    spec.netlist = v.get("netlist").asString();
    spec.sequence = v.get("sequence").asString();
    spec.faults = v.get("faults").asString();
    if (spec.netlist.empty()) throw Error("workload: empty inline netlist");
  } else if (kind == "gen" || kind == "seu") {
    spec.circuitSeed = seedFrom(v, "circuitSeed", 1);
    spec.seqSeed = seedFrom(v, "seqSeed", 0);
    spec.numNodes = u32Field(v, "nodes", 0);
    spec.numInputs = u32Field(v, "inputs", 0);
    spec.numFaults = u32Field(v, "faults", 0);
    spec.numPatterns = v.u64Or("patterns", 0);
    spec.stream = v.boolOr("stream", false);
    if (spec.stream && spec.seqSeed != 0) {
      throw Error("workload: stream is incompatible with seqSeed (derived "
                  "sequences are materialized)");
    }
    if (!spec.stream && spec.numPatterns > 0xffffffffull) {
      throw Error("workload: more than 2^32 patterns requires stream=true");
    }
    if (kind == "seu") {
      spec.seuInjections = u32Field(v, "seuInjections", 0);
      if (spec.seuInjections == 0) {
        throw Error("workload: seu kind requires seuInjections >= 1");
      }
      spec.seuSeed = seedFrom(v, "seuSeed", 1);
      spec.seuInstants = u32Field(v, "seuInstants", 0);
      if (spec.stream) {
        throw Error("workload: seu is incompatible with stream (campaign "
                    "grading needs a materialized sequence)");
      }
    } else if (v.find("seuInjections") != nullptr ||
               v.find("seuSeed") != nullptr ||
               v.find("seuInstants") != nullptr) {
      throw Error("workload: seu fields require kind \"seu\"");
    }
    checkAdmission(spec);
  } else {
    throw Error("workload: unknown kind '" + kind +
                "' (want gen, seu or inline)");
  }
  spec.jobs = u32Field(v, "jobs", 2);
  if (spec.jobs == 0) throw Error("workload: jobs must be >= 1");
  const std::string schedule = v.stringOr("schedule", "contiguous");
  if (const auto parsed = sched::parseSchedulePolicy(schedule)) {
    spec.schedule = *parsed;
  } else {
    throw Error("workload: unknown schedule '" + schedule +
                "' (want contiguous or history)");
  }
  const std::string policy = v.stringOr("policy", "definite");
  if (policy == "any") spec.policy = DetectionPolicy::AnyDifference;
  else if (policy == "definite") spec.policy = DetectionPolicy::DefiniteOnly;
  else throw Error("workload: unknown policy '" + policy + "'");
  spec.dropDetected = v.boolOr("dropDetected", true);
  return spec;
}

BuiltWorkload buildWorkload(const WorkloadSpec& spec) {
  BuiltWorkload out;
  if (spec.isInline()) {
    out.net = parseSimNetlist(spec.netlist);
    out.seq = parseSequence(out.net, spec.sequence);
    out.faults = parseFaultSpec(out.net, spec.faults);
  } else {
    const GenOptions gen = genOptionsFor(spec);
    if (spec.stream) {
      if (spec.seqSeed != 0) {
        throw Error("workload: stream is incompatible with seqSeed (derived "
                    "sequences are materialized)");
      }
      GeneratedStreamWorkload w = generateWorkloadStream(gen);
      out.streamConfig = std::move(w.seqConfig);
      out.net = std::move(w.net);
      out.faults = std::move(w.faults);
    } else {
      if (gen.numPatterns > 0xffffffffull) {
        throw Error("workload: more than 2^32 patterns requires stream=true");
      }
      GeneratedWorkload w = generateWorkload(gen);
      out.seq = spec.seqSeed == 0 ? w.seq : deriveSequence(w, spec.seqSeed);
      out.net = std::move(w.net);
      out.faults = std::move(w.faults);
    }
    if (spec.isSeu()) {
      // SEU kind grades a transient campaign, not the permanent universe:
      // the generated FaultList is discarded and the campaign takes its
      // place. Generation is deterministic in (circuit, seed, knobs), so the
      // verifying client can rebuild the exact campaign.
      out.faults = FaultList{};
      SeuGenOptions g;
      g.seed = spec.seuSeed;
      g.numInjections = spec.seuInjections;
      g.numPatterns = out.seq.size();
      g.maxInstants = spec.seuInstants;
      out.seuCampaign = generateSeuCampaign(out.net, g);
    }
  }
  if (out.faults.empty() && out.seuCampaign.empty()) {
    throw Error("workload: empty fault list");
  }
  if (out.seq.empty() && !out.streamConfig.has_value()) {
    throw Error("workload: empty test sequence");
  }
  return out;
}

EngineOptions specEngineOptions(const WorkloadSpec& spec) {
  EngineOptions opts;
  opts.backend = Backend::Concurrent;
  opts.jobs = spec.jobs;
  opts.schedule = spec.schedule;
  opts.policy = spec.policy;
  opts.dropDetected = spec.dropDetected;
  return opts;
}

const char* jobStatusName(JobStatus s) {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Done: return "done";
    case JobStatus::Failed: return "failed";
    case JobStatus::Cancelled: return "cancelled";
  }
  return "?";
}

JsonValue JobResult::toJson() const {
  JsonValue v = JsonValue::makeObject();
  v.set("checksum", JsonValue::makeHexU64(checksum));
  v.set("numFaults", JsonValue::makeU64(numFaults));
  v.set("numDetected", JsonValue::makeU64(numDetected));
  v.set("nodeEvals", JsonValue::makeU64(nodeEvals));
  v.set("wallSeconds", JsonValue::makeNumber(wallSeconds));
  v.set("cpuSeconds", JsonValue::makeNumber(cpuSeconds));
  v.set("queuedSeconds", JsonValue::makeNumber(queuedSeconds));
  v.set("latencySeconds", JsonValue::makeNumber(latencySeconds));
  v.set("engineReused", JsonValue::makeBool(engineReused));
  v.set("backend", JsonValue::makeString(backend));
  if (!error.empty()) v.set("error", JsonValue::makeString(error));
  return v;
}

JobResult JobResult::fromJson(const JsonValue& v) {
  JobResult r;
  if (const JsonValue* c = v.find("checksum")) r.checksum = c->asHexU64();
  r.numFaults = static_cast<std::uint32_t>(v.u64Or("numFaults", 0));
  r.numDetected = static_cast<std::uint32_t>(v.u64Or("numDetected", 0));
  r.nodeEvals = v.u64Or("nodeEvals", 0);
  r.wallSeconds = v.numberOr("wallSeconds", 0.0);
  r.cpuSeconds = v.numberOr("cpuSeconds", 0.0);
  r.queuedSeconds = v.numberOr("queuedSeconds", 0.0);
  r.latencySeconds = v.numberOr("latencySeconds", 0.0);
  r.engineReused = v.boolOr("engineReused", false);
  r.backend = v.stringOr("backend", "");
  r.error = v.stringOr("error", "");
  return r;
}

}  // namespace fmossim::serve
