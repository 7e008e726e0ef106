// Wire protocol pieces: JSON value round trips, WorkloadSpec serialization,
// deterministic workload expansion, and the malformed-input error paths the
// daemon turns into protocol error responses.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "patterns/sequence_io.hpp"
#include "serve/json.hpp"

namespace fmossim::serve {
namespace {

TEST(JsonValueTest, RoundTripsScalarsArraysAndObjects) {
  JsonValue obj = JsonValue::makeObject();
  obj.set("b", JsonValue::makeBool(true));
  obj.set("n", JsonValue::makeNumber(12.5));
  obj.set("s", JsonValue::makeString("he said \"hi\"\n"));
  obj.set("u", JsonValue::makeU64(1234567));
  obj.set("hex", JsonValue::makeHexU64(0xdeadbeefcafef00dULL));
  JsonValue arr = JsonValue::makeArray();
  arr.push(JsonValue::makeNumber(1));
  arr.push(JsonValue::makeNull());
  obj.set("a", std::move(arr));

  const JsonValue back = JsonValue::parse(obj.dump());
  EXPECT_TRUE(back.boolOr("b", false));
  EXPECT_DOUBLE_EQ(back.get("n").asNumber(), 12.5);
  EXPECT_EQ(back.get("s").asString(), "he said \"hi\"\n");
  EXPECT_EQ(back.get("u").asU64(), 1234567u);
  EXPECT_EQ(back.get("hex").asHexU64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(back.get("a").items().size(), 2u);
  EXPECT_TRUE(back.get("a").items()[1].isNull());
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse("{"), Error);
  EXPECT_THROW(JsonValue::parse("{} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("{'single':1}"), Error);
  EXPECT_THROW(JsonValue::parse(""), Error);
  // Type-mismatch accessors throw instead of coercing.
  const JsonValue v = JsonValue::parse("{\"x\": \"str\"}");
  EXPECT_THROW(v.get("x").asNumber(), Error);
  EXPECT_THROW(v.get("missing"), Error);
  // Non-exact u64 conversions are refused (precision loss).
  EXPECT_THROW(JsonValue::parse("{\"x\": 1.5}").get("x").asU64(), Error);
  EXPECT_THROW(JsonValue::parse("{\"x\": -2}").get("x").asU64(), Error);
  EXPECT_THROW(JsonValue::parse("{\"x\": 1e19}").get("x").asU64(), Error);
}

TEST(WorkloadSpecTest, GenSpecRoundTripsThroughJson) {
  WorkloadSpec spec;
  spec.circuitSeed = 0xfeedfacecafebeefULL;  // full 64-bit seed must survive
  spec.seqSeed = 0x123456789abcdef1ULL;
  spec.numNodes = 20;
  spec.numFaults = 28;
  spec.jobs = 3;
  spec.policy = DetectionPolicy::AnyDifference;
  spec.dropDetected = false;

  const WorkloadSpec back = WorkloadSpec::fromJson(spec.toJson());
  EXPECT_EQ(back.circuitSeed, spec.circuitSeed);
  EXPECT_EQ(back.seqSeed, spec.seqSeed);
  EXPECT_EQ(back.numNodes, spec.numNodes);
  EXPECT_EQ(back.numInputs, 0u);
  EXPECT_EQ(back.numFaults, spec.numFaults);
  EXPECT_EQ(back.jobs, spec.jobs);
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_FALSE(back.dropDetected);
  EXPECT_FALSE(back.isInline());
}

TEST(WorkloadSpecTest, InlineSpecRoundTripsAndBuilds) {
  WorkloadSpec spec;
  spec.netlist =
      "input in\n"
      "d out Vdd out\n"
      "n in out Gnd\n";
  spec.sequence =
      "outputs out\n"
      "pattern init\n"
      "  set Vdd=1 Gnd=0 in=0\n"
      "pattern p1\n"
      "  set in=1\n";
  spec.faults = "all-node-stuck\n";

  const WorkloadSpec back = WorkloadSpec::fromJson(spec.toJson());
  EXPECT_TRUE(back.isInline());
  EXPECT_EQ(back.netlist, spec.netlist);

  const BuiltWorkload w = buildWorkload(back);
  EXPECT_GT(w.net.numNodes(), 0u);
  EXPECT_FALSE(w.faults.empty());
  EXPECT_EQ(w.seq.size(), 2u);
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(WorkloadSpec::fromJson(
                   JsonValue::parse("{\"kind\": \"mystery\"}")),
               Error);
  EXPECT_THROW(WorkloadSpec::fromJson(
                   JsonValue::parse("{\"policy\": \"maybe\"}")),
               Error);
  EXPECT_THROW(WorkloadSpec::fromJson(JsonValue::parse("{\"jobs\": 0}")),
               Error);
  WorkloadSpec inlineSpec;
  inlineSpec.netlist = "this is not a netlist";
  inlineSpec.sequence = "nor a sequence";
  inlineSpec.faults = "all-node-stuck";
  EXPECT_THROW(buildWorkload(inlineSpec), Error);
}

TEST(WorkloadSpecTest, ExpansionIsDeterministicAcrossEndpoints) {
  WorkloadSpec spec;
  spec.circuitSeed = 7;
  spec.seqSeed = 0x9e3779b97f4a7c15ULL;
  spec.numNodes = 16;
  spec.numPatterns = 10;

  const BuiltWorkload a = buildWorkload(spec);
  const BuiltWorkload b = buildWorkload(WorkloadSpec::fromJson(spec.toJson()));
  EXPECT_EQ(networkFingerprint(a.net), networkFingerprint(b.net));
  EXPECT_EQ(faultListFingerprint(a.faults), faultListFingerprint(b.faults));
  EXPECT_EQ(Engine::sequenceFingerprint(a.seq),
            Engine::sequenceFingerprint(b.seq));
  // writeSequence is content-complete, so equal text means equal sequences.
  EXPECT_EQ(writeSequence(a.net, a.seq), writeSequence(b.net, b.seq));
}

TEST(WorkloadSpecTest, SeqSeedDerivesDistinctSequenceOverSameCircuit) {
  WorkloadSpec base;
  base.circuitSeed = 9;
  base.numNodes = 16;
  WorkloadSpec derived = base;
  derived.seqSeed = 12345;

  const BuiltWorkload a = buildWorkload(base);
  const BuiltWorkload b = buildWorkload(derived);
  EXPECT_EQ(networkFingerprint(a.net), networkFingerprint(b.net));
  EXPECT_NE(Engine::sequenceFingerprint(a.seq),
            Engine::sequenceFingerprint(b.seq));
  EXPECT_EQ(a.seq.size(), b.seq.size());
}

TEST(WorkloadSpecTest, SeuSpecRoundTripsThroughJson) {
  WorkloadSpec spec;
  spec.circuitSeed = 11;
  spec.numNodes = 18;
  spec.numPatterns = 24;
  spec.seuInjections = 12;
  spec.seuSeed = 0xfeedfacecafebeefULL;  // full 64-bit seed must survive
  spec.seuInstants = 3;
  spec.policy = DetectionPolicy::AnyDifference;
  ASSERT_TRUE(spec.isSeu());

  const JsonValue wire = spec.toJson();
  EXPECT_EQ(wire.stringOr("kind", ""), "seu");
  const WorkloadSpec back = WorkloadSpec::fromJson(wire);
  EXPECT_TRUE(back.isSeu());
  EXPECT_EQ(back.circuitSeed, spec.circuitSeed);
  EXPECT_EQ(back.seuInjections, spec.seuInjections);
  EXPECT_EQ(back.seuSeed, spec.seuSeed);
  EXPECT_EQ(back.seuInstants, spec.seuInstants);
  EXPECT_EQ(back.policy, spec.policy);
}

TEST(WorkloadSpecTest, SeuSpecBuildsDeterministicCampaign) {
  WorkloadSpec spec;
  spec.circuitSeed = 11;
  spec.numNodes = 18;
  spec.numPatterns = 24;
  spec.seuInjections = 12;
  spec.seuSeed = 99;
  spec.seuInstants = 3;

  const BuiltWorkload a = buildWorkload(spec);
  EXPECT_TRUE(a.faults.empty());  // campaign replaces the permanent universe
  ASSERT_EQ(a.seuCampaign.size(), 12u);
  const BuiltWorkload b = buildWorkload(WorkloadSpec::fromJson(spec.toJson()));
  ASSERT_EQ(b.seuCampaign.size(), a.seuCampaign.size());
  for (std::size_t i = 0; i < a.seuCampaign.size(); ++i) {
    EXPECT_EQ(a.seuCampaign[i].node, b.seuCampaign[i].node);
    EXPECT_EQ(a.seuCampaign[i].atPattern, b.seuCampaign[i].atPattern);
    EXPECT_EQ(a.seuCampaign[i].pulsePatterns, b.seuCampaign[i].pulsePatterns);
  }
}

TEST(WorkloadSpecTest, RejectsMalformedSeuSpecs) {
  // seu fields without the seu kind.
  EXPECT_THROW(WorkloadSpec::fromJson(JsonValue::parse(
                   "{\"kind\": \"gen\", \"seuInjections\": 4}")),
               Error);
  // seu kind without an injection count.
  EXPECT_THROW(
      WorkloadSpec::fromJson(JsonValue::parse("{\"kind\": \"seu\"}")), Error);
  // stream is incompatible with campaign grading.
  EXPECT_THROW(WorkloadSpec::fromJson(JsonValue::parse(
                   "{\"kind\": \"seu\", \"seuInjections\": 4, "
                   "\"stream\": true}")),
               Error);
}

// Lane width is no longer a workload field. Older clients that still send
// "laneWidth" are served as if the key were absent (it never changed a
// result), and the spec never emits it.
TEST(WorkloadSpecTest, IgnoresTheRetiredLaneWidthKey) {
  JsonValue plain = JsonValue::makeObject();
  plain.set("kind", JsonValue::makeString("gen"));
  plain.set("nodes", JsonValue::makeU64(20));
  plain.set("jobs", JsonValue::makeU64(3));
  const std::string want = WorkloadSpec::fromJson(plain).toJson().dump();
  EXPECT_EQ(want.find("laneWidth"), std::string::npos) << want;
  for (const std::uint64_t width : {32u, 3u}) {
    JsonValue withKey = JsonValue::parse(plain.dump());
    withKey.set("laneWidth", JsonValue::makeU64(width));
    EXPECT_EQ(WorkloadSpec::fromJson(withKey).toJson().dump(), want)
        << "laneWidth " << width;
  }
}

TEST(JobResultTest, RoundTripsThroughJson) {
  JobResult r;
  r.checksum = 0xabcdef0123456789ULL;
  r.numFaults = 32;
  r.numDetected = 17;
  r.nodeEvals = 987654321;
  r.wallSeconds = 0.125;
  r.cpuSeconds = 0.25;
  r.queuedSeconds = 0.01;
  r.latencySeconds = 0.135;
  r.engineReused = true;
  r.backend = "sharded";

  const JobResult back = JobResult::fromJson(
      JsonValue::parse(r.toJson().dump()));
  EXPECT_EQ(back.checksum, r.checksum);
  EXPECT_EQ(back.numFaults, r.numFaults);
  EXPECT_EQ(back.numDetected, r.numDetected);
  EXPECT_EQ(back.nodeEvals, r.nodeEvals);
  EXPECT_DOUBLE_EQ(back.wallSeconds, r.wallSeconds);
  EXPECT_DOUBLE_EQ(back.latencySeconds, r.latencySeconds);
  EXPECT_TRUE(back.engineReused);
  EXPECT_EQ(back.backend, "sharded");
  EXPECT_TRUE(back.error.empty());
}

TEST(WorkloadSpecTest, RejectsU32FieldsPastTheirRangeInsteadOfTruncating) {
  // 2^32 + 16 would truncate to a plausible 16 under a plain cast.
  const std::uint64_t wrapped = 0x100000010ull;
  const auto parseWith = [](const std::string& kind, const std::string& key,
                            std::uint64_t value) {
    JsonValue v = JsonValue::makeObject();
    v.set("kind", JsonValue::makeString(kind));
    if (kind == "seu") v.set("seuInjections", JsonValue::makeU64(4));
    v.set(key, JsonValue::makeU64(value));
    return WorkloadSpec::fromJson(v);
  };
  const std::pair<const char*, const char*> fields[] = {
      {"gen", "nodes"},         {"gen", "inputs"},     {"gen", "faults"},
      {"gen", "jobs"},          {"seu", "seuInjections"},
      {"seu", "seuInstants"}};
  for (const auto& [kind, key] : fields) {
    SCOPED_TRACE(key);
    try {
      parseWith(kind, key, wrapped);
      ADD_FAILURE() << "out-of-range " << key << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
  // In-range values still parse, the u32 maximum included (on a field the
  // admission limits do not bound).
  EXPECT_EQ(parseWith("seu", "seuInstants", 0xffffffffull).seuInstants,
            0xffffffffu);
  EXPECT_EQ(parseWith("gen", "jobs", 16).jobs, 16u);
  EXPECT_EQ(parseWith("seu", "seuInstants", 3).seuInstants, 3u);
}

// Admission limits: a generated spec past a server-side size limit is a
// protocol error at parse time (before buildWorkload could allocate it),
// naming the field; the limit itself is admitted.
JsonValue genSpec(const std::string& kind) {
  JsonValue v = JsonValue::makeObject();
  v.set("kind", JsonValue::makeString(kind));
  if (kind == "seu") v.set("seuInjections", JsonValue::makeU64(4));
  return v;
}

void expectRefused(const JsonValue& v, const std::string& field) {
  try {
    WorkloadSpec::fromJson(v);
    ADD_FAILURE() << field << " past its limit was admitted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(field), std::string::npos) << what;
    EXPECT_NE(what.find("server limit"), std::string::npos) << what;
  }
}

TEST(WorkloadAdmissionTest, RefusesNodesPastTheLimit) {
  for (const char* kind : {"gen", "seu"}) {
    JsonValue v = genSpec(kind);
    v.set("nodes", JsonValue::makeU64(kMaxWorkloadNodes));
    EXPECT_EQ(WorkloadSpec::fromJson(v).numNodes, kMaxWorkloadNodes);
    v.set("nodes", JsonValue::makeU64(kMaxWorkloadNodes + 1ull));
    expectRefused(v, "nodes");
  }
}

TEST(WorkloadAdmissionTest, RefusesFaultsPastTheLimit) {
  JsonValue v = genSpec("gen");
  v.set("faults", JsonValue::makeU64(kMaxWorkloadFaults));
  EXPECT_EQ(WorkloadSpec::fromJson(v).numFaults, kMaxWorkloadFaults);
  v.set("faults", JsonValue::makeU64(0xffffffffull));
  expectRefused(v, "faults");
}

TEST(WorkloadAdmissionTest, RefusesSeuInjectionsPastTheLimit) {
  JsonValue v = genSpec("seu");
  v.set("seuInjections", JsonValue::makeU64(kMaxSeuInjections));
  EXPECT_EQ(WorkloadSpec::fromJson(v).seuInjections, kMaxSeuInjections);
  v.set("seuInjections", JsonValue::makeU64(kMaxSeuInjections + 1ull));
  expectRefused(v, "seuInjections");
}

TEST(WorkloadAdmissionTest, RefusesPatternsTimesInputsPastTheLimit) {
  for (const char* kind : {"gen", "seu"}) {
    JsonValue v = genSpec(kind);
    v.set("inputs", JsonValue::makeU64(16));
    v.set("patterns", JsonValue::makeU64(kMaxPatternInputs / 16));
    EXPECT_NO_THROW(WorkloadSpec::fromJson(v));
    v.set("patterns", JsonValue::makeU64(kMaxPatternInputs / 16 + 1));
    expectRefused(v, "patterns x inputs");
    // Generator-default inputs count too: the seed's default input count
    // (at least three) times kMaxPatternInputs patterns is refused.
    JsonValue bare = genSpec(kind);
    bare.set("patterns", JsonValue::makeU64(kMaxPatternInputs));
    expectRefused(bare, "patterns x inputs");
  }
  // A streamed sequence is never materialized, so only its own 64-bit count
  // bounds it.
  JsonValue stream = genSpec("gen");
  stream.set("stream", JsonValue::makeBool(true));
  stream.set("patterns", JsonValue::makeU64(std::uint64_t{1} << 40));
  EXPECT_NO_THROW(WorkloadSpec::fromJson(stream));
}

}  // namespace
}  // namespace fmossim::serve
