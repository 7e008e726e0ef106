// Wire-level request/result vocabulary for fault-simulation-as-a-service.
//
// The daemon (src/serve/server.hpp) speaks newline-delimited JSON over a
// Unix-domain socket. This header defines the pieces both endpoints share:
//
//   * WorkloadSpec — what a `submit` request asks to simulate. Three kinds:
//     "gen" (the seeded random workload space of src/gen/random_circuit.hpp,
//     so a spec is a few integers on the wire and both endpoints can rebuild
//     the workload bit-identically — the loadgen harness verifies every
//     service response against a direct Engine run this way), "inline"
//     (netlist/sequence/faults as the text formats the CLI already reads,
//     the shape a real remote tenant submits), and "seu" (a seeded
//     transient-fault grading campaign over a gen circuit, executed through
//     src/seu/ checkpoint-replay against the daemon's shared store).
//   * buildWorkload() — the deterministic spec -> (Network, FaultList,
//     TestSequence) expansion both the server and the verifying client use.
//   * JobStatus / JobResult — the lifecycle and payload a job publishes.
//
// Verbs (one request object per line, one response object per line):
//   {"verb":"submit","workload":{...}}        -> {"ok":true,"id":N,"status":"queued"}
//   {"verb":"status","id":N}                  -> {"ok":true,"id":N,"status":...}
//   {"verb":"result","id":N}                  -> blocks, then adds "result":{...}
//   {"verb":"cancel","id":N}                  -> {"ok":true,"id":N,"status":...}
//   {"verb":"stats"}                          -> {"ok":true,"stats":{...}}
//   {"verb":"shutdown"}                       -> {"ok":true,"shutdown":true}
// Any failure: {"ok":false,"error":"..."}; docs/SERVICE.md documents fields.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/engine.hpp"
#include "faults/transient.hpp"
#include "patterns/pattern_source.hpp"  // GeneratedSequenceConfig
#include "serve/json.hpp"

namespace fmossim::serve {

/// Server-side admission limits on generated (gen and seu) workloads,
/// checked by WorkloadSpec::fromJson before anything is built: a spec past
/// any of them is a protocol error, so a hostile or mistaken request cannot
/// make the daemon allocate an arbitrarily large circuit, fault universe,
/// campaign or materialized sequence. Streamed sequences are generated on the
/// fly and are not bounded by kMaxPatternInputs.
inline constexpr std::uint32_t kMaxWorkloadNodes = 1u << 16;
inline constexpr std::uint32_t kMaxWorkloadFaults = 1u << 16;
inline constexpr std::uint32_t kMaxSeuInjections = 1u << 16;
/// Materialized patterns x inputs (the size of a generated sequence).
inline constexpr std::uint64_t kMaxPatternInputs = std::uint64_t{1} << 24;

/// One submittable simulation request; see the file comment for the two
/// workload kinds. Engine knobs ride along so tenants control parallelism
/// and detection policy per request.
struct WorkloadSpec {
  /// Generated kind: seed for GenOptions (non-zero pins below override the
  /// generator's defaults so client and server agree on exact sizes).
  std::uint64_t circuitSeed = 1;
  /// 0 keeps the generator's own test sequence; non-zero derives a different
  /// random sequence over the same circuit's inputs (the "K sequences per
  /// circuit" axis of mixed-tenant traffic).
  std::uint64_t seqSeed = 0;
  std::uint32_t numNodes = 0;   ///< 0 = generator default
  std::uint32_t numInputs = 0;  ///< 0 = generator default
  std::uint32_t numFaults = 0;  ///< 0 = generator default
  /// 0 = generator default. 64-bit: streamed gen workloads (stream=true)
  /// accept counts past a materializable sequence's 2^32 patterns.
  std::uint64_t numPatterns = 0;
  /// Gen kind only: expand the workload's sequence as a pattern *source*
  /// (GeneratedSequenceConfig) instead of materializing it — the server runs
  /// the job through Engine::runStream with flat resident memory, so
  /// unbounded numPatterns stays serviceable. Incompatible with seqSeed
  /// (derived sequences are materialized by construction) and with the
  /// inline kind.
  bool stream = false;

  /// Inline kind: non-empty netlist selects it; the three texts are the
  /// formats of sim_format.hpp, sequence_io.hpp and fault_spec.hpp.
  std::string netlist;
  std::string sequence;
  std::string faults;

  /// SEU kind (> 0 selects it, with the gen circuit knobs above): grade a
  /// generated transient campaign of this many injections instead of a
  /// permanent fault universe. Executed via src/seu/ runSeuCampaign on the
  /// daemon — replay tails against the shared checkpoint store, never naive.
  /// Incompatible with stream (campaign grading needs a materialized
  /// sequence) and with the inline kind. `dropDetected` is ignored
  /// (campaigns always drop detected machines).
  std::uint32_t seuInjections = 0;
  std::uint64_t seuSeed = 1;  ///< campaign generation seed
  /// Cluster the campaign onto at most this many distinct instants
  /// (0 = unclustered); see gen/transient_gen.hpp.
  std::uint32_t seuInstants = 0;

  unsigned jobs = 2;  ///< per-request parallelism (>1 engages the sharded
                      ///< runner and with it the shared checkpoint store)
  /// Batch-layout policy (EngineOptions::schedule). "history" schedules on
  /// the pool's per-tenant detection history (recorded by this tenant's own
  /// earlier requests; contiguous until one exists). Results are
  /// bit-identical for every policy. Additive wire field: emitted only when
  /// non-default, so old endpoints interoperate.
  sched::SchedulePolicy schedule = sched::SchedulePolicy::Contiguous;
  DetectionPolicy policy = DetectionPolicy::DefiniteOnly;
  bool dropDetected = true;

  bool isInline() const { return !netlist.empty(); }
  bool isSeu() const { return !isInline() && seuInjections > 0; }

  JsonValue toJson() const;
  /// Throws Error on malformed specs (unknown kind, bad policy string) and
  /// on generated specs past the admission limits above.
  static WorkloadSpec fromJson(const JsonValue& v);
};

/// A fully expanded workload, ready for Engine construction. For streamed
/// specs (WorkloadSpec::stream) `seq` stays empty and `streamConfig` carries
/// the pattern source; run it via Engine::runStream over a
/// GeneratedPatternSource.
struct BuiltWorkload {
  Network net;
  FaultList faults;
  TestSequence seq;
  std::optional<GeneratedSequenceConfig> streamConfig;
  /// SEU kind only: the generated transient campaign (`faults` stays
  /// empty); run it via seu::runSeuCampaign.
  TransientList seuCampaign;
};

/// Expands a spec deterministically: equal specs produce bit-identical
/// workloads on every endpoint (the property the loadgen verifier and the
/// checkpoint store's fingerprint keying both rest on). Throws Error on
/// invalid inline texts or empty expansion results.
BuiltWorkload buildWorkload(const WorkloadSpec& spec);

/// EngineOptions equivalent of a spec's engine knobs (checkpoint store left
/// unset; the pool attaches its shared store).
EngineOptions specEngineOptions(const WorkloadSpec& spec);

/// Job lifecycle. Queued -> Running -> Done|Failed; Cancelled can replace
/// Queued (immediately) or Running (at the next cancellation point).
enum class JobStatus : std::uint8_t { Queued, Running, Done, Failed, Cancelled };

/// Stable wire name ("queued", "running", "done", "failed", "cancelled").
const char* jobStatusName(JobStatus s);

/// What a finished job publishes. For Failed jobs only `error` is
/// meaningful; for Cancelled jobs all fields are empty.
struct JobResult {
  std::uint64_t checksum = 0;  ///< perf::resultChecksum of the simulation
  std::uint32_t numFaults = 0;
  std::uint32_t numDetected = 0;
  std::uint64_t nodeEvals = 0;     ///< deterministic work counter
  double wallSeconds = 0.0;        ///< execution wall clock (run only)
  double cpuSeconds = 0.0;         ///< summed engine time (sharded > wall)
  double queuedSeconds = 0.0;      ///< time spent waiting in the queue
  double latencySeconds = 0.0;     ///< submit -> done, the served latency
  bool engineReused = false;       ///< pool served a live matching engine
  std::string backend;             ///< "concurrent", "sharded", ...
  std::string error;               ///< Failed only

  JsonValue toJson() const;
  static JobResult fromJson(const JsonValue& v);
};

}  // namespace fmossim::serve
