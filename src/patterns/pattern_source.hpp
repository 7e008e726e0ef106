// Pull-based pattern streams: the hot-path alternative to a materialized
// TestSequence.
//
// A PatternSource hands out one Pattern at a time, so a million-pattern
// campaign never holds the whole sequence in memory: the checkpoint recorder
// consumes the source once while recording the good-machine trace, workers
// replay from the trace, and the only per-pattern state alive at any moment
// is the pattern currently being applied. Three implementations:
//
//   * MaterializedPatternSource — adapts an existing TestSequence (the
//     compatibility path; every materialized run can be expressed through
//     it, which is what the bit-identity property tests exploit).
//   * GeneratedPatternSource — replays the seeded-random sequence rule of
//     gen/random_circuit.cpp from an Rng snapshot. generateWorkload()
//     materializes its sequence through this class, so the streamed and
//     materialized generator paths are identical by construction.
//   * FilePatternSource — streams the sequence text format from disk via
//     SequenceStreamReader (patterns/sequence_io.hpp) without ever holding
//     more than one pattern.
//
// Sources are single-consumer but rewindable: rewind() restarts the stream
// from the first pattern (generated sources restore the Rng snapshot, file
// sources reopen). numPatterns() is known up front — the sequence
// fingerprint folds the pattern count first, so a source that could not
// announce its length could not be fingerprinted compatibly with
// GoodMachineCheckpoint::fingerprint().
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "patterns/pattern.hpp"
#include "patterns/sequence_io.hpp"
#include "util/rng.hpp"

namespace fmossim {

/// Abstract pull-based pattern stream. Contract: next() fills `out` and
/// returns true exactly numPatterns() times between rewinds; outputs() and
/// numPatterns() are stable across the stream's lifetime.
class PatternSource {
 public:
  virtual ~PatternSource() = default;

  /// Observed output nodes (the equivalent of TestSequence::outputs()).
  virtual const std::vector<NodeId>& outputs() const = 0;

  /// Total number of patterns the stream yields. Known up front even for
  /// generated/file-backed streams (see header comment).
  virtual std::uint64_t numPatterns() const = 0;

  /// Fills `out` with the next pattern. Returns false when the stream is
  /// exhausted. `out` may be reused by the caller across calls; sources
  /// overwrite it completely.
  virtual bool next(Pattern& out) = 0;

  /// Restarts the stream from the first pattern.
  virtual void rewind() = 0;

  /// Sequence fingerprint (FNV-1a over the count, then per-pattern
  /// structure, then outputs) — the one fold every sequence key uses;
  /// GoodMachineCheckpoint::fingerprint() of a TestSequence is this over
  /// its MaterializedPatternSource. Computed on first call and cached, so
  /// calling it mid-consumption is an error.
  std::uint64_t fingerprint();

 protected:
  /// Folds every pattern's structure into `h`, in stream order. The default
  /// streams the source once, rewinding before and after.
  virtual void foldPatterns(std::uint64_t& h);

 private:
  std::optional<std::uint64_t> fingerprint_;
};

/// Adapts a materialized TestSequence (not owned; must outlive the source).
class MaterializedPatternSource final : public PatternSource {
 public:
  explicit MaterializedPatternSource(const TestSequence& seq) : seq_(&seq) {}

  const std::vector<NodeId>& outputs() const override {
    return seq_->outputs();
  }
  std::uint64_t numPatterns() const override { return seq_->size(); }
  bool next(Pattern& out) override;
  void rewind() override { next_ = 0; }

 protected:
  /// Folds the sequence in place, without copying a pattern out.
  void foldPatterns(std::uint64_t& h) override;

 private:
  const TestSequence* seq_;
  std::uint32_t next_ = 0;
};

/// Everything the generator's sequence rule depends on, captured after the
/// structural/fault/output sampling draws so the Rng snapshot sits exactly
/// at the start of the sequence stream (see gen/random_circuit.cpp).
struct GeneratedSequenceConfig {
  NodeId vdd;
  NodeId gnd;
  std::vector<NodeId> inputs;   ///< data/clock inputs, generator order
  std::vector<NodeId> outputs;  ///< observed outputs, generator order
  std::uint64_t numPatterns = 1;
  std::uint32_t maxSettingsPerPattern = 3;
  double xProbability = 0.05;
  /// Rng state positioned at the first sequence draw. Rng is a plain value
  /// (xoshiro256** state words), so the snapshot is copyable and rewind is
  /// a struct copy.
  Rng rng{1};
};

/// Replays the seeded-random sequence rule from an Rng snapshot. Yields the
/// pattern stream generateWorkload() would materialize, for any length,
/// in O(1) memory.
class GeneratedPatternSource final : public PatternSource {
 public:
  explicit GeneratedPatternSource(GeneratedSequenceConfig config)
      : config_(std::move(config)), rng_(config_.rng) {}

  const std::vector<NodeId>& outputs() const override {
    return config_.outputs;
  }
  std::uint64_t numPatterns() const override { return config_.numPatterns; }
  bool next(Pattern& out) override;
  void rewind() override {
    rng_ = config_.rng;
    next_ = 0;
  }

 private:
  GeneratedSequenceConfig config_;
  Rng rng_;
  std::uint64_t next_ = 0;
};

/// Streams a sequence file in the text format of patterns/sequence_io.hpp.
/// The header (outputs and, if present, the 64-bit `patterns N` count) is
/// parsed at construction; without a declared count the file is pre-scanned
/// once to count patterns. rewind() reopens the file.
class FilePatternSource final : public PatternSource {
 public:
  /// Throws Error on I/O failure, malformed header, an empty pattern list
  /// or a declared count that disagrees with the file's actual patterns.
  FilePatternSource(const Network& net, std::string path);

  const std::vector<NodeId>& outputs() const override { return outputs_; }
  std::uint64_t numPatterns() const override { return numPatterns_; }
  bool next(Pattern& out) override;
  void rewind() override { reopen(); }

 private:
  void reopen();

  const Network* net_;
  std::string path_;
  std::ifstream in_;
  std::unique_ptr<SequenceStreamReader> reader_;
  std::vector<NodeId> outputs_;
  std::uint64_t numPatterns_ = 0;
};

}  // namespace fmossim
