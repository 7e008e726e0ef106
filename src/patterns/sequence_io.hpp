// Text format for test sequences, used by the command-line driver.
//
//   # comment
//   outputs dout            declare observed output node(s)
//   patterns 3              optional 64-bit pattern count (verified strictly)
//   pattern [label]         start a new pattern
//   set a=1 b=0 clk=X       one input setting (assignments applied together)
//
// The header (outputs and patterns lines) precedes the first pattern. Node
// names are resolved against a Network; values are 0, 1 or X. One grammar
// serves every reader: parseSequence and loadSequenceFile drain a
// SequenceStreamReader, as FilePatternSource does. All pattern counts are
// 64-bit end to end: the `patterns` directive, the
// streaming reader/writer below and FilePatternSource carry sequences
// longer than 2^32 patterns without truncation (a materialized TestSequence
// remains bounded by its 32-bit size; only the streaming path crosses it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "patterns/pattern.hpp"

namespace fmossim {

/// Parses the sequence text against the network by draining a
/// SequenceStreamReader. Throws Error with line numbers on malformed input,
/// unknown node names or a header line after the first pattern, and on a
/// `patterns N` declaration that disagrees with the actual pattern count.
TestSequence parseSequence(const Network& net, const std::string& text);

/// Reads a sequence file.
TestSequence loadSequenceFile(const Network& net, const std::string& path);

/// Writes a sequence back in the same format (including a `patterns N`
/// count line). Exact inverse of parseSequence: the emitted text parses
/// back to an equivalent sequence. Throws Error for sequences the format
/// cannot carry (no patterns or outputs, empty settings, node names /
/// labels with whitespace, '=' in an assigned node's name) instead of
/// emitting lossy or unparseable text.
std::string writeSequence(const Network& net, const TestSequence& seq);

/// Incremental parser for the sequence text format: one pattern at a time,
/// never holding the whole sequence. The header — outputs directives and
/// the optional 64-bit `patterns N` count — must precede the first pattern
/// (a stream consumer needs the outputs before the first settle).
class SequenceStreamReader {
 public:
  /// Parses the header up to (not including) the first pattern. Throws
  /// Error with line numbers on malformed input. The stream must outlive
  /// the reader.
  SequenceStreamReader(const Network& net, std::istream& in);

  const std::vector<NodeId>& outputs() const { return outputs_; }

  /// The `patterns N` declaration, if the header carried one.
  std::optional<std::uint64_t> declaredPatterns() const { return declared_; }

  /// Fills `out` with the next pattern; false at clean end of input. Throws
  /// on malformed lines and on a declared count that disagrees with the
  /// actual number of patterns (too many as soon as one is seen, too few at
  /// end of input).
  bool next(Pattern& out);

  std::uint64_t patternsRead() const { return read_; }

 private:
  bool nextLine(std::vector<std::string>& tok);

  const Network* net_;
  std::istream* in_;
  std::size_t lineNo_ = 0;
  std::vector<NodeId> outputs_;
  std::optional<std::uint64_t> declared_;
  std::optional<std::string> pendingLabel_;  ///< label of the pattern whose
                                             ///< directive was already read
  std::uint64_t read_ = 0;
  bool done_ = false;
};

/// Incremental writer: header (outputs + 64-bit `patterns N`) at
/// construction, then one pattern per write(). finish() verifies the
/// declared count was met exactly. Performs the same representability
/// validation as writeSequence, per pattern.
class SequenceStreamWriter {
 public:
  SequenceStreamWriter(const Network& net, std::ostream& out,
                       const std::vector<NodeId>& outputs,
                       std::uint64_t numPatterns);

  /// Writes one pattern; throws if it is unrepresentable or exceeds the
  /// declared count.
  void write(const Pattern& p);

  /// Verifies exactly numPatterns patterns were written.
  void finish();

  std::uint64_t patternsWritten() const { return written_; }

 private:
  const Network* net_;
  std::ostream* out_;
  std::uint64_t declared_;
  std::uint64_t written_ = 0;
};

}  // namespace fmossim
