#include "patterns/sequence_io.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/strings.hpp"

namespace fmossim {

namespace {

[[noreturn]] void fail(std::size_t lineNo, const std::string& msg) {
  throw Error(format("sequence line %zu: %s", lineNo, msg.c_str()));
}

/// Strict 64-bit count parse: a declared count past 2^64 is malformed, not
/// wrapped.
std::uint64_t parseCount(const std::string& tok, std::size_t lineNo) {
  const auto v = parseDecimal(tok);
  if (!v) fail(lineNo, "malformed pattern count '" + tok + "'");
  return *v;
}

/// Parses the assignments of a `set` line into an InputSetting.
InputSetting parseSetLine(const Network& net,
                          const std::vector<std::string>& tok,
                          std::size_t lineNo) {
  if (tok.size() < 2) fail(lineNo, "set requires assignments");
  InputSetting setting;
  for (std::size_t i = 1; i < tok.size(); ++i) {
    const auto parts = split(tok[i], '=');
    if (parts.size() != 2 || parts[0].empty() || parts[1].size() != 1) {
      fail(lineNo, "malformed assignment '" + std::string(tok[i]) +
                       "' (expected name=0|1|X)");
    }
    const NodeId n = net.findNode(std::string(parts[0]));
    if (!n.valid()) fail(lineNo, "unknown node '" + std::string(parts[0]) + "'");
    if (!net.isInput(n)) {
      fail(lineNo, "'" + std::string(parts[0]) + "' is not an input node");
    }
    State v;
    try {
      v = stateFromChar(parts[1][0]);
    } catch (const Error&) {
      fail(lineNo, "invalid state '" + std::string(parts[1]) + "'");
    }
    setting.set(n, v);
  }
  return setting;
}

/// Tokenizes a line into owning strings (the views from splitWhitespace
/// would dangle past the caller's line buffer).
std::vector<std::string> toTokens(std::string_view s) {
  std::vector<std::string> tok;
  for (const std::string_view v : splitWhitespace(s)) tok.emplace_back(v);
  return tok;
}

std::vector<NodeId> parseOutputsLine(const Network& net,
                                     const std::vector<std::string>& tok,
                                     std::size_t lineNo) {
  if (tok.size() < 2) fail(lineNo, "outputs requires at least one node");
  std::vector<NodeId> out;
  out.reserve(tok.size() - 1);
  for (std::size_t i = 1; i < tok.size(); ++i) {
    const NodeId n = net.findNode(std::string(tok[i]));
    if (!n.valid()) fail(lineNo, "unknown node '" + std::string(tok[i]) + "'");
    out.push_back(n);
  }
  return out;
}

}  // namespace

namespace {

/// Drains a stream reader into a materialized sequence: the one grammar for
/// every reader of the format.
TestSequence readSequence(const Network& net, std::istream& in) {
  SequenceStreamReader reader(net, in);
  TestSequence seq;
  for (const NodeId n : reader.outputs()) seq.addOutput(n);
  Pattern p;
  while (reader.next(p)) seq.addPattern(std::move(p));
  if (seq.empty()) {
    throw Error("sequence contains no patterns");
  }
  if (seq.outputs().empty()) {
    throw Error("sequence declares no outputs");
  }
  return seq;
}

}  // namespace

TestSequence parseSequence(const Network& net, const std::string& text) {
  std::istringstream in(text);
  return readSequence(net, in);
}

TestSequence loadSequenceFile(const Network& net, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open sequence file '" + path + "'");
  }
  return readSequence(net, in);
}

// ------------------------------------------------------------- streaming ---

SequenceStreamReader::SequenceStreamReader(const Network& net,
                                           std::istream& in)
    : net_(&net), in_(&in) {
  // Header: everything up to the first pattern directive.
  std::vector<std::string> tok;
  while (nextLine(tok)) {
    const std::string kind = toUpper(tok[0]);
    if (kind == "OUTPUTS" || kind == "OUTPUT") {
      for (const NodeId n : parseOutputsLine(*net_, tok, lineNo_)) {
        outputs_.push_back(n);
      }
    } else if (kind == "PATTERNS") {
      if (tok.size() != 2) fail(lineNo_, "patterns takes exactly one count");
      if (declared_.has_value()) fail(lineNo_, "duplicate patterns directive");
      declared_ = parseCount(tok[1], lineNo_);
    } else if (kind == "PATTERN") {
      if (tok.size() > 2) fail(lineNo_, "pattern takes at most one label token");
      pendingLabel_ = tok.size() > 1 ? tok[1] : "";
      break;
    } else if (kind == "SET") {
      fail(lineNo_, "'set' outside a pattern");
    } else {
      fail(lineNo_, "unknown directive '" + tok[0] + "'");
    }
  }
  if (!pendingLabel_.has_value()) done_ = true;
}

bool SequenceStreamReader::nextLine(std::vector<std::string>& tok) {
  std::string line;
  while (std::getline(*in_, line)) {
    ++lineNo_;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    tok = toTokens(trimmed);
    return true;
  }
  return false;
}

bool SequenceStreamReader::next(Pattern& out) {
  if (done_) {
    if (declared_.has_value() && *declared_ != read_) {
      throw Error(format(
          "sequence declares %llu patterns but contains %llu",
          static_cast<unsigned long long>(*declared_),
          static_cast<unsigned long long>(read_)));
    }
    return false;
  }
  if (declared_.has_value() && read_ >= *declared_) {
    fail(lineNo_, format("more patterns than the declared %llu",
                         static_cast<unsigned long long>(*declared_)));
  }
  out.label = std::move(*pendingLabel_);
  out.settings.clear();
  pendingLabel_.reset();

  std::vector<std::string> tok;
  while (nextLine(tok)) {
    const std::string kind = toUpper(tok[0]);
    if (kind == "SET") {
      out.settings.push_back(parseSetLine(*net_, tok, lineNo_));
    } else if (kind == "PATTERN") {
      if (tok.size() > 2) fail(lineNo_, "pattern takes at most one label token");
      pendingLabel_ = tok.size() > 1 ? tok[1] : "";
      break;
    } else if (kind == "OUTPUTS" || kind == "OUTPUT" || kind == "PATTERNS") {
      fail(lineNo_, "'" + tok[0] + "' must precede the first pattern");
    } else {
      fail(lineNo_, "unknown directive '" + tok[0] + "'");
    }
  }
  if (!pendingLabel_.has_value()) done_ = true;
  if (out.settings.empty()) {
    throw Error("sequence: pattern '" + out.label + "' has no settings");
  }
  ++read_;
  return true;
}

namespace {

/// A single token the text format can carry losslessly: non-empty and free
/// of whitespace (the token separator). '#' only starts a comment at the
/// beginning of a line and '=' only separates inside assignments, so both
/// are fine mid-token; assignment node names additionally exclude '='.
bool representableToken(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

const std::string& checkedName(const Network& net, NodeId n, bool assignment) {
  const std::string& name = net.node(n).name;
  if (!representableToken(name) ||
      (assignment && name.find('=') != std::string::npos)) {
    throw Error("writeSequence: node name '" + name +
                "' is not representable in the sequence format");
  }
  return name;
}

}  // namespace

SequenceStreamWriter::SequenceStreamWriter(const Network& net,
                                           std::ostream& out,
                                           const std::vector<NodeId>& outputs,
                                           std::uint64_t numPatterns)
    : net_(&net), out_(&out), declared_(numPatterns) {
  // Validate the header up front so that emitted text always reparses:
  // anything the format cannot carry is an error here, never lossy output.
  if (numPatterns == 0) throw Error("writeSequence: sequence has no patterns");
  if (outputs.empty()) throw Error("writeSequence: sequence has no outputs");
  std::string header = "# written by fmossim\noutputs";
  for (const NodeId n : outputs) {
    header += ' ';
    header += checkedName(*net_, n, /*assignment=*/false);
  }
  header += "\npatterns " + std::to_string(numPatterns) + '\n';
  *out_ << header;
}

void SequenceStreamWriter::write(const Pattern& p) {
  if (written_ >= declared_) {
    throw Error(format("writeSequence: more than the declared %llu patterns",
                       static_cast<unsigned long long>(declared_)));
  }
  if (p.settings.empty()) {
    throw Error("writeSequence: pattern '" + p.label + "' has no settings");
  }
  if (!p.label.empty() && !representableToken(p.label)) {
    throw Error("writeSequence: pattern label '" + p.label +
                "' is not representable (must be one token)");
  }
  std::string text = "pattern";
  if (!p.label.empty()) text += ' ' + p.label;
  text += '\n';
  for (const InputSetting& s : p.settings) {
    if (s.assignments.empty()) {
      throw Error("writeSequence: pattern '" + p.label +
                  "' has an empty input setting");
    }
    text += "  set";
    for (const auto& [n, v] : s.assignments) {
      if (!net_->isInput(n)) {
        // parseSequence rejects assignments to non-input nodes, so the
        // writer must too (exact-inverse contract).
        throw Error("writeSequence: assignment target '" + net_->node(n).name +
                    "' is not an input node");
      }
      text += ' ' + checkedName(*net_, n, /*assignment=*/true) + '=' +
              stateChar(v);
    }
    text += '\n';
  }
  *out_ << text;
  ++written_;
}

void SequenceStreamWriter::finish() {
  if (written_ != declared_) {
    throw Error(format(
        "writeSequence: declared %llu patterns but wrote %llu",
        static_cast<unsigned long long>(declared_),
        static_cast<unsigned long long>(written_)));
  }
  out_->flush();
}

std::string writeSequence(const Network& net, const TestSequence& seq) {
  if (seq.empty()) throw Error("writeSequence: sequence has no patterns");
  std::ostringstream out;
  SequenceStreamWriter writer(net, out, seq.outputs(), seq.size());
  for (std::uint32_t i = 0; i < seq.size(); ++i) writer.write(seq[i]);
  writer.finish();
  return out.str();
}

}  // namespace fmossim
