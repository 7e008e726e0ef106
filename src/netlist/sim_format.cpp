#include "netlist/sim_format.hpp"

#include <fstream>
#include <sstream>

#include "switch/builder.hpp"
#include "util/strings.hpp"

namespace fmossim {

namespace {

[[noreturn]] void fail(std::size_t lineNo, const std::string& msg) {
  throw Error(format("sim netlist line %zu: %s", lineNo, msg.c_str()));
}

/// Strict unsigned decimal parse (util/strings.hpp), so that "2x" or "3.5"
/// is an error rather than silently truncated by stoi. The bound is past
/// every legal size and strength: the builder range-checks those.
unsigned parseUint(std::string_view tok, std::size_t lineNo, const char* what) {
  const auto v = parseDecimal(tok, 1000009);
  if (!v) fail(lineNo, format("invalid %s '%s'", what, std::string(tok).c_str()));
  return static_cast<unsigned>(*v);
}

}  // namespace

Network parseSimNetlist(const std::string& text) {
  NetworkBuilder b;

  // Two passes: declarations first (inputs, node sizes), then devices, so
  // that device lines can reference nodes declared later in the file.
  std::istringstream declStream(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(declStream, line)) {
    ++lineNo;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '|' || trimmed[0] == '#') continue;
    const auto tok = splitWhitespace(trimmed);
    const std::string kind = toUpper(tok[0]);
    if (kind == "INPUT") {
      if (tok.size() < 2) fail(lineNo, "input requires at least one name");
      for (std::size_t i = 1; i < tok.size(); ++i) {
        const std::string name(tok[i]);
        if (b.hasNode(name)) fail(lineNo, "duplicate declaration of '" + name + "'");
        b.addInput(name);
      }
    } else if (kind == "NODE") {
      if (tok.size() != 3) fail(lineNo, "node requires <name> <size>");
      const std::string name(tok[1]);
      if (b.hasNode(name)) fail(lineNo, "duplicate declaration of '" + name + "'");
      const unsigned size = parseUint(tok[2], lineNo, "node size");
      if (size < 1) fail(lineNo, "node size must be >= 1");
      try {
        b.addNode(name, size);
      } catch (const Error& e) {
        fail(lineNo, e.what());
      }
    }
  }

  // Implicit rails.
  if (!b.hasNode("Vdd")) b.addInput("Vdd");
  if (!b.hasNode("Gnd")) b.addInput("Gnd");

  std::istringstream devStream(text);
  lineNo = 0;
  std::size_t devices = 0;
  while (std::getline(devStream, line)) {
    ++lineNo;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '|' || trimmed[0] == '#') continue;
    const auto tok = splitWhitespace(trimmed);
    const std::string kind = toUpper(tok[0]);
    if (kind == "INPUT" || kind == "NODE") continue;
    if (kind != "N" && kind != "P" && kind != "D" && kind != "E") {
      fail(lineNo, "unknown directive '" + std::string(tok[0]) + "'");
    }
    if (tok.size() != 4 && tok.size() != 5) {
      fail(lineNo, "transistor requires <gate> <source> <drain> [strength]");
    }
    const TransistorType type = transistorTypeFromName(std::string(1, static_cast<char>(
        std::tolower(static_cast<unsigned char>(kind[0])))));
    unsigned strength = (type == TransistorType::DType) ? 1u : 2u;
    if (tok.size() == 5) {
      strength = parseUint(tok[4], lineNo, "strength");
    }
    const NodeId gate = b.getOrAddNode(std::string(tok[1]));
    const NodeId source = b.getOrAddNode(std::string(tok[2]));
    const NodeId drain = b.getOrAddNode(std::string(tok[3]));
    try {
      b.addTransistor(type, strength, gate, source, drain);
    } catch (const Error& e) {
      fail(lineNo, e.what());
    }
    ++devices;
  }
  if (devices == 0) {
    throw Error("sim netlist contains no transistors");
  }
  return b.build();
}

Network loadSimFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open sim netlist '" + path + "'");
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parseSimNetlist(ss.str());
}

std::string writeSimNetlist(const Network& net) {
  std::string out;
  out += "| written by fmossim\n";
  // Inputs (other than the implicit rails).
  for (const NodeId n : net.allNodes()) {
    const auto& node = net.node(n);
    if (node.isInput && node.name != "Vdd" && node.name != "Gnd") {
      out += "input " + node.name + "\n";
    }
  }
  for (const NodeId n : net.storageNodes()) {
    const auto& node = net.node(n);
    if (node.size != 1) {
      out += format("node %s %u\n", node.name.c_str(), unsigned(node.size));
    }
  }
  const auto& domain = net.domain();
  for (const TransId t : net.allTransistors()) {
    const auto& tr = net.transistor(t);
    // Recover the 1-based strength index from the level.
    const unsigned strength = tr.strength - domain.numSizes();
    const std::string line =
        format("%s %s %s %s %u", transistorTypeName(tr.type),
               net.node(tr.gate).name.c_str(), net.node(tr.source).name.c_str(),
               net.node(tr.drain).name.c_str(), strength);
    if (tr.isFaultDevice()) {
      out += "| fault-device (" +
             std::string(*tr.goodConduction == State::S0 ? "short" : "open") +
             "): " + line + "\n";
    } else {
      out += line + "\n";
    }
  }
  return out;
}

}  // namespace fmossim
