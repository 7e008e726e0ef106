// Shared helpers for the fmossim test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "patterns/pattern_source.hpp"
#include "switch/builder.hpp"
#include "switch/logic_sim.hpp"

namespace fmossim::testing {

/// Sets an input by name and settles.
inline void drive(LogicSimulator& sim, const std::string& name, char value) {
  sim.setInput(sim.network().nodeByName(name), stateFromChar(value));
  sim.settle();
}

/// Sets several inputs by name, then settles once.
inline void driveAll(LogicSimulator& sim,
                     const std::vector<std::pair<std::string, char>>& values) {
  for (const auto& [name, v] : values) {
    sim.setInput(sim.network().nodeByName(name), stateFromChar(v));
  }
  sim.settle();
}

/// Reads a node state by name as a character.
inline char read(const LogicSimulator& sim, const std::string& name) {
  return stateChar(sim.state(sim.network().nodeByName(name)));
}

/// gtest-friendly assertion on a node's state.
#define EXPECT_NODE(sim, name, expected) \
  EXPECT_EQ(::fmossim::testing::read((sim), (name)), (expected)) << "node " << (name)

/// Standard rails: adds Vdd/Gnd inputs and drives them after construction.
inline void driveRails(LogicSimulator& sim) {
  const auto& net = sim.network();
  sim.setInput(net.nodeByName("Vdd"), State::S1);
  sim.setInput(net.nodeByName("Gnd"), State::S0);
  sim.settle();
}

/// Records the good machine of `net` over a materialized sequence (through
/// its MaterializedPatternSource).
inline GoodMachineCheckpoint recordSequence(const Network& net,
                                            const TestSequence& seq,
                                            const FsimOptions& options,
                                            std::size_t budgetBytes = 0) {
  MaterializedPatternSource source(seq);
  return GoodMachineCheckpoint::record(net, source, options, budgetBytes);
}

}  // namespace fmossim::testing
