// The solver's two paths agree: vicinities with edges and at most
// SteadyStateSolver::kSmallVicinity members are solved by direct sweeps,
// larger ones by the CSR build and bucket queues. Padding a small vicinity
// with kSmallVicinity isolated members sends the same problem down the
// bucketed path without changing the original members' answer (an isolated
// member touches nothing), so every original member must get the same state
// both ways. The engines' serial oracle uses the same solver, so this is the
// check that sees a solver change.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "switch/solver.hpp"
#include "util/rng.hpp"

namespace fmossim {
namespace {

constexpr std::uint32_t kSmallBound = SteadyStateSolver::kSmallVicinity;

State randomState(Rng& rng) { return static_cast<State>(rng.below(3)); }

Strength randomStrength(Rng& rng, const SignalDomain& d) {
  return d.strengthLevel(1 + static_cast<unsigned>(rng.below(d.numStrengths())));
}

Strength randomSize(Rng& rng, const SignalDomain& d) {
  return d.sizeLevel(1 + static_cast<unsigned>(rng.below(d.numSizes())));
}

// 2..kSmallBound members, at least one edge; definite and X edges, parallel edges and
// self-loops, 0..3 input edges, and a bias toward equal strengths so that
// conflicting values meet at equal strength.
Vicinity randomSmallVicinity(Rng& rng, const SignalDomain& d) {
  Vicinity vic;
  const auto n = static_cast<std::uint32_t>(2 + rng.below(kSmallBound - 1));
  const Strength commonSize = randomSize(rng, d);
  const Strength commonStrength = randomStrength(rng, d);
  for (std::uint32_t i = 0; i < n; ++i) {
    vic.members.push_back(NodeId(i));
    vic.memberSize.push_back(rng.chance(0.5) ? commonSize : randomSize(rng, d));
    vic.memberCharge.push_back(randomState(rng));
  }
  const auto edges = static_cast<std::uint32_t>(1 + rng.below(2 * n));
  for (std::uint32_t e = 0; e < edges; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.below(n));
    auto b = static_cast<std::uint32_t>(rng.below(n));
    if (rng.chance(0.05)) b = a;  // self-loop
    const Strength s = rng.chance(0.5) ? commonStrength : randomStrength(rng, d);
    const bool definite = rng.chance(0.6);
    vic.edges.push_back({a, b, s, definite});
    if (rng.chance(0.1)) vic.edges.push_back({b, a, s, !definite});  // parallel
  }
  const auto inputs = static_cast<std::uint32_t>(rng.below(4));
  for (std::uint32_t i = 0; i < inputs; ++i) {
    const Strength s = rng.chance(0.5) ? commonStrength : randomStrength(rng, d);
    vic.inputEdges.push_back({static_cast<std::uint32_t>(rng.below(n)), s,
                              rng.chance(0.7), randomState(rng)});
  }
  return vic;
}

// A chain of 2..kSmallBound members driven at member 0, the seed (and now
// and then at the far end too), listed seed-outward or reversed. Chains are
// the sweeps' worst case: a signal walks the whole chain, one member per
// edge, so a sweep order against the chain needs one pass per member.
Vicinity randomChain(Rng& rng, const SignalDomain& d, bool reversed) {
  Vicinity vic;
  const auto n = static_cast<std::uint32_t>(2 + rng.below(kSmallBound - 1));
  const Strength commonStrength = randomStrength(rng, d);
  for (std::uint32_t i = 0; i < n; ++i) {
    vic.members.push_back(NodeId(i));
    vic.memberSize.push_back(randomSize(rng, d));
    vic.memberCharge.push_back(randomState(rng));
  }
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    const Strength s = rng.chance(0.8) ? commonStrength : randomStrength(rng, d);
    const bool forward = rng.chance(0.5);  // which end is `a` does not matter
    vic.edges.push_back({forward ? i : i + 1, forward ? i + 1 : i, s,
                         rng.chance(0.95)});
  }
  if (reversed) std::reverse(vic.edges.begin(), vic.edges.end());
  vic.inputEdges.push_back({0, d.strengthLevel(d.numStrengths()), true,
                            rng.chance(0.5) ? State::S1 : State::S0});
  if (rng.chance(0.3)) {
    vic.inputEdges.push_back(
        {n - 1, randomStrength(rng, d), rng.chance(0.7), randomState(rng)});
  }
  return vic;
}

// The same vicinity plus kSmallBound isolated members, which pushes it past
// the small-vicinity bound.
Vicinity padded(const Vicinity& vic, Rng& rng, const SignalDomain& d) {
  Vicinity big = vic;
  for (std::uint32_t i = 0; i < kSmallBound; ++i) {
    big.members.push_back(NodeId(static_cast<std::uint32_t>(vic.size() + i)));
    big.memberSize.push_back(randomSize(rng, d));
    big.memberCharge.push_back(randomState(rng));
  }
  return big;
}

// Solves `vic` directly and padded through the bucketed path; every original
// member must agree. Returns the direct result.
std::vector<State> solveBothWays(SteadyStateSolver& solver, const Vicinity& vic,
                                 Rng& rng, const SignalDomain& d,
                                 const std::string& label) {
  const Vicinity pad = padded(vic, rng, d);
  EXPECT_LE(vic.size(), kSmallBound);
  EXPECT_GT(pad.size(), kSmallBound);
  std::vector<State> small, big;
  solver.solve(vic, small);
  solver.solve(pad, big);
  EXPECT_EQ(small.size(), vic.size());
  EXPECT_EQ(big.size(), pad.size());
  for (std::size_t i = 0; i < vic.size(); ++i) {
    EXPECT_EQ(small[i], big[i])
        << label << " member " << i << " of " << vic.size() << " ("
        << vic.edges.size() << " edges, " << vic.inputEdges.size()
        << " inputs)";
    if (small[i] != big[i]) break;
  }
  return small;
}

class SolverEquivalenceTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(SolverEquivalenceTest, SmallPathMatchesBucketedPath) {
  const auto [sizes, strengths] = GetParam();
  const SignalDomain d(sizes, strengths);
  Rng rng(0x5eedULL * sizes + strengths);
  SteadyStateSolver solver(d);
  std::uint64_t nonTrivial = 0;  // results that are not all equal to charge
  for (int trial = 0; trial < 20000; ++trial) {
    const Vicinity vic = randomSmallVicinity(rng, d);
    const std::vector<State> small = solveBothWays(
        solver, vic, rng, d, "trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) return;
    if (small != vic.memberCharge) ++nonTrivial;
  }
  // The generator must exercise propagation, not only quiet vicinities.
  EXPECT_GT(nonTrivial, 2000u);
}

// Chains of up to kSmallBound members in both edge orders: the direct
// sweeps must carry the seed's signal the whole length either way.
TEST_P(SolverEquivalenceTest, ChainsMatchInEitherEdgeOrder) {
  const auto [sizes, strengths] = GetParam();
  const SignalDomain d(sizes, strengths);
  Rng rng(0xc4a1ULL * sizes + strengths);
  SteadyStateSolver solver(d);
  std::uint64_t longReach = 0;  // chains whose far end took the seed's value
  for (int trial = 0; trial < 4000; ++trial) {
    for (const bool reversed : {false, true}) {
      const Vicinity vic = randomChain(rng, d, reversed);
      const std::vector<State> small = solveBothWays(
          solver, vic, rng, d,
          "chain trial " + std::to_string(trial) +
              (reversed ? " reversed" : " seed-outward"));
      if (::testing::Test::HasFailure()) return;
      const State seed = vic.inputEdges[0].value;
      if (vic.size() > 8 && small.back() == seed &&
          vic.memberCharge.back() != seed) {
        ++longReach;
      }
    }
  }
  // Long chains must actually carry signals end to end.
  EXPECT_GT(longReach, 500u);
}

INSTANTIATE_TEST_SUITE_P(Domains, SolverEquivalenceTest,
                         ::testing::Values(std::pair{2u, 3u}, std::pair{1u, 1u},
                                           std::pair{3u, 4u}));

}  // namespace
}  // namespace fmossim
