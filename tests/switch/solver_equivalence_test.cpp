// The solver's two paths agree: vicinities with edges and at most
// SteadyStateSolver's small-vicinity bound (16 members) are solved by direct
// sweeps, larger ones by the CSR build and bucket queues. Padding a small
// vicinity with isolated members sends the same problem down the bucketed
// path without changing the original members' answer (an isolated member
// touches nothing), so every original member must get the same state both
// ways. The engines' serial oracle uses the same solver, so this is the
// check that sees a solver change.
#include <gtest/gtest.h>

#include "switch/solver.hpp"
#include "util/rng.hpp"

namespace fmossim {
namespace {

constexpr unsigned kSmallBound = 16;

State randomState(Rng& rng) { return static_cast<State>(rng.below(3)); }

Strength randomStrength(Rng& rng, const SignalDomain& d) {
  return d.strengthLevel(1 + static_cast<unsigned>(rng.below(d.numStrengths())));
}

Strength randomSize(Rng& rng, const SignalDomain& d) {
  return d.sizeLevel(1 + static_cast<unsigned>(rng.below(d.numSizes())));
}

// 2..16 members, at least one edge; definite and X edges, parallel edges and
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

// The same vicinity plus kSmallBound isolated members, which pushes it past
// the small-vicinity bound.
Vicinity padded(const Vicinity& vic, Rng& rng, const SignalDomain& d) {
  Vicinity big = vic;
  for (unsigned i = 0; i < kSmallBound; ++i) {
    big.members.push_back(NodeId(static_cast<std::uint32_t>(vic.size() + i)));
    big.memberSize.push_back(randomSize(rng, d));
    big.memberCharge.push_back(randomState(rng));
  }
  return big;
}

class SolverEquivalenceTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(SolverEquivalenceTest, SmallPathMatchesBucketedPath) {
  const auto [sizes, strengths] = GetParam();
  const SignalDomain d(sizes, strengths);
  Rng rng(0x5eedULL * sizes + strengths);
  SteadyStateSolver solver(d);
  std::vector<State> small, big;
  std::uint64_t nonTrivial = 0;  // results that are not all equal to charge
  for (int trial = 0; trial < 20000; ++trial) {
    const Vicinity vic = randomSmallVicinity(rng, d);
    const Vicinity pad = padded(vic, rng, d);
    solver.solve(vic, small);
    solver.solve(pad, big);
    ASSERT_EQ(small.size(), vic.size());
    ASSERT_EQ(big.size(), vic.size() + kSmallBound);
    for (std::size_t i = 0; i < vic.size(); ++i) {
      ASSERT_EQ(small[i], big[i])
          << "trial " << trial << " member " << i << " of " << vic.size()
          << " (" << vic.edges.size() << " edges, " << vic.inputEdges.size()
          << " inputs)";
    }
    if (small != vic.memberCharge) ++nonTrivial;
  }
  // The generator must exercise propagation, not only quiet vicinities.
  EXPECT_GT(nonTrivial, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Domains, SolverEquivalenceTest,
                         ::testing::Values(std::pair{2u, 3u}, std::pair{1u, 1u},
                                           std::pair{3u, 4u}));

}  // namespace
}  // namespace fmossim
