#include "netlist/distance_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "netlist/gen/c17.hpp"
#include "netlist/gen/random_dag.hpp"
#include "netlist/graph.hpp"
#include "support/rng.hpp"

namespace iddq::netlist {
namespace {

// Reference: full hop distances from `source` to every vertex, by a plain
// unbounded BFS with a fresh V-sized array — the O(V)-per-source
// construction the oracle replaced.
std::vector<std::uint32_t> reference_distances(const UndirectedGraph& graph,
                                               GateId source) {
  std::vector<std::uint32_t> dist(graph.vertex_count(), kUnreached);
  std::deque<GateId> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const GateId u = queue.front();
    queue.pop_front();
    for (const GateId v : graph.neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

TEST(DistanceOracle, MatchesBfsWithinRadius) {
  const Netlist nl =
      gen::make_random_dag(gen::DagProfile::basic("rand", 100, 10, 21));
  const std::uint32_t rho = 4;
  const DistanceOracle oracle(nl, rho);
  const UndirectedGraph graph(nl);
  BfsScratch scratch;
  for (GateId a = 0; a < nl.gate_count(); ++a) {
    bfs_within(graph, a, rho, scratch);
    const auto& dist = scratch.dist;
    for (GateId b = 0; b < nl.gate_count(); ++b) {
      if (a == b) continue;
      const std::uint32_t expected =
          (dist[b] == kUnreached || dist[b] >= rho) ? rho : dist[b];
      ASSERT_EQ(oracle.separation(a, b), expected)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(DistanceOracle, RandomizedNearListsMatchFullBfs) {
  // Every near list must equal the reference's gates strictly closer than
  // rho, in id order, with their distances — on random circuits of varied
  // shape (wide and shallow to narrow and deep), for rho 1..6.
  for (std::uint64_t circuit_seed = 1; circuit_seed <= 12; ++circuit_seed) {
    Rng rng(circuit_seed);
    const std::size_t gates = 20 + rng.below(180);
    const std::size_t depth = 1 + rng.below(std::min<std::size_t>(gates, 25));
    const Netlist nl = gen::make_random_dag(
        gen::DagProfile::basic("rand", gates, depth, circuit_seed));
    const UndirectedGraph graph(nl);
    std::vector<std::vector<std::uint32_t>> full;
    for (GateId g = 0; g < nl.gate_count(); ++g)
      full.push_back(reference_distances(graph, g));
    for (std::uint32_t rho = 1; rho <= 6; ++rho) {
      const DistanceOracle oracle(nl, rho);
      std::size_t entries = 0;
      for (GateId g = 0; g < nl.gate_count(); ++g) {
        std::vector<DistanceOracle::Entry> expected;
        for (GateId v = 0; v < nl.gate_count(); ++v)
          if (v != g && full[g][v] < rho)
            expected.push_back(
                {v, static_cast<std::uint8_t>(full[g][v])});
        const auto near = oracle.near(g);
        ASSERT_EQ(near.size(), expected.size())
            << "circuit seed " << circuit_seed << ", rho " << rho
            << ", gate " << g;
        for (std::size_t i = 0; i < near.size(); ++i) {
          ASSERT_EQ(near[i].gate, expected[i].gate)
              << "circuit seed " << circuit_seed << ", rho " << rho
              << ", gate " << g << ", entry " << i;
          ASSERT_EQ(near[i].distance, expected[i].distance)
              << "circuit seed " << circuit_seed << ", rho " << rho
              << ", gate " << g << ", entry " << i;
        }
        entries += expected.size();
      }
      EXPECT_EQ(oracle.entry_count(), entries)
          << "circuit seed " << circuit_seed << ", rho " << rho;
    }
  }
}

TEST(DistanceOracle, SeparationIsSymmetric) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 5);
  for (GateId a = 0; a < nl.gate_count(); ++a)
    for (GateId b = a + 1; b < nl.gate_count(); ++b)
      EXPECT_EQ(oracle.separation(a, b), oracle.separation(b, a));
}

TEST(DistanceOracle, AdjacentGatesHaveSeparationOne) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 5);
  for (const GateId id : nl.logic_gates())
    for (const GateId f : nl.gate(id).fanins)
      EXPECT_EQ(oracle.separation(id, f), 1u);
}

TEST(DistanceOracle, SaturatesAtRho) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 2);
  // 10 to 19: 10-22-16-19 or 10-1?-...: shortest is 3 hops (10,22,16,19)
  // or via inputs; with rho=2 everything >= 2 saturates.
  EXPECT_EQ(oracle.separation(nl.at("10"), nl.at("19")), 2u);
}

TEST(DistanceOracle, RhoOneStoresNothing) {
  const Netlist nl = gen::make_c17();
  const DistanceOracle oracle(nl, 1);
  EXPECT_EQ(oracle.entry_count(), 0u);
  EXPECT_EQ(oracle.separation(nl.at("10"), nl.at("22")), 1u);  // saturated
}

TEST(DistanceOracle, NearListsExcludeSelfAndAreSorted) {
  const Netlist nl =
      gen::make_random_dag(gen::DagProfile::basic("rand", 80, 8, 31));
  const DistanceOracle oracle(nl, 4);
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    GateId prev = kNoGate;
    for (const auto& e : oracle.near(g)) {
      EXPECT_NE(e.gate, g);
      EXPECT_GE(e.distance, 1u);
      EXPECT_LT(e.distance, 4u);
      if (prev != kNoGate) EXPECT_GT(e.gate, prev);
      prev = e.gate;
    }
  }
}

}  // namespace
}  // namespace iddq::netlist
