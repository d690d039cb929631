#include "core/standard_partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/gen/c17.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "netlist/levelize.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

// Reference: the O(n^2) clustering the heap version replaced. Every seed
// and every pick scans all logic gates; equal candidates keep the first.
part::Partition reference_standard_partition(
    const netlist::Netlist& nl, const netlist::DistanceOracle& oracle,
    std::span<const std::size_t> module_sizes) {
  const auto levels = netlist::levelize(nl);
  const double rho = static_cast<double>(oracle.rho());
  std::vector<bool> free_gate(nl.gate_count(), false);
  for (const netlist::GateId g : nl.logic_gates()) free_gate[g] = true;
  std::vector<double> discount_cluster(nl.gate_count(), 0.0);
  std::vector<double> discount_free(nl.gate_count(), 0.0);
  for (const netlist::GateId g : nl.logic_gates())
    for (const auto& [neighbor, distance] : oracle.near(g))
      if (free_gate[neighbor])
        discount_free[g] += rho - static_cast<double>(distance);
  part::Partition partition(nl.gate_count(), module_sizes.size());
  const auto add_to_cluster = [&](netlist::GateId g, std::uint32_t m) {
    partition.assign(g, m);
    free_gate[g] = false;
    for (const auto& [neighbor, distance] : oracle.near(g)) {
      const double weight = rho - static_cast<double>(distance);
      discount_cluster[neighbor] += weight;
      discount_free[neighbor] -= weight;
    }
  };
  for (std::uint32_t m = 0; m < module_sizes.size(); ++m) {
    netlist::GateId seed = netlist::kNoGate;
    std::size_t seed_depth = static_cast<std::size_t>(-1);
    for (const netlist::GateId g : nl.logic_gates()) {
      if (free_gate[g] && levels.depth[g] < seed_depth) {
        seed_depth = levels.depth[g];
        seed = g;
      }
    }
    std::fill(discount_cluster.begin(), discount_cluster.end(), 0.0);
    add_to_cluster(seed, m);
    for (std::size_t added = 1; added < module_sizes[m]; ++added) {
      netlist::GateId best = netlist::kNoGate;
      double best_discount = -1.0;
      double best_tiebreak = 0.0;
      for (const netlist::GateId g : nl.logic_gates()) {
        if (!free_gate[g]) continue;
        const double d = discount_cluster[g];
        const double tb = discount_free[g];
        if (best == netlist::kNoGate || d > best_discount ||
            (d == best_discount && tb < best_tiebreak)) {
          best = g;
          best_discount = d;
          best_tiebreak = tb;
        }
      }
      add_to_cluster(best, m);
    }
  }
  return partition;
}

// A circuit of many small disconnected components (1-8 gates over 1-3
// private inputs each), so a module often exhausts its component and the
// clustering must fall back to a gate far from the cluster.
netlist::Netlist random_components_circuit(Rng& rng) {
  using netlist::GateKind;
  netlist::NetlistBuilder b("components");
  const std::size_t components = 2 + rng.below(30);
  std::size_t next_name = 0;
  const auto name = [&] { return "n" + std::to_string(next_name++); };
  for (std::size_t c = 0; c < components; ++c) {
    std::vector<netlist::GateId> pool;
    const std::size_t inputs = 1 + rng.below(3);
    for (std::size_t i = 0; i < inputs; ++i) pool.push_back(b.add_input(name()));
    const std::size_t gates = 1 + rng.below(8);
    for (std::size_t i = 0; i < gates; ++i) {
      const auto a = pool[rng.below(pool.size())];
      const auto other = pool[rng.below(pool.size())];
      const netlist::GateId g =
          a == other ? b.add_gate(GateKind::kNot, name(), {a})
                     : b.add_gate(GateKind::kNand, name(), {a, other});
      pool.push_back(g);
    }
    b.mark_output(pool.back());
  }
  return std::move(b).build();
}

// K >= 1 random positive sizes summing to n.
std::vector<std::size_t> random_sizes(Rng& rng, std::size_t n) {
  const std::size_t k = 1 + rng.below(std::min<std::size_t>(n, 12));
  std::vector<std::size_t> cuts = {0, n};
  while (cuts.size() < k + 1) {
    const std::size_t cut = 1 + rng.below(n - 1);
    if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end())
      cuts.push_back(cut);
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::size_t> sizes;
  for (std::size_t i = 1; i < cuts.size(); ++i)
    sizes.push_back(cuts[i] - cuts[i - 1]);
  return sizes;
}

TEST(StandardPartition, RandomizedMatchesReferenceScan) {
  // 40 circuits (half random DAGs, half many-component circuits) x 8
  // module-size vectors, each at a random rho in 1..6.
  for (std::uint64_t circuit_seed = 1; circuit_seed <= 40; ++circuit_seed) {
    Rng circuit_rng(circuit_seed);
    const netlist::Netlist nl =
        circuit_seed % 2 == 0
            ? random_components_circuit(circuit_rng)
            : netlist::gen::make_random_dag(netlist::gen::DagProfile::basic(
                  "rand", 10 + circuit_rng.below(140),
                  1 + circuit_rng.below(10), circuit_seed));
    const std::size_t n = nl.logic_gate_count();
    for (std::uint64_t case_seed = 1; case_seed <= 8; ++case_seed) {
      Rng rng(circuit_seed * 1000 + case_seed);
      const netlist::DistanceOracle oracle(
          nl, static_cast<std::uint32_t>(1 + rng.below(6)));
      const auto sizes = random_sizes(rng, n);
      ASSERT_EQ(standard_partition(nl, oracle, sizes),
                reference_standard_partition(nl, oracle, sizes))
          << "circuit seed " << circuit_seed << ", case seed " << case_seed
          << " (" << n << " gates, " << sizes.size() << " modules, rho "
          << oracle.rho() << ")";
    }
  }
}

TEST(StandardPartition, ProducesRequestedSizes) {
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const netlist::DistanceOracle oracle(nl, 4);
  const std::vector<std::size_t> sizes = {400, 300, 180};
  const auto p = standard_partition(nl, oracle, sizes);
  ASSERT_EQ(p.module_count(), 3u);
  for (std::size_t m = 0; m < sizes.size(); ++m)
    EXPECT_EQ(p.module_size(static_cast<std::uint32_t>(m)), sizes[m]);
  EXPECT_TRUE(p.covers(nl));
}

TEST(StandardPartition, SeedIsNearPrimaryInput) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  const std::vector<std::size_t> sizes = {3, 3};
  const auto p = standard_partition(nl, oracle, sizes);
  const auto lv = netlist::levelize(nl);
  // The first gate clustered into module 0 must be at depth 1.
  std::size_t min_depth = 100;
  for (const auto g : p.module(0)) min_depth = std::min(min_depth, lv.depth[g]);
  EXPECT_EQ(min_depth, 1u);
}

TEST(StandardPartition, ModulesAreWellConnected) {
  // The paper: "modules such that their gates are connected most closely".
  // Intra-module edge fraction must far exceed a random scatter's.
  const auto nl = netlist::gen::make_iscas_like("c2670");
  const netlist::DistanceOracle oracle(nl, 4);
  const std::size_t n = nl.logic_gate_count();
  const std::vector<std::size_t> sizes = {n / 3, n / 3, n - 2 * (n / 3)};
  const auto p = standard_partition(nl, oracle, sizes);
  std::size_t intra = 0;
  std::size_t total = 0;
  for (const auto g : nl.logic_gates()) {
    for (const auto f : nl.gate(g).fanouts) {
      ++total;
      if (p.module_of(g) == p.module_of(f)) ++intra;
    }
  }
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(total), 0.55);
}

TEST(StandardPartition, DeterministicByConstruction) {
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const netlist::DistanceOracle oracle(nl, 4);
  const std::vector<std::size_t> sizes = {440, 440};
  const auto a = standard_partition(nl, oracle, sizes);
  const auto b = standard_partition(nl, oracle, sizes);
  EXPECT_EQ(a, b);
}

TEST(StandardPartition, RejectsWrongTotal) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  EXPECT_THROW((void)standard_partition(nl, oracle,
                                        std::vector<std::size_t>{3, 2}),
               Error);
}

TEST(StandardPartition, RejectsZeroSizeModule) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  EXPECT_THROW((void)standard_partition(nl, oracle,
                                        std::vector<std::size_t>{6, 0}),
               Error);
}

TEST(StandardPartition, SingleModuleTakesEverything) {
  const auto nl = netlist::gen::make_c17();
  const netlist::DistanceOracle oracle(nl, 4);
  const auto p =
      standard_partition(nl, oracle, std::vector<std::size_t>{6});
  EXPECT_EQ(p.module_count(), 1u);
  EXPECT_EQ(p.module_size(0), 6u);
}

}  // namespace
}  // namespace iddq::core
