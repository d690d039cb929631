// The contract at the heart of the evolution strategy (paper section 4.2:
// "costs are recomputed just for the modified modules"): after any sequence
// of gate moves, the incrementally maintained evaluator state must equal a
// from-scratch evaluation of the same partition.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "core/neighborhood.hpp"
#include "core/start_partition.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "partition/evaluator.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace iddq::part {
namespace {

struct Scenario {
  std::size_t gates;
  std::size_t depth;
  std::size_t modules;
  std::uint64_t seed;
};

class IncrementalEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(IncrementalEquivalence, RandomMoveSequenceMatchesFullRecompute) {
  const Scenario s = GetParam();
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("inc", s.gates, s.depth, s.seed));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(s.seed * 7919 + 13);
  PartitionEvaluator eval(ctx,
                          core::make_start_partition(nl, s.modules, rng));

  const auto logic = nl.logic_gates();
  for (int step = 0; step < 120; ++step) {
    const netlist::GateId g = logic[rng.index(logic.size())];
    if (eval.partition().module_count() < 2) break;
    const auto target = static_cast<std::uint32_t>(
        rng.index(eval.partition().module_count()));
    eval.move_gate(g, target);

    if (step % 20 == 19) {
      // Structural caches: exact equality enforced by self_check.
      ASSERT_NO_THROW(eval.self_check()) << "step " << step;
      // Derived costs: full recompute on a fresh evaluator must agree.
      PartitionEvaluator fresh(ctx, eval.partition());
      const Costs a = eval.costs();
      const Costs b = fresh.costs();
      ASSERT_LT(math::rel_diff(a.c1, b.c1), 1e-9);
      ASSERT_LT(math::rel_diff(a.c2, b.c2), 1e-9);
      ASSERT_LT(math::rel_diff(a.c3, b.c3), 1e-9);
      ASSERT_LT(math::rel_diff(a.c4, b.c4), 1e-9);
      ASSERT_DOUBLE_EQ(a.c5, b.c5);
      ASSERT_LT(math::rel_diff(eval.violation(), fresh.violation()), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, IncrementalEquivalence,
    ::testing::Values(Scenario{60, 6, 2, 1}, Scenario{60, 6, 3, 2},
                      Scenario{150, 12, 4, 3}, Scenario{150, 12, 2, 4},
                      Scenario{300, 15, 5, 5}, Scenario{300, 15, 3, 6},
                      Scenario{500, 20, 6, 7}, Scenario{500, 20, 4, 8}));

/// A fresh seed per run, or IDDQ_TEST_SEED to replay a failing one.
std::uint64_t run_seed() {
  if (const char* env = std::getenv("IDDQ_TEST_SEED"))
    return std::strtoull(env, nullptr, 0);
  std::random_device device;
  return (std::uint64_t{device()} << 32) ^ device();
}

TEST(Incremental, RandomSeedMovesKeepDbicEqualToFullPass) {
  // Differential over fresh seeds on c1908 and an ILA: random module
  // counts and random single-gate moves, with probes (which take and carry
  // the slack certificate) and copies mixed in. After every step,
  // self_check() recomputes D_BIC with est::degraded_critical_path_ps
  // over the evaluator's factors and requires d_bic_ps() bit for bit,
  // whichever path — certified commit, sparse propagate or full rebuild —
  // produced it.
  const std::uint64_t seed = run_seed();
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (replay with IDDQ_TEST_SEED=" + std::to_string(seed) + ")");
  const auto library = lib::default_library();
  for (const char* circuit : {"c1908", "ila8x4"}) {
    SCOPED_TRACE(circuit);
    const netlist::Netlist nl = netlist::load_circuit(circuit);
    const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
    Rng rng(Rng::mix_seed(seed, nl.gate_count()));
    const std::size_t k = 2 + rng.index(std::min<std::size_t>(
                                  40, nl.logic_gate_count() / 4));
    PartitionEvaluator eval(ctx, core::make_start_partition(nl, k, rng));
    const auto logic = nl.logic_gates();
    for (int step = 0; step < 120; ++step) {
      const std::uint64_t action = rng.below(8);
      if (action == 0) {
        eval = PartitionEvaluator(eval);
      } else if (action < 3) {
        const Move mv = core::sample_boundary_move(eval, rng);
        if (mv.valid()) (void)eval.probe_move(mv.gate, mv.target);
      } else if (eval.partition().module_count() > 1) {
        const netlist::GateId g = logic[rng.index(logic.size())];
        eval.move_gate(g, static_cast<std::uint32_t>(rng.index(
                              eval.partition().module_count())));
      }
      (void)eval.d_bic_ps();
      ASSERT_NO_THROW(eval.self_check()) << "step " << step;
    }
  }
}

TEST(Incremental, ModuleErasureKeepsCachesConsistent) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("erase", 80, 8, 42));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(99);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 5, rng));

  // Drain slot 0 into slot 1 until a single module remains. Every emptied
  // module triggers an erasure (slot reshuffle); the evaluator caches must
  // stay consistent through each one.
  std::size_t erasures = 0;
  while (eval.partition().module_count() > 1) {
    const std::size_t k_before = eval.partition().module_count();
    const netlist::GateId g = eval.partition().module(0)[0];
    eval.move_gate(g, 1);
    if (eval.partition().module_count() < k_before) {
      ++erasures;
      ASSERT_NO_THROW(eval.self_check());
    }
  }
  EXPECT_EQ(eval.partition().module_count(), 1u);
  EXPECT_EQ(erasures, 4u);  // 5 start modules collapsed into one
}

TEST(Incremental, EvaluatorCopyIsIndependent) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("copy", 100, 10, 17));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(5);
  PartitionEvaluator parent(ctx, core::make_start_partition(nl, 3, rng));
  const Costs before = parent.costs();

  PartitionEvaluator child = parent;  // the ES recombination step
  const auto logic = nl.logic_gates();
  for (int i = 0; i < 30; ++i) {
    if (child.partition().module_count() < 2) break;
    child.move_gate(
        logic[rng.index(logic.size())],
        static_cast<std::uint32_t>(rng.index(child.partition().module_count())));
  }
  ASSERT_NO_THROW(child.self_check());
  // The parent must be untouched by the child's mutations.
  const Costs after = parent.costs();
  EXPECT_DOUBLE_EQ(before.total(CostWeights{}), after.total(CostWeights{}));
}

}  // namespace
}  // namespace iddq::part
