#include "core/evolution.hpp"

#include <gtest/gtest.h>

#include "core/neighborhood.hpp"
#include "core/start_partition.hpp"
#include "netlist/gen/c17.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("evo", 200, 12, 7));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  EsParams quick_params() const {
    EsParams p;
    p.mu = 4;
    p.lambda = 4;
    p.chi = 1;
    p.max_generations = 30;
    p.stall_generations = 30;
    p.seed = 3;
    return p;
  }
};

TEST(Evolution, BoundaryGatesAreExactlyTheCut) {
  const auto nl = netlist::gen::make_c17();
  const auto library = lib::default_library();
  const part::EvalContext ctx(nl, library, elec::SensorSpec{},
                              part::CostWeights{});
  part::PartitionEvaluator eval(
      ctx, part::Partition::from_groups(
               nl, std::vector<std::vector<netlist::GateId>>{
                       {nl.at("10"), nl.at("16"), nl.at("22")},
                       {nl.at("11"), nl.at("19"), nl.at("23")}}));
  std::vector<netlist::GateId> boundary;
  // Module 0: 16 is fed by 11 (module 1) and feeds 23 (module 1) ->
  // boundary; 22's fanins 10 and 16 are internal and it has no fanout;
  // 10 has only input fanins and feeds 22 -> interior.
  eval.boundary(0, boundary);
  ASSERT_EQ(boundary.size(), 1u);
  EXPECT_EQ(boundary[0], nl.at("16"));
  // Module 1: 11 feeds 16 (module 0) -> boundary; 19 is fed by 11 and
  // feeds 23, both internal -> interior; 23 fed by 16 -> boundary.
  eval.boundary(1, boundary);
  EXPECT_EQ(boundary,
            (std::vector<netlist::GateId>{nl.at("11"), nl.at("23")}));
  // A committed move keeps the counts current: with 16 in module 1, only
  // 22 (fed by 16) is left on module 0's side of the cut, and 11 and 23
  // are interior to module 1.
  eval.move_gate(nl.at("16"), 1);
  eval.boundary(0, boundary);
  EXPECT_EQ(boundary, (std::vector<netlist::GateId>{nl.at("22")}));
  eval.boundary(1, boundary);
  EXPECT_EQ(boundary, (std::vector<netlist::GateId>{nl.at("16")}));
  EXPECT_NO_THROW(eval.self_check());
}

TEST(Evolution, ImprovesOverStartPartitions) {
  Fixture f;
  Rng rng(1);
  std::vector<part::Partition> starts;
  for (int i = 0; i < 4; ++i)
    starts.push_back(make_start_partition(f.nl, 3, rng));
  part::PartitionEvaluator start_eval(f.ctx, starts[0]);
  const double start_cost = start_eval.fitness().cost;

  EvolutionEngine engine(f.ctx, f.quick_params());
  const auto result = engine.run(starts);
  EXPECT_TRUE(result.best_fitness.feasible());
  EXPECT_LT(result.best_fitness.cost, start_cost);
  EXPECT_GT(result.evaluations, 4u);
}

TEST(Evolution, DeterministicForSeed) {
  Fixture f;
  EvolutionEngine a(f.ctx, f.quick_params());
  EvolutionEngine b(f.ctx, f.quick_params());
  const auto ra = a.run_with_module_count(3);
  const auto rb = b.run_with_module_count(3);
  EXPECT_EQ(ra.best_fitness.cost, rb.best_fitness.cost);
  EXPECT_EQ(ra.best_partition, rb.best_partition);
  EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(Evolution, OnGenerationTicksLiveWithoutChangingTheRun) {
  Fixture f;
  EvolutionEngine plain(f.ctx, f.quick_params());
  const auto expected = plain.run_with_module_count(3);

  auto params = f.quick_params();
  std::size_t ticks = 0;
  std::size_t last_generation = 0;
  std::size_t last_evaluations = 0;
  params.on_generation = [&](const GenerationStats& g) {
    ++ticks;
    EXPECT_EQ(g.generation, last_generation + 1);  // every generation, in order
    EXPECT_GT(g.evaluations, last_evaluations);    // cumulative counter
    last_generation = g.generation;
    last_evaluations = g.evaluations;
  };
  EvolutionEngine observed(f.ctx, params);
  const auto result = observed.run_with_module_count(3);

  // The observer reported every generation and never perturbed the search.
  EXPECT_EQ(ticks, result.generations);
  EXPECT_EQ(last_evaluations, result.evaluations);
  EXPECT_EQ(result.best_partition, expected.best_partition);
  EXPECT_EQ(result.best_fitness.cost, expected.best_fitness.cost);
  EXPECT_EQ(result.evaluations, expected.evaluations);
  // The callback alone does not record a trace.
  EXPECT_TRUE(result.trace.empty());
}

TEST(Evolution, BestPartitionCoversCircuit) {
  Fixture f;
  EvolutionEngine engine(f.ctx, f.quick_params());
  const auto result = engine.run_with_module_count(3);
  EXPECT_TRUE(result.best_partition.covers(f.nl));
}

TEST(Evolution, ResultCostsMatchReEvaluation) {
  Fixture f;
  EvolutionEngine engine(f.ctx, f.quick_params());
  const auto result = engine.run_with_module_count(3);
  part::PartitionEvaluator check(f.ctx, result.best_partition);
  EXPECT_NEAR(check.fitness().cost, result.best_fitness.cost,
              1e-9 * result.best_fitness.cost);
}

TEST(Evolution, TraceIsMonotoneNonIncreasing) {
  Fixture f;
  auto params = f.quick_params();
  params.record_trace = true;
  EvolutionEngine engine(f.ctx, params);
  const auto result = engine.run_with_module_count(3);
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_LE(result.trace[i].best.cost, result.trace[i - 1].best.cost);
}

TEST(Evolution, StallStopsEarly) {
  Fixture f;
  auto params = f.quick_params();
  params.max_generations = 1000;
  params.stall_generations = 5;
  EvolutionEngine engine(f.ctx, params);
  const auto result = engine.run_with_module_count(3);
  EXPECT_LT(result.generations, 1000u);
}

TEST(Evolution, MonteCarloChildrenCanReduceModuleCount) {
  // With many small start modules and room to merge, the MC moves that
  // empty a module must sometimes fire; K at the optimum is <= start K.
  Fixture f;
  auto params = f.quick_params();
  params.max_generations = 60;
  EvolutionEngine engine(f.ctx, params);
  const auto result = engine.run_with_module_count(6);
  EXPECT_LE(result.best_partition.module_count(), 6u);
  EXPECT_GE(result.best_partition.module_count(), 1u);
}

TEST(Evolution, InfeasibleStartRecovers) {
  // Start with K=1 on a circuit whose leakage demands several modules: the
  // lexicographic selection must drive the violation to zero...  K can only
  // shrink through MC deletion, so instead start with many modules but a
  // deliberately terrible (random scatter) assignment.
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const auto library = lib::default_library();
  const part::EvalContext ctx(nl, library, elec::SensorSpec{},
                              part::CostWeights{});
  Rng rng(17);
  // Random scatter over 2 modules (feasible count for c1908).
  std::vector<std::vector<netlist::GateId>> groups(2);
  for (const auto g : nl.logic_gates()) groups[rng.index(2)].push_back(g);
  EsParams params;
  params.mu = 4;
  params.lambda = 4;
  params.chi = 1;
  params.max_generations = 25;
  params.stall_generations = 25;
  params.seed = 5;
  EvolutionEngine engine(ctx, params);
  const std::vector<part::Partition> starts = {
      part::Partition::from_groups(nl, groups)};
  const auto result = engine.run(starts);
  EXPECT_TRUE(result.best_fitness.feasible());
}

TEST(Evolution, ParameterValidation) {
  Fixture f;
  EsParams params = f.quick_params();
  params.mu = 0;
  EXPECT_THROW((EvolutionEngine(f.ctx, params)), Error);
  params = f.quick_params();
  params.lambda = 0;
  params.chi = 0;
  EXPECT_THROW((EvolutionEngine(f.ctx, params)), Error);
  params = f.quick_params();
  params.m0 = 100;
  params.m_max = 50;
  EXPECT_THROW((EvolutionEngine(f.ctx, params)), Error);
}

TEST(Evolution, RunRequiresStartPartitions) {
  Fixture f;
  EvolutionEngine engine(f.ctx, f.quick_params());
  EXPECT_THROW((void)engine.run({}), Error);
}

}  // namespace
}  // namespace iddq::core
