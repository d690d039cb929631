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

  static OptimizerConfig quick_config() {
    OptimizerConfig cfg;
    cfg.es.mu = 4;
    cfg.es.lambda = 4;
    cfg.es.chi = 1;
    cfg.es.max_generations = 30;
    cfg.es.stall_generations = 30;
    return cfg;
  }

  /// Chain-clustered starts at `modules` modules, seed 3.
  OptimizerRequest request(std::size_t modules = 3) const {
    OptimizerRequest req;
    req.ctx = &ctx;
    req.module_count = modules;
    req.seed = 3;
    return req;
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
  auto req = f.request();
  req.start = make_start_partition(f.nl, 3, rng);
  part::PartitionEvaluator start_eval(f.ctx, *req.start);
  const double start_cost = start_eval.fitness().cost;

  const auto result = run_evolution(req, f.quick_config());
  EXPECT_TRUE(result.fitness.feasible());
  EXPECT_LT(result.fitness.cost, start_cost);
  EXPECT_GT(result.evaluations, 4u);
}

TEST(Evolution, DeterministicForSeed) {
  Fixture f;
  const auto ra = run_evolution(f.request(), f.quick_config());
  const auto rb = run_evolution(f.request(), f.quick_config());
  EXPECT_EQ(ra.fitness.cost, rb.fitness.cost);
  EXPECT_EQ(ra.partition, rb.partition);
  EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(Evolution, OnGenerationTicksLiveWithoutChangingTheRun) {
  Fixture f;
  const auto expected = run_evolution(f.request(), f.quick_config());

  auto req = f.request();
  std::size_t ticks = 0;
  std::size_t last_generation = 0;
  std::size_t last_evaluations = 0;
  req.on_progress = [&](const OptimizerProgress& p) {
    ++ticks;
    EXPECT_EQ(p.method, "evolution");
    if (ticks > expected.iterations) {  // the completion tick
      EXPECT_EQ(p.iteration, last_generation);
      return;
    }
    EXPECT_EQ(p.iteration, last_generation + 1);  // every generation, in order
    EXPECT_GT(p.evaluations, last_evaluations);   // cumulative counter
    last_generation = p.iteration;
    last_evaluations = p.evaluations;
  };
  const auto result = run_evolution(req, f.quick_config());

  // The observer saw every generation plus the completion tick and never
  // perturbed the search.
  EXPECT_EQ(ticks, result.iterations + 1);
  EXPECT_EQ(last_evaluations, result.evaluations);
  EXPECT_EQ(result.partition, expected.partition);
  EXPECT_EQ(result.fitness.cost, expected.fitness.cost);
  EXPECT_EQ(result.evaluations, expected.evaluations);
  // The callback alone does not record a trace.
  EXPECT_TRUE(result.trace.empty());
}

TEST(Evolution, BestPartitionCoversCircuit) {
  Fixture f;
  const auto result = run_evolution(f.request(), f.quick_config());
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(Evolution, ResultCostsMatchReEvaluation) {
  Fixture f;
  const auto result = run_evolution(f.request(), f.quick_config());
  part::PartitionEvaluator check(f.ctx, result.partition);
  EXPECT_NEAR(check.fitness().cost, result.fitness.cost,
              1e-9 * result.fitness.cost);
}

TEST(Evolution, TraceIsMonotoneNonIncreasing) {
  Fixture f;
  auto req = f.request();
  req.record_trace = true;
  const auto result = run_evolution(req, f.quick_config());
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_LE(result.trace[i].best.cost, result.trace[i - 1].best.cost);
}

TEST(Evolution, StallStopsEarly) {
  Fixture f;
  auto cfg = f.quick_config();
  cfg.es.max_generations = 1000;
  cfg.es.stall_generations = 5;
  const auto result = run_evolution(f.request(), cfg);
  EXPECT_LT(result.iterations, 1000u);
}

TEST(Evolution, MonteCarloChildrenCanReduceModuleCount) {
  // With many small start modules and room to merge, the MC moves that
  // empty a module must sometimes fire; K at the optimum is <= start K.
  Fixture f;
  auto cfg = f.quick_config();
  cfg.es.max_generations = 60;
  const auto result = run_evolution(f.request(6), cfg);
  EXPECT_LE(result.partition.module_count(), 6u);
  EXPECT_GE(result.partition.module_count(), 1u);
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
  OptimizerConfig cfg;
  cfg.es.mu = 4;
  cfg.es.lambda = 4;
  cfg.es.chi = 1;
  cfg.es.max_generations = 25;
  cfg.es.stall_generations = 25;
  OptimizerRequest req;
  req.ctx = &ctx;
  req.start = part::Partition::from_groups(nl, groups);
  req.seed = 5;
  const auto result = run_evolution(req, cfg);
  EXPECT_TRUE(result.fitness.feasible());
}

TEST(Evolution, ParameterValidation) {
  Fixture f;
  OptimizerConfig cfg = f.quick_config();
  cfg.es.mu = 0;
  EXPECT_THROW((void)run_evolution(f.request(), cfg), Error);
  cfg = f.quick_config();
  cfg.es.lambda = 0;
  cfg.es.chi = 0;
  EXPECT_THROW((void)run_evolution(f.request(), cfg), Error);
  cfg = f.quick_config();
  cfg.es.m0 = 100;
  cfg.es.m_max = 50;
  EXPECT_THROW((void)run_evolution(f.request(), cfg), Error);
}

}  // namespace
}  // namespace iddq::core
