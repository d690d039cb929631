#include "core/refiner.hpp"

#include <gtest/gtest.h>

#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("ref", 150, 10, 6));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  /// Refines `start` with the default budget (or `budget`).
  OptimizerOutcome refine(part::Partition start,
                          std::size_t budget = 0) const {
    OptimizerRequest req;
    req.ctx = &ctx;
    req.start = std::move(start);
    req.max_evaluations = budget;
    return run_greedy(req, OptimizerConfig{});
  }

  part::Partition start(std::uint64_t seed, std::size_t modules = 3) const {
    Rng rng(seed);
    return make_start_partition(nl, modules, rng);
  }
};

TEST(Refiner, NeverWorsensFitness) {
  Fixture f;
  part::PartitionEvaluator eval(f.ctx, f.start(3));
  const auto before = eval.fitness();
  const auto result = f.refine(f.start(3));
  EXPECT_FALSE(before < result.fitness);  // <= in fitness order
  EXPECT_GE(result.evaluations, 1u);
}

TEST(Refiner, ReachesLocalOptimumOfOneMoveNeighbourhood) {
  Fixture f;
  const auto first = f.refine(f.start(4));
  EXPECT_GT(first.iterations, 0u);
  // Refining the result again finds nothing further.
  const auto second = f.refine(first.partition);
  EXPECT_EQ(second.iterations, 0u);
}

TEST(Refiner, KeepsModuleCount) {
  Fixture f;
  const auto result = f.refine(f.start(5, 4));
  EXPECT_EQ(result.partition.module_count(), 4u);
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(Refiner, FinalFitnessMatchesEvaluatorState) {
  Fixture f;
  const auto result = f.refine(f.start(6));
  EXPECT_NEAR(result.costs.total(f.ctx.weights), result.fitness.cost,
              1e-12 * result.fitness.cost);
  part::PartitionEvaluator check(f.ctx, result.partition);
  EXPECT_NEAR(check.fitness().cost, result.fitness.cost,
              1e-9 * result.fitness.cost);
}

TEST(Refiner, RespectsEvaluationBudget) {
  Fixture f;
  const auto result = f.refine(f.start(7), 10);
  EXPECT_LE(result.evaluations, 10u);
}

}  // namespace
}  // namespace iddq::core
