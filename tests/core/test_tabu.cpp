#include "core/tabu.hpp"

#include <gtest/gtest.h>

#include "core/optimizer_registry.hpp"
#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("tabu", 180, 12, 4));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  part::Partition start() {
    Rng rng(2);
    return make_start_partition(nl, 3, rng);
  }

  OptimizerRequest request(std::uint64_t seed) {
    OptimizerRequest req;
    req.ctx = &ctx;
    req.start = start();
    req.seed = seed;
    return req;
  }
};

OptimizerConfig rounds(std::size_t n) {
  OptimizerConfig cfg;
  cfg.tabu.iterations = n;
  return cfg;
}

TEST(Tabu, ImprovesOverStart) {
  Fixture f;
  part::PartitionEvaluator start_eval(f.ctx, f.start());
  const double start_cost = start_eval.fitness().cost;
  const auto result = run_tabu(f.request(7), rounds(150));
  EXPECT_LE(result.fitness.cost, start_cost);
  EXPECT_GT(result.evaluations, 1u);
}

TEST(Tabu, KeepsModuleCountFixed) {
  Fixture f;
  const auto result = run_tabu(f.request(3), rounds(100));
  EXPECT_EQ(result.partition.module_count(), 3u);
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(Tabu, DeterministicForSeed) {
  Fixture f;
  const auto a = run_tabu(f.request(11), rounds(120));
  const auto b = run_tabu(f.request(11), rounds(120));
  EXPECT_EQ(a.fitness.cost, b.fitness.cost);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Tabu, OnRoundTicksLiveWithoutChangingTheRun) {
  Fixture f;
  const auto expected = run_tabu(f.request(11), rounds(120));

  auto req = f.request(11);
  std::size_t ticks = 0;
  std::size_t last_round = 0;
  req.on_progress = [&](const OptimizerProgress& p) {
    ++ticks;
    EXPECT_EQ(p.method, "tabu");
    EXPECT_GE(p.iteration, last_round);
    EXPECT_GT(p.evaluations, 0u);
    EXPECT_TRUE(p.best.cost == p.best.cost);  // populated (not NaN)
    last_round = p.iteration;
  };
  const auto observed = run_tabu(req, rounds(120));

  // Live ticks every 25 rounds of the rounds actually run, then the
  // completion tick.
  EXPECT_EQ(ticks, (observed.iterations - 1) / 25 + 1);
  EXPECT_EQ(observed.fitness.cost, expected.fitness.cost);
  EXPECT_EQ(observed.partition, expected.partition);
  EXPECT_EQ(observed.evaluations, expected.evaluations);
  EXPECT_EQ(observed.iterations, expected.iterations);
}

TEST(Tabu, BestCostsMatchReEvaluation) {
  Fixture f;
  const auto result = run_tabu(f.request(5), rounds(80));
  part::PartitionEvaluator check(f.ctx, result.partition);
  EXPECT_NEAR(check.fitness().cost, result.fitness.cost,
              1e-9 * result.fitness.cost);
}

TEST(Tabu, RejectsBadParams) {
  Fixture f;
  EXPECT_THROW((void)run_tabu(f.request(1), rounds(0)), Error);
  OptimizerConfig cfg;
  cfg.tabu.candidates = 0;
  EXPECT_THROW((void)run_tabu(f.request(1), cfg), Error);
}

TEST(Tabu, BudgetBoundsEvaluations) {
  Fixture f;
  const auto optimizer = OptimizerRegistry::global().make("tabu");
  auto request = f.request(17);
  request.max_evaluations = 200;
  const auto outcome = optimizer->run(request);
  // rounds = budget / candidates; each round spends at most `candidates`
  // evaluations, plus one for the start evaluation.
  EXPECT_LE(outcome.evaluations, 200u + 1u);
}

}  // namespace
}  // namespace iddq::core
