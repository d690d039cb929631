#include "core/annealing.hpp"

#include <gtest/gtest.h>

#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("sa", 180, 12, 4));
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

OptimizerConfig steps(std::size_t n) {
  OptimizerConfig cfg;
  cfg.sa.steps = n;
  return cfg;
}

TEST(Annealing, ImprovesOverStart) {
  Fixture f;
  part::PartitionEvaluator start_eval(f.ctx, f.start());
  const double start_cost = start_eval.fitness().cost;
  const auto result = run_annealing(f.request(7), steps(3000));
  EXPECT_LT(result.fitness.cost, start_cost);
  EXPECT_EQ(result.evaluations, 3001u);
}

TEST(Annealing, KeepsModuleCountFixed) {
  Fixture f;
  const auto result = run_annealing(f.request(3), steps(2000));
  EXPECT_EQ(result.partition.module_count(), 3u);
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(Annealing, DeterministicForSeed) {
  Fixture f;
  const auto a = run_annealing(f.request(11), steps(1500));
  const auto b = run_annealing(f.request(11), steps(1500));
  EXPECT_EQ(a.fitness.cost, b.fitness.cost);
  EXPECT_EQ(a.partition, b.partition);
}

TEST(Annealing, OnStepTicksLiveWithoutChangingTheRun) {
  Fixture f;
  const auto expected = run_annealing(f.request(5), steps(4500));

  auto req = f.request(5);
  std::size_t ticks = 0;
  std::size_t last_step = 0;
  req.on_progress = [&](const OptimizerProgress& p) {
    ++ticks;
    EXPECT_EQ(p.method, "annealing");
    EXPECT_GT(p.iteration, last_step);
    EXPECT_GT(p.evaluations, 0u);
    EXPECT_LE(p.best.cost, 1e12);
    last_step = p.iteration;
  };
  const auto observed = run_annealing(req, steps(4500));

  // Live ticks every 1000 steps, then the completion tick.
  EXPECT_EQ(ticks, 4u + 1u);
  EXPECT_EQ(observed.fitness.cost, expected.fitness.cost);
  EXPECT_EQ(observed.partition, expected.partition);
  EXPECT_EQ(observed.evaluations, expected.evaluations);
}

TEST(Annealing, BestCostsMatchReEvaluation) {
  Fixture f;
  const auto result = run_annealing(f.request(5), steps(1000));
  part::PartitionEvaluator check(f.ctx, result.partition);
  EXPECT_NEAR(check.fitness().cost, result.fitness.cost,
              1e-9 * result.fitness.cost);
}

TEST(Annealing, RejectsBadParams) {
  Fixture f;
  EXPECT_THROW((void)run_annealing(f.request(1), steps(0)), Error);
  OptimizerConfig cfg;
  cfg.sa.cooling = 1.5;
  EXPECT_THROW((void)run_annealing(f.request(1), cfg), Error);
}

}  // namespace
}  // namespace iddq::core
