// Adapter-vs-direct equivalence: at the same seed and budget, every
// registry adapter must reproduce the exact result (partition, fitness,
// evaluation count) of the pre-refactor direct entry point it wraps.
#include <gtest/gtest.h>

#include <vector>

#include "core/annealing.hpp"
#include "core/evolution.hpp"
#include "core/flow_engine.hpp"
#include "core/optimizer_registry.hpp"
#include "core/random_search.hpp"
#include "core/refiner.hpp"
#include "core/standard_partition.hpp"
#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("equiv", 220, 12, 9));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};
  static constexpr std::size_t kModules = 3;
  static constexpr std::uint64_t kSeed = 7;

  part::Partition start() const {
    Rng rng(2);
    return make_start_partition(nl, kModules, rng);
  }

  OptimizerRequest request() const {
    OptimizerRequest req;
    req.ctx = &ctx;
    req.module_count = kModules;
    req.seed = kSeed;
    return req;
  }
};

void expect_same(const OptimizerOutcome& adapter, const part::Partition& p,
                 const part::Fitness& f, std::size_t evaluations) {
  EXPECT_EQ(adapter.partition, p);
  EXPECT_EQ(adapter.fitness.violation, f.violation);
  EXPECT_EQ(adapter.fitness.cost, f.cost);
  EXPECT_EQ(adapter.evaluations, evaluations);
}

TEST(OptimizerEquivalence, Evolution) {
  Fixture f;
  EsParams params;
  params.mu = 4;
  params.lambda = 4;
  params.chi = 1;
  params.max_generations = 25;
  params.stall_generations = 10;
  params.seed = Fixture::kSeed;
  EvolutionEngine engine(f.ctx, params);
  const EsResult direct = engine.run_with_module_count(Fixture::kModules);

  OptimizerConfig cfg;
  cfg.es = params;
  cfg.es.seed = 999;  // adapter must take the seed from the request
  const auto adapter =
      OptimizerRegistry::global().make("evolution", cfg)->run(f.request());
  expect_same(adapter, direct.best_partition, direct.best_fitness,
              direct.evaluations);
  EXPECT_EQ(adapter.iterations, direct.generations);
}

TEST(OptimizerEquivalence, Annealing) {
  Fixture f;
  SaParams params;
  params.steps = 1500;
  params.seed = Fixture::kSeed;
  const SaResult direct = simulated_annealing(f.ctx, f.start(), params);

  OptimizerConfig cfg;
  cfg.sa = params;
  cfg.sa.seed = 999;
  auto req = f.request();
  req.start = f.start();
  const auto adapter =
      OptimizerRegistry::global().make("annealing", cfg)->run(req);
  expect_same(adapter, direct.best_partition, direct.best_fitness,
              direct.evaluations);
}

TEST(OptimizerEquivalence, AnnealingBudgetOverridesSteps) {
  Fixture f;
  SaParams params;
  params.steps = 600;
  params.seed = Fixture::kSeed;
  const SaResult direct = simulated_annealing(f.ctx, f.start(), params);

  OptimizerConfig cfg;
  cfg.sa = params;
  cfg.sa.steps = 123456;  // must be overridden by the request budget
  auto req = f.request();
  req.start = f.start();
  req.max_evaluations = 600;
  const auto adapter =
      OptimizerRegistry::global().make("annealing", cfg)->run(req);
  expect_same(adapter, direct.best_partition, direct.best_fitness,
              direct.evaluations);
}

TEST(OptimizerEquivalence, RandomSearch) {
  Fixture f;
  const RandomSearchResult direct =
      random_search(f.ctx, Fixture::kModules, 300, Fixture::kSeed);

  OptimizerConfig cfg;
  cfg.random_samples = 300;
  const auto adapter =
      OptimizerRegistry::global().make("random", cfg)->run(f.request());
  expect_same(adapter, direct.best_partition, direct.best_fitness,
              direct.evaluations);
}

TEST(OptimizerEquivalence, Greedy) {
  Fixture f;
  part::PartitionEvaluator eval(f.ctx, f.start());
  const RefineResult direct = greedy_refine(eval, 5000);

  auto req = f.request();
  req.start = f.start();
  req.max_evaluations = 5000;
  const auto adapter = OptimizerRegistry::global().make("greedy")->run(req);
  expect_same(adapter, eval.partition(), direct.final_fitness,
              direct.evaluations);
  EXPECT_EQ(adapter.iterations, direct.moves_applied);
}

TEST(OptimizerEquivalence, Standard) {
  Fixture f;
  const auto start = f.start();
  std::vector<std::size_t> sizes;
  for (std::uint32_t m = 0; m < start.module_count(); ++m)
    sizes.push_back(start.module_size(m));
  const auto direct = standard_partition(f.nl, f.ctx.oracle, sizes);

  auto req = f.request();
  req.start = start;
  const auto adapter = OptimizerRegistry::global().make("standard")->run(req);
  EXPECT_EQ(adapter.partition, direct);
  part::PartitionEvaluator eval(f.ctx, direct);
  EXPECT_EQ(adapter.fitness.cost, eval.fitness().cost);
}

TEST(OptimizerEquivalence, ComposedPipelineMatchesManualChaining) {
  Fixture f;
  EsParams params;
  params.mu = 3;
  params.lambda = 3;
  params.chi = 1;
  params.max_generations = 15;
  params.stall_generations = 8;
  OptimizerConfig cfg;
  cfg.es = params;

  auto& reg = OptimizerRegistry::global();
  const auto es_out = reg.make("evolution", cfg)->run(f.request());
  auto polish_req = f.request();
  polish_req.start = es_out.partition;
  const auto greedy_out = reg.make("greedy", cfg)->run(polish_req);

  const auto composed = reg.make("evolution+greedy", cfg)->run(f.request());
  EXPECT_EQ(composed.method, "evolution+greedy");
  EXPECT_EQ(composed.partition, greedy_out.partition);
  EXPECT_EQ(composed.fitness.cost, greedy_out.fitness.cost);
  EXPECT_EQ(composed.evaluations,
            es_out.evaluations + greedy_out.evaluations);
}

TEST(OptimizerEquivalence, ComposedPipelineSharesTheRequestBudget) {
  Fixture f;
  auto req = f.request();
  req.start = f.start();
  req.max_evaluations = 500;
  const auto out =
      OptimizerRegistry::global().make("annealing+greedy")->run(req);
  // Annealing consumes (about) the whole budget; greedy must not add its
  // 100000-evaluation default on top.
  EXPECT_LE(out.evaluations, 520u);
}

TEST(OptimizerEquivalence, ComposedPipelineKeepsBestStageResult) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.random_samples = 10;  // a weak polish stage that ignores its start
  auto req = f.request();
  req.start = f.start();
  auto& reg = OptimizerRegistry::global();
  const auto greedy = reg.make("greedy", cfg)->run(req);
  const auto composed = reg.make("greedy+random", cfg)->run(req);
  EXPECT_FALSE(greedy.fitness < composed.fitness);
}

// The engine's ES row (the first half of run_paper_pair) must be the
// direct ES result at the planned module count.
TEST(OptimizerEquivalence, RunFlowMatchesDirectEvolution) {
  Fixture f;
  FlowEngineConfig config;
  EsParams& es = config.optimizers.es;
  es.mu = 4;
  es.lambda = 4;
  es.chi = 1;
  es.max_generations = 25;
  es.stall_generations = 10;
  es.seed = Fixture::kSeed;
  FlowEngine flow(f.nl, f.library, config);
  const auto evolution = flow.run_paper_pair(Fixture::kSeed).evolution;

  part::EvalContext ctx(f.nl, f.library, config.sensor, config.weights,
                        config.rho);
  EvolutionEngine engine(ctx, es);
  const auto direct = engine.run_with_module_count(flow.plan().module_count);
  EXPECT_EQ(evolution.partition, direct.best_partition);
  EXPECT_EQ(evolution.fitness.cost, direct.best_fitness.cost);
  EXPECT_EQ(evolution.evaluations, direct.evaluations);
  EXPECT_EQ(evolution.iterations, direct.generations);
}

}  // namespace
}  // namespace iddq::core
