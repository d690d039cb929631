// Entry-point equivalence: FlowEngine rows, registry optimizers and the
// per-method run_<name> entry points are three ways to run one search, and
// at the same seed, start and budget they must agree exactly (partition,
// fitness bits, evaluation and iteration counts). The composed pipelines
// must equal their stages chained by hand.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/annealing.hpp"
#include "core/evolution.hpp"
#include "core/flow_engine.hpp"
#include "core/optimizer_registry.hpp"
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

  static FlowEngineConfig flow_config() {
    FlowEngineConfig config;
    config.optimizers.es.mu = 4;
    config.optimizers.es.lambda = 4;
    config.optimizers.es.chi = 1;
    config.optimizers.es.max_generations = 25;
    config.optimizers.es.stall_generations = 10;
    config.optimizers.sa.steps = 1500;
    config.optimizers.random_samples = 300;
    return config;
  }
};

void expect_same(const OptimizerOutcome& got, const part::Partition& p,
                 const part::Fitness& f, std::size_t evaluations) {
  EXPECT_EQ(got.partition, p);
  EXPECT_EQ(got.fitness.violation, f.violation);
  EXPECT_EQ(got.fitness.cost, f.cost);
  EXPECT_EQ(got.evaluations, evaluations);
}

/// A FlowEngine row must be the registry run of the same spec on the
/// engine's own context, planned module count, seed, start and budget.
void expect_row_is_registry_run(const Fixture& f, const std::string& spec,
                                const FlowEngine::RunOptions& options) {
  const FlowEngineConfig config = Fixture::flow_config();
  FlowEngine engine(f.nl, f.library, config);
  const MethodResult row = engine.run_method(spec, options);

  OptimizerRequest req;
  req.ctx = &engine.context();
  if (options.start != nullptr) req.start = *options.start;
  req.module_count = engine.plan().module_count;
  req.max_evaluations = options.max_evaluations;
  req.seed = options.seed;
  const OptimizerOutcome direct =
      OptimizerRegistry::global().make(spec, config.optimizers)->run(req);
  EXPECT_EQ(row.method, direct.method);
  expect_same(direct, row.partition, row.fitness, row.evaluations);
  EXPECT_EQ(row.iterations, direct.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(row.costs.c2),
            std::bit_cast<std::uint64_t>(direct.costs.c2));
}

TEST(OptimizerEquivalence, Evolution) {
  const Fixture f;
  const part::Partition start = f.start();
  expect_row_is_registry_run(f, "evolution",
                             {.seed = Fixture::kSeed, .start = &start});
}

TEST(OptimizerEquivalence, Annealing) {
  const Fixture f;
  expect_row_is_registry_run(f, "annealing",
                             {.seed = Fixture::kSeed, .max_evaluations = 600});
}

TEST(OptimizerEquivalence, AnnealingBudgetOverridesSteps) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.sa.steps = 600;
  auto req = f.request();
  req.start = f.start();
  const auto configured = run_annealing(req, cfg);

  cfg.sa.steps = 123456;  // must be overridden by the request budget
  req.max_evaluations = 600;
  const auto budgeted = run_annealing(req, cfg);
  expect_same(budgeted, configured.partition, configured.fitness,
              configured.evaluations);
}

TEST(OptimizerEquivalence, RandomSearch) {
  const Fixture f;
  expect_row_is_registry_run(f, "random", {.seed = Fixture::kSeed});
}

TEST(OptimizerEquivalence, Greedy) {
  const Fixture f;
  const part::Partition start = f.start();
  expect_row_is_registry_run(
      f, "greedy",
      {.seed = Fixture::kSeed, .start = &start, .max_evaluations = 5000});
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
  const auto outcome = OptimizerRegistry::global().make("standard")->run(req);
  EXPECT_EQ(outcome.partition, direct);
  part::PartitionEvaluator eval(f.ctx, direct);
  EXPECT_EQ(outcome.fitness.cost, eval.fitness().cost);
}

TEST(OptimizerEquivalence, ComposedPipelineMatchesManualChaining) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.es.mu = 3;
  cfg.es.lambda = 3;
  cfg.es.chi = 1;
  cfg.es.max_generations = 15;
  cfg.es.stall_generations = 8;

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

// The engine's ES row (the first half of run_paper_pair) must be the ES
// entry point's result at the planned module count.
TEST(OptimizerEquivalence, RunFlowMatchesDirectEvolution) {
  Fixture f;
  const FlowEngineConfig config = Fixture::flow_config();
  FlowEngine flow(f.nl, f.library, config);
  const auto evolution = flow.run_paper_pair(Fixture::kSeed).evolution;

  part::EvalContext ctx(f.nl, f.library, config.sensor, config.weights,
                        config.rho);
  OptimizerRequest req;
  req.ctx = &ctx;
  req.module_count = flow.plan().module_count;
  req.seed = Fixture::kSeed;
  const auto direct = run_evolution(req, config.optimizers);
  EXPECT_EQ(evolution.partition, direct.partition);
  EXPECT_EQ(evolution.fitness.cost, direct.fitness.cost);
  EXPECT_EQ(evolution.evaluations, direct.evaluations);
  EXPECT_EQ(evolution.iterations, direct.iterations);
}

}  // namespace
}  // namespace iddq::core
