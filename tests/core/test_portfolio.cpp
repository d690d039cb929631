#include "core/portfolio.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/optimizer_registry.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("pf", 150, 10, 6));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};
};

OptimizerConfig quick_config() {
  OptimizerConfig cfg;
  cfg.es.mu = 3;
  cfg.es.lambda = 3;
  cfg.es.chi = 1;
  cfg.es.max_generations = 6;
  cfg.es.stall_generations = 3;
  cfg.sa.steps = 300;
  cfg.random_samples = 60;
  cfg.tabu.iterations = 40;
  return cfg;
}

OptimizerRequest request_for(const Fixture& f, std::uint64_t seed,
                             std::size_t budget = 0) {
  OptimizerRequest request;
  request.ctx = &f.ctx;
  request.module_count = 3;
  request.seed = seed;
  request.max_evaluations = budget;
  return request;
}

TEST(Portfolio, SpecParsingAndNormalization) {
  const auto opt = OptimizerRegistry::global().make(
      "portfolio:evolution,annealing", quick_config());
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(opt->name(), "portfolio:evolution,annealing");

  const auto composed = OptimizerRegistry::global().make(
      " portfolio: evolution + greedy , random ", quick_config());
  EXPECT_EQ(composed->name(), "portfolio:evolution+greedy,random");
}

TEST(Portfolio, RejectsBadSpecs) {
  auto& reg = OptimizerRegistry::global();
  EXPECT_THROW((void)reg.make("portfolio:"), LookupError);
  EXPECT_THROW((void)reg.make("portfolio:evolution,,random"), LookupError);
  EXPECT_THROW((void)reg.make("portfolio:bogus"), LookupError);
  EXPECT_THROW((void)reg.make("portfolio:evolution,portfolio:random"),
               Error);
}

TEST(Portfolio, DeterministicAtFixedSeed) {
  Fixture f;
  const auto opt = OptimizerRegistry::global().make(
      "portfolio:evolution,annealing", quick_config());
  const auto a = opt->run(request_for(f, 42));
  const auto b = opt->run(request_for(f, 42));
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.fitness.cost, b.fitness.cost);
  EXPECT_EQ(a.fitness.violation, b.fitness.violation);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.method, "portfolio:evolution,annealing");
}

TEST(Portfolio, WinnerIsBestMemberAtDerivedSeeds) {
  Fixture f;
  const auto cfg = quick_config();
  const std::vector<std::string> members{"annealing", "random"};
  const auto portfolio = OptimizerRegistry::global().make(
      "portfolio:annealing,random", cfg);
  const auto outcome = portfolio->run(request_for(f, 42));

  part::Fitness best_member;
  std::size_t total_evaluations = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto member = OptimizerRegistry::global().make(members[i], cfg);
    auto request = request_for(f, 42);
    request.seed = Rng::mix_seed(42, i);
    const auto result = member->run(request);
    total_evaluations += result.evaluations;
    if (i == 0 || result.fitness < best_member) best_member = result.fitness;
  }
  EXPECT_EQ(outcome.fitness.cost, best_member.cost);
  EXPECT_EQ(outcome.fitness.violation, best_member.violation);
  EXPECT_EQ(outcome.evaluations, total_evaluations);
}

TEST(Portfolio, SharesTheEvaluationBudget) {
  Fixture f;
  const auto portfolio = OptimizerRegistry::global().make(
      "portfolio:annealing,random,greedy", quick_config());
  const auto outcome = portfolio->run(request_for(f, 7, 300));
  // Every member maps its share onto its own budget knob; the annealer
  // additionally spends one evaluation on the start partition.
  EXPECT_LE(outcome.evaluations, 300u + 3u);
  EXPECT_GT(outcome.evaluations, 0u);
}

TEST(Portfolio, TinyBudgetNeverFallsBackToMemberDefaults) {
  Fixture f;
  const auto portfolio = OptimizerRegistry::global().make(
      "portfolio:annealing,random,greedy", quick_config());
  // A budget smaller than the member count must clamp shares to 1, not
  // drop to 0 (which the searches read as "use the configured default").
  const auto outcome = portfolio->run(request_for(f, 7, 2));
  EXPECT_LE(outcome.evaluations, 6u);  // <= share + 1 per member
  EXPECT_GT(outcome.evaluations, 0u);
}

TEST(Portfolio, WorksThroughBatchAndFlowSpecs) {
  // The full spec must be usable anywhere a method name is: validate via
  // the registry round-trip used by the CLI.
  EXPECT_NO_THROW(
      (void)OptimizerRegistry::global().make("portfolio:force,standard"));
}

}  // namespace
}  // namespace iddq::core
