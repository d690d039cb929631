#include "core/flow_engine.hpp"

#include <gtest/gtest.h>

#include "core/start_partition.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

constexpr std::uint64_t kSeed = 42;

FlowEngineConfig quick_config() {
  FlowEngineConfig cfg;
  cfg.optimizers.es.mu = 4;
  cfg.optimizers.es.lambda = 4;
  cfg.optimizers.es.chi = 1;
  cfg.optimizers.es.max_generations = 40;
  cfg.optimizers.es.stall_generations = 15;
  return cfg;
}

TEST(Flow, EndToEndOnMidSizeCircuit) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 600, 18, 3));
  const auto library = lib::default_library();
  FlowEngine engine(nl, library, quick_config());
  const auto result = engine.run_paper_pair(kSeed);

  EXPECT_GE(engine.plan().module_count, engine.plan().k_min_leakage);
  EXPECT_TRUE(result.evolution.fitness.feasible());
  EXPECT_TRUE(result.evolution.partition.covers(nl));
  EXPECT_TRUE(result.standard.partition.covers(nl));
  EXPECT_GT(result.evolution.sensor_area, 0.0);
  EXPECT_GT(result.standard.sensor_area, 0.0);
  EXPECT_EQ(result.evolution.modules.size(), result.evolution.module_count);
}

TEST(Flow, StandardUsesEvolutionModuleSizes) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 500, 16, 4));
  const auto library = lib::default_library();
  FlowEngine engine(nl, library, quick_config());
  const auto result = engine.run_paper_pair(kSeed);
  ASSERT_EQ(result.standard.module_count, result.evolution.module_count);
  std::vector<std::size_t> evo_sizes;
  std::vector<std::size_t> std_sizes;
  for (std::uint32_t m = 0; m < result.evolution.module_count; ++m) {
    evo_sizes.push_back(result.evolution.partition.module_size(m));
    std_sizes.push_back(result.standard.partition.module_size(m));
  }
  EXPECT_EQ(evo_sizes, std_sizes);
}

TEST(Flow, EvolutionNoWorseThanStandardOnObjective) {
  const auto nl = netlist::gen::make_iscas_like("c1908");
  const auto library = lib::default_library();
  auto cfg = quick_config();
  cfg.optimizers.es.max_generations = 80;
  FlowEngine engine(nl, library, cfg);
  const auto result = engine.run_paper_pair(kSeed);
  EXPECT_FALSE(result.standard.fitness < result.evolution.fitness);
}

TEST(Flow, AreaOverheadMetric) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 400, 14, 5));
  const auto library = lib::default_library();
  FlowEngine engine(nl, library, quick_config());
  const auto result = engine.run_paper_pair(kSeed);
  const double expected =
      (result.standard.sensor_area / result.evolution.sensor_area - 1.0) *
      100.0;
  EXPECT_DOUBLE_EQ(
      standard_area_overhead_pct(result.evolution, result.standard),
      expected);
}

TEST(Flow, EvaluateMethodReportsConsistentNumbers) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("flow", 200, 10, 7));
  const auto library = lib::default_library();
  const FlowEngineConfig cfg = quick_config();
  part::EvalContext ctx(nl, library, cfg.sensor, cfg.weights, cfg.rho);
  Rng rng(1);
  const auto p = make_start_partition(nl, 2, rng);
  const auto r = evaluate_method(ctx, "probe", p);
  EXPECT_EQ(r.method, "probe");
  EXPECT_EQ(r.module_count, 2u);
  EXPECT_DOUBLE_EQ(r.delay_overhead, r.costs.c2);
  EXPECT_DOUBLE_EQ(r.test_overhead, r.costs.c4);
  double area = 0.0;
  for (const auto& m : r.modules) area += m.area;
  EXPECT_NEAR(area, r.sensor_area, 1e-9 * area);
}

}  // namespace
}  // namespace iddq::core
