#include "core/flow_engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/result_cache.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/executor.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("engine", 260, 12, 11));
  lib::CellLibrary library = lib::default_library();

  FlowEngineConfig config() const {
    FlowEngineConfig cfg;
    cfg.optimizers.es.mu = 3;
    cfg.optimizers.es.lambda = 3;
    cfg.optimizers.es.chi = 1;
    cfg.optimizers.es.max_generations = 12;
    cfg.optimizers.es.stall_generations = 6;
    cfg.optimizers.random_samples = 40;
    return cfg;
  }
};

TEST(FlowEngine, RunMethodsReturnsOneResultPerSpecInOrder) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  const std::vector<std::string> specs{"evolution", "annealing", "random",
                                       "standard"};
  const auto results = engine.run_methods(specs, 42);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].method, specs[i]);
    EXPECT_TRUE(results[i].partition.covers(f.nl));
    EXPECT_GT(results[i].evaluations, 0u);
    EXPECT_EQ(results[i].modules.size(), results[i].module_count);
  }
}

TEST(FlowEngine, StandardAfterAnotherMethodReusesItsModuleSizes) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  const std::vector<std::string> specs{"evolution", "standard"};
  const auto results = engine.run_methods(specs, 42);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].module_count, results[1].module_count);
  for (std::uint32_t m = 0; m < results[0].module_count; ++m)
    EXPECT_EQ(results[0].partition.module_size(m),
              results[1].partition.module_size(m));
}

TEST(FlowEngine, StandardAloneUsesEvenSplitOfThePlannedCount) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  FlowEngine::RunOptions opts;
  const auto result = engine.run_method("standard", opts);
  EXPECT_EQ(result.module_count, engine.plan().module_count);
  std::size_t lo = f.nl.logic_gate_count();
  std::size_t hi = 0;
  for (std::uint32_t m = 0; m < result.module_count; ++m) {
    lo = std::min(lo, result.partition.module_size(m));
    hi = std::max(hi, result.partition.module_size(m));
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(FlowEngine, RecordTraceIsPerRun) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  FlowEngine::RunOptions plain;
  EXPECT_TRUE(engine.run_method("evolution", plain).trace.empty());
  FlowEngine::RunOptions traced;
  traced.record_trace = true;
  EXPECT_FALSE(engine.run_method("evolution", traced).trace.empty());
}

TEST(FlowEngine, ProgressCallbackFires) {
  Fixture f;
  FlowEngine engine(f.nl, f.library, f.config());
  std::size_t calls = 0;
  FlowEngine::RunOptions opts;
  opts.on_progress = [&](const OptimizerProgress&) { ++calls; };
  (void)engine.run_method("random", opts);
  EXPECT_GE(calls, 1u);
}

TEST(FlowEngineCoverage, RowsGainCoverageFieldsOnlyWhenEnabled) {
  Fixture f;
  FlowEngine plain(f.nl, f.library, f.config());
  FlowEngine::RunOptions opts;
  const auto off = plain.run_method("standard", opts);
  EXPECT_FALSE(off.has_coverage);
  EXPECT_EQ(off.faults_total, 0u);

  auto cfg = f.config();
  cfg.coverage.enabled = true;
  cfg.coverage.patterns = 64;
  FlowEngine graded(f.nl, f.library, cfg);
  const auto on = graded.run_method("standard", opts);
  EXPECT_TRUE(on.has_coverage);
  EXPECT_GT(on.faults_total, 0u);
  EXPECT_LE(on.faults_detected, on.faults_total);
  EXPECT_EQ(on.patterns_used, 64u);
  EXPECT_EQ(on.patterns_minimized, 64u);  // minimize off
  // Coverage is a grade, not an objective: the partition itself must be
  // untouched by grading.
  EXPECT_EQ(on.fitness.cost, off.fitness.cost);
  EXPECT_EQ(on.module_count, off.module_count);
}

TEST(FlowEngineCoverage, RowsByteIdenticalAcrossPoolSizes) {
  Fixture f;
  auto cfg = f.config();
  cfg.coverage.enabled = true;
  cfg.coverage.patterns = 64;
  cfg.coverage.minimize = true;

  const std::vector<std::string> specs{"evolution", "standard"};
  FlowEngine serial(f.nl, f.library, cfg);
  const auto base = serial.run_methods(specs, 42);
  for (const std::size_t threads : {2u, 8u}) {
    support::ExecutorPool pool(threads);
    auto pooled_cfg = cfg;
    pooled_cfg.pool = &pool;
    FlowEngine engine(f.nl, f.library, pooled_cfg);
    const auto rows = engine.run_methods(specs, 42);
    ASSERT_EQ(rows.size(), base.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].fitness.cost, base[i].fitness.cost);
      EXPECT_EQ(rows[i].fault_coverage_pct, base[i].fault_coverage_pct);
      EXPECT_EQ(rows[i].faults_detected, base[i].faults_detected);
      EXPECT_EQ(rows[i].faults_total, base[i].faults_total);
      EXPECT_EQ(rows[i].patterns_minimized, base[i].patterns_minimized);
    }
  }
}

TEST(FlowEngineCoverage, CacheReplayReproducesCoverageBitExactly) {
  Fixture f;
  auto cfg = f.config();
  cfg.coverage.enabled = true;
  cfg.coverage.patterns = 64;
  cfg.coverage.minimize = true;

  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "flow_engine_cov_cache")
          .string();
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  cfg.cache = &cache;

  FlowEngine::RunOptions opts;
  opts.seed = 42;
  MethodResult fresh;
  {
    FlowEngine engine(f.nl, f.library, cfg);
    fresh = engine.run_method("evolution", opts);
  }
  EXPECT_EQ(cache.misses(), 1u);

  ResultCache reopened(dir);
  auto replay_cfg = cfg;
  replay_cfg.cache = &reopened;
  FlowEngine engine(f.nl, f.library, replay_cfg);
  const auto replayed = engine.run_method("evolution", opts);
  EXPECT_EQ(reopened.hits(), 1u);
  EXPECT_TRUE(replayed.has_coverage);
  EXPECT_EQ(replayed.fault_coverage_pct, fresh.fault_coverage_pct);
  EXPECT_EQ(replayed.faults_detected, fresh.faults_detected);
  EXPECT_EQ(replayed.faults_total, fresh.faults_total);
  EXPECT_EQ(replayed.patterns_used, fresh.patterns_used);
  EXPECT_EQ(replayed.patterns_minimized, fresh.patterns_minimized);
  EXPECT_EQ(replayed.fitness.cost, fresh.fitness.cost);
}

TEST(FlowEngineCoverage, CoverageOptionsChangeTheCacheKey) {
  // A coverage-graded row must never replay a plain row (or vice versa),
  // and different fault models must not share entries.
  Fixture f;
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "flow_engine_cov_salt")
          .string();
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);

  auto run_once = [&](bool enabled, const std::string& model) {
    auto cfg = f.config();
    cfg.cache = &cache;
    cfg.coverage.enabled = enabled;
    cfg.coverage.fault_model = model;
    FlowEngine engine(f.nl, f.library, cfg);
    FlowEngine::RunOptions opts;
    opts.seed = 42;
    return engine.run_method("standard", opts);
  };
  (void)run_once(false, "mixed");
  (void)run_once(true, "mixed");
  (void)run_once(true, "bridges");
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
  // Same options again: now it replays.
  const auto replay = run_once(true, "bridges");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_TRUE(replay.has_coverage);
}

TEST(StandardAreaOverhead, DegenerateZeroAreaReportsZero) {
  MethodResult evolution;
  MethodResult standard;
  evolution.sensor_area = 0.0;  // e.g. single-module degenerate plan
  standard.sensor_area = 5.0;
  EXPECT_EQ(standard_area_overhead_pct(evolution, standard), 0.0);
}

TEST(StandardAreaOverhead, NormalCaseMatchesFormula) {
  MethodResult evolution;
  MethodResult standard;
  evolution.sensor_area = 4.0;
  standard.sensor_area = 5.0;
  EXPECT_DOUBLE_EQ(standard_area_overhead_pct(evolution, standard), 25.0);
}

}  // namespace
}  // namespace iddq::core
