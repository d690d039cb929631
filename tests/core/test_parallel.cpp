// Thread-count invariance of the parallel optimizers (the ISSUE
// acceptance pin): ES, tabu, and portfolio runs must be byte-identical —
// partitions equal, every double bit-equal — on a 1-thread, 2-thread, and
// 8-thread ExecutorPool, and identical to the poolless serial path. The
// determinism recipe under test: all RNG draws happen on the coordinator
// in a fixed order, workers only fill pre-indexed slots, reductions run
// on the caller in index order (docs/architecture.md, "Threading model").
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evolution.hpp"
#include "core/flow_engine.hpp"
#include "core/optimizer_registry.hpp"
#include "core/random_search.hpp"
#include "core/refiner.hpp"
#include "core/start_partition.hpp"
#include "core/tabu.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("par", 200, 12, 5));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  part::Partition start() {
    Rng rng(3);
    return make_start_partition(nl, 4, rng);
  }

  OptimizerRequest request(std::uint64_t seed) {
    OptimizerRequest req;
    req.ctx = &ctx;
    req.module_count = 4;
    req.seed = seed;
    return req;
  }
};

void expect_bits_eq(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void expect_outcomes_identical(const OptimizerOutcome& got,
                               const OptimizerOutcome& want) {
  EXPECT_EQ(got.partition, want.partition);
  expect_bits_eq(got.fitness.violation, want.fitness.violation, "violation");
  expect_bits_eq(got.fitness.cost, want.fitness.cost, "cost");
  const auto gc = got.costs.as_array();
  const auto wc = want.costs.as_array();
  for (std::size_t i = 0; i < wc.size(); ++i)
    expect_bits_eq(gc[i], wc[i], "costs[i]");
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.evaluations, want.evaluations);
}

const std::size_t kPoolSizes[] = {1, 2, 8};

TEST(ParallelInvariance, EvolutionIsByteIdenticalAtAnyThreadCount) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.es.mu = 4;
  cfg.es.lambda = 4;
  cfg.es.chi = 2;
  cfg.es.max_generations = 12;
  cfg.es.stall_generations = 6;

  OptimizerRequest req = f.request(42);  // pool == nullptr
  const OptimizerOutcome serial = run_evolution(req, cfg);
  EXPECT_GT(serial.evaluations, cfg.es.mu);

  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    support::ExecutorPool pool(threads);
    req.pool = &pool;
    expect_outcomes_identical(run_evolution(req, cfg), serial);
  }
}

TEST(ParallelInvariance, EvolutionWithModuleDeletingChildrenIsThreadInvariant) {
  // Modules of about five gates and mostly Monte-Carlo children: many
  // children empty (and so erase) a module, which exercises the erase
  // rollback of probe_moves on every worker.
  const netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("erase", 60, 6, 8));
  const lib::CellLibrary library = lib::default_library();
  const part::EvalContext ctx(nl, library, elec::SensorSpec{},
                              part::CostWeights{});
  constexpr std::size_t kStartModules = 12;
  OptimizerConfig cfg;
  cfg.es.mu = 4;
  cfg.es.lambda = 1;
  cfg.es.chi = 8;
  cfg.es.max_generations = 25;
  cfg.es.stall_generations = 25;
  OptimizerRequest req;
  req.ctx = &ctx;
  req.module_count = kStartModules;
  req.seed = 9;
  req.record_trace = true;

  const OptimizerOutcome serial = run_evolution(req, cfg);  // no pool
  EXPECT_LT(serial.partition.module_count(), kStartModules);

  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    support::ExecutorPool pool(threads);
    req.pool = &pool;
    const OptimizerOutcome got = run_evolution(req, cfg);
    expect_outcomes_identical(got, serial);
    ASSERT_EQ(got.trace.size(), serial.trace.size());
    for (std::size_t g = 0; g < got.trace.size(); ++g) {
      expect_bits_eq(got.trace[g].mean_cost, serial.trace[g].mean_cost,
                     "mean_cost");
      EXPECT_EQ(got.trace[g].module_count, serial.trace[g].module_count);
      EXPECT_EQ(got.trace[g].best_step_width, serial.trace[g].best_step_width);
    }
  }
}

TEST(ParallelInvariance, TabuIsByteIdenticalAtAnyThreadCount) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.tabu.iterations = 60;
  cfg.tabu.candidates = 10;
  OptimizerRequest req = f.request(11);
  req.start = f.start();

  const OptimizerOutcome serial = run_tabu(req, cfg);
  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    support::ExecutorPool pool(threads);
    req.pool = &pool;
    expect_outcomes_identical(run_tabu(req, cfg), serial);
  }
}

TEST(ParallelInvariance, RandomSearchIsByteIdenticalAtAnyThreadCount) {
  // Independent samples: the coordinator draws every start partition in
  // the serial RNG order, workers only evaluate, the best-of reduction
  // runs in sample order.
  Fixture f;
  OptimizerConfig cfg;
  cfg.random_samples = 45;
  OptimizerRequest req = f.request(11);
  const OptimizerOutcome serial = run_random(req, cfg);
  EXPECT_EQ(serial.evaluations, 45u);
  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    support::ExecutorPool pool(threads);
    req.pool = &pool;
    expect_outcomes_identical(run_random(req, cfg), serial);
  }
}

TEST(ParallelInvariance, GreedyRefinerIsByteIdenticalAtAnyThreadCount) {
  // The speculative window scan must replay the sequential
  // first-improvement walk exactly: same moves, same evaluation counts,
  // same final bits — window candidates past the stopping point are
  // discarded, never observed.
  Fixture f;
  OptimizerRequest req = f.request(1);
  req.start = f.start();
  req.max_evaluations = 3000;
  const OptimizerOutcome serial = run_greedy(req, OptimizerConfig{});
  EXPECT_GT(serial.iterations, 0u);  // moves applied
  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    support::ExecutorPool pool(threads);
    req.pool = &pool;
    expect_outcomes_identical(run_greedy(req, OptimizerConfig{}), serial);
  }
}

TEST(ParallelInvariance, GreedyRefinerBudgetStopIsThreadInvariant) {
  // Budget exhaustion must land on exactly the same evaluation count at
  // any thread count (the walk checks the budget at gate entries like the
  // sequential scan did).
  Fixture f;
  for (const std::size_t budget : {std::size_t{7}, std::size_t{41}}) {
    SCOPED_TRACE(budget);
    OptimizerRequest req = f.request(1);
    req.start = f.start();
    req.max_evaluations = budget;
    const OptimizerOutcome serial = run_greedy(req, OptimizerConfig{});
    for (const std::size_t threads : kPoolSizes) {
      SCOPED_TRACE(threads);
      support::ExecutorPool pool(threads);
      req.pool = &pool;
      const OptimizerOutcome got = run_greedy(req, OptimizerConfig{});
      EXPECT_EQ(got.partition, serial.partition);
      EXPECT_EQ(got.iterations, serial.iterations);
      EXPECT_EQ(got.evaluations, serial.evaluations);
    }
  }
}

TEST(ParallelInvariance, PortfolioRaceIsByteIdenticalAtAnyThreadCount) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.es.mu = 3;
  cfg.es.lambda = 3;
  cfg.es.chi = 1;
  cfg.es.max_generations = 6;
  cfg.es.stall_generations = 3;
  cfg.sa.steps = 200;
  cfg.tabu.iterations = 30;
  const auto portfolio = OptimizerRegistry::global().make(
      "portfolio:evolution,annealing,tabu", cfg);

  OptimizerRequest request;
  request.ctx = &f.ctx;
  request.module_count = 4;
  request.seed = 42;
  const auto serial = portfolio->run(request);

  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    support::ExecutorPool pool(threads);
    OptimizerRequest r = request;
    r.pool = &pool;
    expect_outcomes_identical(portfolio->run(r), serial);
  }
}

TEST(ParallelInvariance, FlowEngineRowsAreByteIdenticalWithAConfigPool) {
  // End-to-end: the same pool FlowEngineConfig threads into every
  // dispatch (what --threads wires up) must leave whole MethodResult
  // rows — including the standard coupling and per-method seeds —
  // byte-identical to the serial engine.
  Fixture f;
  FlowEngineConfig config;
  config.optimizers.es.mu = 3;
  config.optimizers.es.lambda = 3;
  config.optimizers.es.chi = 1;
  config.optimizers.es.max_generations = 8;
  config.optimizers.es.stall_generations = 4;
  config.optimizers.tabu.iterations = 30;
  const std::vector<std::string> methods{"evolution", "tabu", "standard"};

  support::ExecutorPool serial(1);
  config.pool = &serial;
  FlowEngine serial_engine(f.nl, f.library, config);
  const auto want = serial_engine.run_methods(methods, 42);

  support::ExecutorPool pool(4);
  config.pool = &pool;
  FlowEngine engine(f.nl, f.library, config);
  const auto got = engine.run_methods(methods, 42);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(methods[i]);
    EXPECT_EQ(got[i].method, want[i].method);
    EXPECT_EQ(got[i].partition, want[i].partition);
    expect_bits_eq(got[i].fitness.cost, want[i].fitness.cost, "cost");
    expect_bits_eq(got[i].sensor_area, want[i].sensor_area, "sensor_area");
    expect_bits_eq(got[i].delay_overhead, want[i].delay_overhead,
                   "delay_overhead");
    EXPECT_EQ(got[i].evaluations, want[i].evaluations);
    EXPECT_EQ(got[i].module_count, want[i].module_count);
  }
}

TEST(ParallelInvariance, ProgressTicksStillObserveWithoutChangingTheRun) {
  // Observers ride along unchanged when the run is threaded (the contract
  // JobService cancellation depends on).
  Fixture f;
  OptimizerConfig cfg;
  cfg.es.mu = 3;
  cfg.es.lambda = 3;
  cfg.es.chi = 1;
  cfg.es.max_generations = 6;
  cfg.es.stall_generations = 3;
  const auto optimizer = OptimizerRegistry::global().make("evolution", cfg);

  OptimizerRequest request;
  request.ctx = &f.ctx;
  request.module_count = 4;
  request.seed = 7;
  const auto want = optimizer->run(request);

  support::ExecutorPool pool(4);
  OptimizerRequest observed = request;
  observed.pool = &pool;
  std::size_t ticks = 0;
  observed.on_progress = [&ticks](const OptimizerProgress&) { ++ticks; };
  const auto got = optimizer->run(observed);
  EXPECT_GT(ticks, 0u);
  expect_outcomes_identical(got, want);
}

}  // namespace
}  // namespace iddq::core
