#include "core/random_search.hpp"

#include <gtest/gtest.h>

#include "core/start_partition.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("rs", 150, 10, 8));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};

  /// `samples` random starts with 3 modules at `seed`.
  OptimizerOutcome run(std::size_t samples, std::uint64_t seed) const {
    OptimizerRequest req;
    req.ctx = &ctx;
    req.module_count = 3;
    req.seed = seed;
    OptimizerConfig cfg;
    cfg.random_samples = samples;
    return run_random(req, cfg);
  }
};

TEST(RandomSearch, BestOfManyBeatsFirst) {
  Fixture f;
  Rng rng(1);
  part::PartitionEvaluator first(f.ctx, make_start_partition(f.nl, 3, rng));
  const auto result = f.run(40, 1);
  EXPECT_EQ(result.evaluations, 40u);
  EXPECT_LE(result.fitness.cost, first.fitness().cost);
}

TEST(RandomSearch, SingleSampleIsValid) {
  Fixture f;
  const auto result = f.run(1, 2);
  EXPECT_EQ(result.evaluations, 1u);
  EXPECT_TRUE(result.partition.covers(f.nl));
}

TEST(RandomSearch, Deterministic) {
  Fixture f;
  const auto a = f.run(10, 7);
  const auto b = f.run(10, 7);
  EXPECT_EQ(a.fitness.cost, b.fitness.cost);
}

TEST(RandomSearch, MoreSamplesNeverWorse) {
  Fixture f;
  const auto few = f.run(5, 9);
  const auto many = f.run(50, 9);
  EXPECT_LE(many.fitness.cost, few.fitness.cost);
}

TEST(RandomSearch, RejectsZeroSamples) {
  Fixture f;
  EXPECT_THROW((void)f.run(0, 1), Error);
}

}  // namespace
}  // namespace iddq::core
