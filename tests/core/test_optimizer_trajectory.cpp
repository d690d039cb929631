// Trajectory pins: every registered optimizer's outcome on a fixed circuit
// at two seeds, recorded from the implementation that predates the
// per-method entry points. Each row pins the result partition (gate order
// included), the fitness and cost bits, the evaluation and iteration
// counts, and a digest of the progress ticks and the ES trace. A drift in
// any RNG stream, draw order, budget mapping or progress cadence changes
// a row, so a refactor of the search code must leave the table untouched.
// Every run uses the IDDQ_THREADS pool: the rows hold at any thread count,
// so under IDDQ_THREADS=2 (the ThreadSanitizer leg) the pins also check
// the threaded paths.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/optimizer_registry.hpp"
#include "core/start_partition.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/executor.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("equiv", 220, 12, 9));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};
  static constexpr std::size_t kModules = 3;

  part::Partition start() const {
    Rng rng(2);
    return make_start_partition(nl, kModules, rng);
  }

  static OptimizerConfig config() {
    OptimizerConfig cfg;
    cfg.es.mu = 4;
    cfg.es.lambda = 4;
    cfg.es.chi = 1;
    cfg.es.max_generations = 25;
    cfg.es.stall_generations = 10;
    cfg.sa.steps = 2500;
    cfg.tabu.iterations = 60;
    cfg.random_samples = 300;
    cfg.greedy_max_evaluations = 5000;
    return cfg;
  }
};

/// One pinned outcome. The first case (seed 7) lets every method draw its
/// own start at the request's module count with the configured budgets;
/// the second (seed 1234) hands every method the same explicit start and
/// a 400-evaluation budget.
struct Pin {
  const char* method;
  std::uint64_t seed;
  std::uint64_t partition;  // digest of the module lists, in order
  std::uint64_t violation;  // bit pattern
  std::uint64_t cost;       // bit pattern
  std::uint64_t costs;      // digest of c1..c5
  std::size_t evaluations;
  std::size_t iterations;
  std::uint64_t progress;  // digest of the progress ticks and the trace
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Runs `method` on `req` (with the trace, the progress digest and the
/// IDDQ_THREADS pool added) and digests its outcome.
Pin observe(OptimizerRequest req, const std::string& method,
            const OptimizerConfig& config) {
  req.record_trace = true;
  req.pool = &support::ExecutorPool::shared_default();
  Hash64 progress;
  req.on_progress = [&progress](const OptimizerProgress& p) {
    progress.mix_string(p.method);
    progress.mix_size(p.iteration);
    progress.mix_size(p.evaluations);
    progress.mix_u64(bits(p.best.violation));
    progress.mix_u64(bits(p.best.cost));
  };
  const OptimizerOutcome out =
      OptimizerRegistry::global().make(method, config)->run(req);
  EXPECT_EQ(out.method, method);

  Hash64 partition;
  for (std::uint32_t m = 0; m < out.partition.module_count(); ++m) {
    partition.mix_size(out.partition.module_size(m));
    for (const netlist::GateId g : out.partition.module(m))
      partition.mix_u64(g);
  }
  Hash64 costs;
  for (const double c : out.costs.as_array()) costs.mix_u64(bits(c));
  for (const GenerationStats& g : out.trace) {
    progress.mix_size(g.generation);
    progress.mix_u64(bits(g.best.violation));
    progress.mix_u64(bits(g.best.cost));
    progress.mix_u64(bits(g.mean_cost));
    progress.mix_size(g.module_count);
    progress.mix_u64(g.best_step_width);
    progress.mix_size(g.evaluations);
  }
  return Pin{method.c_str(),   req.seed,
             partition.value(), bits(out.fitness.violation),
             bits(out.fitness.cost), costs.value(),
             out.evaluations,  out.iterations,
             progress.value()};
}

Pin observe(const Fixture& f, const std::string& method, std::uint64_t seed) {
  OptimizerRequest req;
  req.ctx = &f.ctx;
  req.module_count = Fixture::kModules;
  req.seed = seed;
  if (seed != 7) {
    req.start = f.start();
    req.max_evaluations = 400;
  }
  return observe(std::move(req), method, Fixture::config());
}

/// Compares every field; when `want` is null, prints `got` as a table row.
void expect_pin(const Pin& got, const Pin* want) {
  if (want == nullptr) {
    ADD_FAILURE() << "no pin for this row";
    std::printf(
        "    {\"%s\", %llu, 0x%016llxull, 0x%016llxull, 0x%016llxull,\n"
        "     0x%016llxull, %zu, %zu, 0x%016llxull},\n",
        got.method, static_cast<unsigned long long>(got.seed),
        static_cast<unsigned long long>(got.partition),
        static_cast<unsigned long long>(got.violation),
        static_cast<unsigned long long>(got.cost),
        static_cast<unsigned long long>(got.costs), got.evaluations,
        got.iterations, static_cast<unsigned long long>(got.progress));
    return;
  }
  EXPECT_EQ(got.partition, want->partition);
  EXPECT_EQ(got.violation, want->violation);
  EXPECT_EQ(got.cost, want->cost);
  EXPECT_EQ(got.costs, want->costs);
  EXPECT_EQ(got.evaluations, want->evaluations);
  EXPECT_EQ(got.iterations, want->iterations);
  EXPECT_EQ(got.progress, want->progress);
}

const Pin kPins[] = {
    {"annealing", 7, 0x5347c5d161656eabull, 0x0000000000000000ull,
     0x40a87b0c6b4af563ull, 0x8f15050c0f495a7dull, 2501, 2501,
     0x793a3d7fbfc88cdbull},
    {"annealing", 1234, 0x868f0678d5414acbull, 0x0000000000000000ull,
     0x40aef9c0c28a2a95ull, 0xd83d8ca0e2dd2416ull, 401, 401,
     0x64297b769ff28b57ull},
    {"evolution", 7, 0x2191d81e759ec12bull, 0x0000000000000000ull,
     0x40ac949adeb9ba8aull, 0xa7fbe2bc536160f9ull, 504, 25,
     0x69183e77f4a04d12ull},
    {"evolution", 1234, 0x31ba81e487520593ull, 0x0000000000000000ull,
     0x40ac0a091fdd3379ull, 0x493204a6f02a5415ull, 504, 25,
     0xa1dc524dde8ebf57ull},
    {"force", 7, 0x42506ee5fe163383ull, 0x0000000000000000ull,
     0x40b0992e91011fc6ull, 0xdb0b2c839ff0c8dcull, 1, 60,
     0xc641b77a500152d6ull},
    {"force", 1234, 0x42506ee5fe163383ull, 0x0000000000000000ull,
     0x40b0992e91011fc6ull, 0xdb0b2c839ff0c8dcull, 1, 60,
     0xc641b77a500152d6ull},
    {"greedy", 7, 0x9c145c3e5dddcb4bull, 0x0000000000000000ull,
     0x40af3b130d223a21ull, 0xbba59ac19609fb89ull, 715, 100,
     0xe30d4fe43d02eb79ull},
    {"greedy", 1234, 0x8b660afb5377f48bull, 0x0000000000000000ull,
     0x40aef3624a0c45d2ull, 0x924867fa34a3be18ull, 400, 82,
     0x54b0bab572249b30ull},
    {"random", 7, 0xbed45b7ab5868901ull, 0x0000000000000000ull,
     0x40b0657b9e48ef41ull, 0xe3443065312c12b9ull, 300, 300,
     0x029530142b156e4aull},
    {"random", 1234, 0xbbbc64959dbd24a1ull, 0x0000000000000000ull,
     0x40b05fc4c1778912ull, 0x6e77a5defb77b7e6ull, 400, 400,
     0xe19ae7808c132168ull},
    {"standard", 7, 0x7a2b0161cb25dd23ull, 0x0000000000000000ull,
     0x40b1831e12b5a33eull, 0x83994b96ccda5a61ull, 1, 1,
     0xc668d39974639e92ull},
    {"standard", 1234, 0xedb4012b42ea9dc1ull, 0x0000000000000000ull,
     0x40b1873b8042c1a7ull, 0xc5fa2bca3fdcf74aull, 1, 1,
     0xb06fd9cf32b3a9c1ull},
    {"tabu", 7, 0x3d564f527fbda319ull, 0x0000000000000000ull,
     0x40af5fc1c509fa39ull, 0x557919dc1bfd5198ull, 470, 60,
     0x76c87d8c51860ca0ull},
    {"tabu", 1234, 0x220e63725f39c06bull, 0x0000000000000000ull,
     0x40afb4c433f482faull, 0xcab8e80de2eec182ull, 396, 50,
     0x30c321e37274c478ull},
};

TEST(OptimizerTrajectory, EveryRegisteredMethodMatchesItsPin) {
  const Fixture f;
  for (const std::string& method : OptimizerRegistry::global().names()) {
    for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{1234}}) {
      SCOPED_TRACE(method + " seed " + std::to_string(seed));
      const Pin got = observe(f, method, seed);
      const Pin* want = nullptr;
      for (const Pin& pin : kPins)
        if (pin.method == method && pin.seed == seed) want = &pin;
      expect_pin(got, want);
    }
  }
}

// Exact fitness ties in the evolution strategy's selection. On ila4x4 at
// K = 2, with the leakage cap at half the circuit's leakage, most
// descendants' violations rank them below every survivor, and the top
// mu + 1 hold an exact tie in 19 of the 30 generations at seed 1. Those
// generations score every descendant and sort the full pool; the other 11
// fully score only the descendants that can still survive. The pin was recorded from the implementation
// that fully scored every descendant in every generation, so it holds
// only if both paths select what a full sort selects.
const Pin kTiePin = {"evolution", 1, 0x8a3409e1cc06e965ull,
                     0x0000000000000000ull, 0x40b0b0c6bba3b415ull,
                     0xd14ca444f11c7ddcull, 2168, 30, 0x2b5d623453e9eb4cull};

TEST(OptimizerTrajectory, EvolutionWithExactTiesInItsTopMatchesItsPin) {
  const netlist::Netlist nl = netlist::load_circuit("ila4x4");
  const lib::CellLibrary library = lib::default_library();
  const std::vector<lib::CellParams> cells = lib::bind_cells(nl, library);
  double leak_ua = 0.0;
  for (const netlist::GateId g : nl.logic_gates())
    leak_ua += units::na_to_ua(cells[g].ileak_na);
  elec::SensorSpec sensor;
  sensor.iddq_th_ua = sensor.d_min * leak_ua / 2.0;
  const part::EvalContext ctx(nl, library, sensor, part::CostWeights{});
  OptimizerConfig config;
  config.es.max_generations = 30;
  config.es.stall_generations = 30;
  OptimizerRequest req;
  req.ctx = &ctx;
  req.module_count = 2;
  req.seed = 1;
  expect_pin(observe(std::move(req), "evolution", config), &kTiePin);
}

}  // namespace
}  // namespace iddq::core
