// Micro-benchmarks of the flow's kernels (google-benchmark).
//
// The paper reports "convergence within a few hours on a Sun SPARC" for the
// largest circuit; the incremental-evaluation design is what makes the
// optimization tractable. These benchmarks pin the per-operation costs:
// evaluator construction, incremental move + fitness, boundary computation,
// distance-oracle construction and standard clustering on the BIG tier,
// transition-time analysis, and the logic simulator's pattern throughput.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "core/evolution.hpp"
#include "core/neighborhood.hpp"
#include "core/size_planner.hpp"
#include "core/standard_partition.hpp"
#include "core/start_partition.hpp"
#include "core/tabu.hpp"
#include "electrical/delay_model.hpp"
#include "estimators/current_profile.hpp"
#include "estimators/delay_estimator.hpp"
#include "estimators/incremental_timing.hpp"
#include "estimators/transition_times.hpp"
#include "library/cell_library.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/distance_oracle.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "partition/evaluator.hpp"
#include "sim/logic_sim.hpp"
#include "sim/patterns.hpp"
#include "support/executor.hpp"

namespace {

using namespace iddq;

const netlist::Netlist& circuit() {
  static const netlist::Netlist nl = netlist::gen::make_iscas_like("c7552");
  return nl;
}

const lib::CellLibrary& library() {
  static const lib::CellLibrary lib = lib::default_library();
  return lib;
}

const part::EvalContext& context() {
  static const part::EvalContext ctx(circuit(), library(),
                                     elec::SensorSpec{}, part::CostWeights{});
  return ctx;
}

// Size ladder for the scaling benches (Arg = index): per-move costs must
// stop scaling with total gate count now that the refresh is incremental.
// Indices 4-7 are BIG-tier loader builtins (~10k / ~30k / ~100k gates and
// the 64x64 NOR-cell multiplier).
constexpr std::array<const char*, 8> kSizeLadder = {
    "c1908",      "c3540",      "c5315",       "c7552",
    "big_dag10k", "big_dag30k", "big_dag100k", "mult64"};

const part::EvalContext& context_at(std::size_t idx) {
  static std::array<const netlist::Netlist*, kSizeLadder.size()> nls{};
  static std::array<const part::EvalContext*, kSizeLadder.size()> ctxs{};
  if (ctxs[idx] == nullptr) {
    // load_circuit serves both families: c-names map to make_iscas_like,
    // BIG-ladder names to their generators.
    nls[idx] = new netlist::Netlist(netlist::load_circuit(kSizeLadder[idx]));
    ctxs[idx] = new part::EvalContext(*nls[idx], library(),
                                     elec::SensorSpec{}, part::CostWeights{});
  }
  return *ctxs[idx];
}

void BM_EvalContextConstruction(benchmark::State& state) {
  for (auto _ : state) {
    const part::EvalContext ctx(circuit(), library(), elec::SensorSpec{},
                                part::CostWeights{});
    benchmark::DoNotOptimize(ctx.d_nominal_ps);
  }
}
BENCHMARK(BM_EvalContextConstruction)->Unit(benchmark::kMillisecond);

void BM_EvaluatorFullBuild(benchmark::State& state) {
  const auto& ctx = context();
  Rng rng(1);
  const auto p = core::make_start_partition(circuit(), 6, rng);
  for (auto _ : state) {
    part::PartitionEvaluator eval(ctx, p);
    benchmark::DoNotOptimize(eval.violation());
  }
}
BENCHMARK(BM_EvaluatorFullBuild)->Unit(benchmark::kMillisecond);

void BM_IncrementalMoveAndFitness(benchmark::State& state) {
  const auto& ctx = context();
  Rng rng(2);
  part::PartitionEvaluator eval(
      ctx, core::make_start_partition(circuit(), 6, rng));
  const auto logic = circuit().logic_gates();
  std::size_t i = 0;
  for (auto _ : state) {
    const netlist::GateId g = logic[i++ % logic.size()];
    const auto target = static_cast<std::uint32_t>(
        i % eval.partition().module_count());
    eval.move_gate(g, target);
    benchmark::DoNotOptimize(eval.fitness());
  }
}
BENCHMARK(BM_IncrementalMoveAndFitness)->Unit(benchmark::kMicrosecond);

// Steady-state cost of one committed move + fitness query at each circuit
// size (Arg indexes kSizeLadder). With the incremental refresh the cost
// tracks the touched modules and the affected timing cone, not the gate
// count — compare the per-iteration times down the ladder against
// BM_IncrementalMoveAndFitness's historical full-pass behaviour.
void BM_FitnessAfterMove(benchmark::State& state) {
  const auto& ctx = context_at(static_cast<std::size_t>(state.range(0)));
  Rng rng(12);
  // Fixed module SIZE (not count): the touched-module work stays constant
  // down the ladder, so any residual scaling exposes a global term.
  const std::size_t k =
      std::max<std::size_t>(2, ctx.nl.logic_gate_count() / 160);
  part::PartitionEvaluator eval(ctx,
                                core::make_start_partition(ctx.nl, k, rng));
  benchmark::DoNotOptimize(eval.fitness());
  std::size_t i = 0;
  const auto logic = ctx.nl.logic_gates();
  for (auto _ : state) {
    netlist::GateId g = logic[i++ % logic.size()];
    while (eval.partition().module_size(eval.partition().module_of(g)) <= 1)
      g = logic[i++ % logic.size()];
    const std::uint32_t src = eval.partition().module_of(g);
    const auto count =
        static_cast<std::uint32_t>(eval.partition().module_count());
    const auto target = static_cast<std::uint32_t>(
        (src + 1 + i % (count - 1)) % count);
    eval.move_gate(g, target);
    benchmark::DoNotOptimize(eval.fitness());
  }
}
BENCHMARK(BM_FitnessAfterMove)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMicrosecond);

// probe_move vs the copy + move_gate + fitness recipe it replaces, against
// the same round-start state (what one tabu candidate costs). Two
// partition regimes: fine-grained (K = V/48, many small modules) and the
// size planner's K (a few big modules, what tabu, annealing and greedy
// search). Either way the probe applies the move in place, snapshotting
// and restoring its two module slots (profiles included, so O(grid) per
// slot); its critical path comes from the round-start state's slack
// certificate — a pass over the near-critical gates — and the two
// modules' delay rows often from the exact delay memo. The copy pays the
// O(gates + K*grid) copy and a full timing pass.
void BM_ProbeVsCopy(benchmark::State& state) {
  const auto& ctx = context_at(static_cast<std::size_t>(state.range(0)));
  Rng rng(13);
  const std::size_t k =
      state.range(2) != 0
          ? core::plan_module_size(ctx).module_count
          : std::max<std::size_t>(2, ctx.nl.logic_gate_count() / 48);
  part::PartitionEvaluator eval(ctx,
                                core::make_start_partition(ctx.nl, k, rng));
  benchmark::DoNotOptimize(eval.fitness());
  const bool use_probe = state.range(1) != 0;
  std::size_t i = 0;
  const auto logic = ctx.nl.logic_gates();
  for (auto _ : state) {
    part::Move mv;
    do {
      mv.gate = logic[i++ % logic.size()];
      mv.target = static_cast<std::uint32_t>(
          i % eval.partition().module_count());
    } while (
        eval.partition().module_of(mv.gate) == mv.target ||
        eval.partition().module_size(eval.partition().module_of(mv.gate)) <=
            1);
    if (use_probe) {
      benchmark::DoNotOptimize(eval.probe_move(mv.gate, mv.target));
    } else {
      part::PartitionEvaluator copy = eval;
      copy.move_gate(mv.gate, mv.target);
      benchmark::DoNotOptimize(copy.fitness());
    }
  }
}
// {circuit, 0=copy/1=probe, 0=K=V/48/1=planner K}
BENCHMARK(BM_ProbeVsCopy)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// One ES child, scored the two ways: copy the parent + move_gate... +
// fitness (the historical per-child recipe), or probe_moves on the parent
// itself (what run_evolution does: the parent's slack certificate is
// built on the first probe and reused by every later one). Children are
// boundary mutations of four gates on an ES-sized partition (modules of
// ~600 gates), drawn like the ES draws them: on a journaled draft of the
// parent's partition.
void BM_EsChildScore(benchmark::State& state) {
  const auto& ctx = context_at(static_cast<std::size_t>(state.range(0)));
  Rng rng(14);
  const std::size_t k =
      std::max<std::size_t>(2, ctx.nl.logic_gate_count() / 600);
  part::PartitionEvaluator parent(ctx,
                                  core::make_start_partition(ctx.nl, k, rng));
  benchmark::DoNotOptimize(parent.fitness());
  std::vector<std::vector<part::Move>> children(64);
  part::Partition draft = parent.partition();
  std::vector<netlist::GateId> boundary;
  std::vector<std::uint32_t> targets;
  for (auto& moves : children) {
    draft.begin_journal();
    const auto m = static_cast<std::uint32_t>(rng.index(k));
    parent.boundary(m, boundary);  // draft == parent's partition here
    rng.shuffle(boundary);
    boundary.resize(std::min<std::size_t>(boundary.size(), 4));
    for (const netlist::GateId g : boundary) {
      core::neighbor_modules(ctx.nl, draft, g, draft.module_of(g), targets);
      if (targets.empty() || draft.module_size(draft.module_of(g)) <= 1)
        continue;
      const std::uint32_t target = targets[rng.index(targets.size())];
      draft.move(g, target);
      moves.push_back(part::Move{g, target});
    }
    draft.rollback();
  }
  const bool use_probe = state.range(1) != 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& moves = children[i++ % children.size()];
    if (use_probe) {
      benchmark::DoNotOptimize(parent.probe_moves(moves));
    } else {
      part::PartitionEvaluator child = parent;
      for (const part::Move& mv : moves) child.move_gate(mv.gate, mv.target);
      benchmark::DoNotOptimize(child.fitness());
    }
  }
}
BENCHMARK(BM_EsChildScore)
    // {big_dag10k/30k/100k, mult64} x {0=copy, 1=probe}
    ->ArgsProduct({{4, 5, 6, 7}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// What a parent pays for its slack certificate: a full forward pass alone
// (probe_full), and certify() on a fresh copy, which takes its own forward
// pass and then the backward walk over the near-critical gates. Factors
// are 1 + 5% noise, about the spread of the ES's module rows.
void BM_TimingCertificate(benchmark::State& state) {
  const auto& ctx = context_at(static_cast<std::size_t>(state.range(0)));
  const bool walk = state.range(1) != 0;
  std::vector<double> delta(ctx.nl.gate_count(), 1.0);
  Rng rng(14);
  for (const netlist::GateId id : ctx.nl.logic_gates())
    delta[id] = 1.0 + rng.uniform() * 0.05;
  const auto factor = [&delta](netlist::GateId g) { return delta[g]; };
  est::IncrementalTiming timing(ctx.timing_graph);
  std::size_t near_gates = 0;
  for (auto _ : state) {
    if (walk) {
      est::IncrementalTiming copy = timing;
      copy.certify(factor);
      near_gates = copy.certificate().near.size();
      benchmark::DoNotOptimize(near_gates);
    } else {
      benchmark::DoNotOptimize(timing.probe_full(factor));
    }
  }
  if (walk) state.counters["near_gates"] = static_cast<double>(near_gates);
}
BENCHMARK(BM_TimingCertificate)
    // {big_dag10k/30k/100k, mult64} x {0=forward pass, 1=pass + walk}
    ->ArgsProduct({{4, 5, 6, 7}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_EvaluatorCopy(benchmark::State& state) {
  const auto& ctx = context();
  Rng rng(3);
  const part::PartitionEvaluator eval(
      ctx, core::make_start_partition(circuit(), 6, rng));
  for (auto _ : state) {
    part::PartitionEvaluator copy = eval;
    benchmark::DoNotOptimize(copy.partition().module_count());
  }
}
BENCHMARK(BM_EvaluatorCopy)->Unit(benchmark::kMicrosecond);

void BM_BoundaryGates(benchmark::State& state) {
  const auto& ctx = context();
  Rng rng(4);
  const part::PartitionEvaluator eval(
      ctx, core::make_start_partition(circuit(), 6, rng));
  std::vector<netlist::GateId> boundary;
  std::uint32_t m = 0;
  for (auto _ : state) {
    eval.boundary(m, boundary);
    benchmark::DoNotOptimize(boundary.data());
    m = (m + 1) % eval.partition().module_count();
  }
}
BENCHMARK(BM_BoundaryGates)->Unit(benchmark::kMicrosecond);

void BM_TransitionTimes(benchmark::State& state) {
  const auto cells = lib::bind_cells(circuit(), library());
  for (auto _ : state) {
    const est::TransitionTimes tt(circuit(), cells, 45.0);
    benchmark::DoNotOptimize(tt.grid_size());
  }
}
BENCHMARK(BM_TransitionTimes)->Unit(benchmark::kMillisecond);

// BIG-tier ladder of the set-up benches (Arg = index). The distance oracle
// and the standard clustering run once per circuit, outside the search;
// both must grow linearly with gate count (about 10x from 10k to 100k).
constexpr std::array<const char*, 3> kBigLadder = {
    "big_dag10k", "big_dag30k", "big_dag100k"};

struct BigFixture {
  netlist::Netlist nl;
  part::EvalContext ctx;
  std::vector<std::size_t> even_sizes;  // planner's K, split evenly

  explicit BigFixture(const char* name)
      : nl(netlist::load_circuit(name)),
        ctx(nl, library(), elec::SensorSpec{}, part::CostWeights{}) {
    const std::size_t k = core::plan_module_size(ctx).module_count;
    const std::size_t n = nl.logic_gate_count();
    even_sizes.assign(k, n / k);
    for (std::size_t i = 0; i < n % k; ++i) ++even_sizes[i];
  }
};

BigFixture& big_at(std::size_t idx) {
  static std::array<BigFixture*, kBigLadder.size()> fixtures{};
  if (fixtures[idx] == nullptr) fixtures[idx] = new BigFixture(kBigLadder[idx]);
  return *fixtures[idx];
}

void BM_DistanceOracle(benchmark::State& state) {
  const auto& f = big_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const netlist::DistanceOracle oracle(f.nl, f.ctx.oracle.rho());
    benchmark::DoNotOptimize(oracle.entry_count());
  }
}
BENCHMARK(BM_DistanceOracle)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The section-5 baseline at the module count the planner picks, as the
// `standard` optimizer runs it when no other method supplied the sizes.
void BM_StandardPartition(benchmark::State& state) {
  const auto& f = big_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::standard_partition(f.nl, f.ctx.oracle, f.even_sizes));
  }
}
BENCHMARK(BM_StandardPartition)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Ladder for the profile-max benches: Table-1 sizes plus the full BIG
// tier (the grid grows with circuit depth, so big_dag100k has the widest
// time grid in the repo). Needs only TransitionTimes, not a full
// EvalContext.
constexpr std::array<const char*, 5> kProfileLadder = {
    "c1908", "c7552", "big_dag10k", "big_dag30k", "big_dag100k"};

struct ProfileFixture {
  netlist::Netlist nl;
  std::vector<lib::CellParams> cells;
  est::TransitionTimes tt;
  est::ModuleCurrentProfile profile;
  std::vector<netlist::GateId> members;  // gates inside the profiled module

  explicit ProfileFixture(const char* name)
      : nl(netlist::load_circuit(name)),
        cells(lib::bind_cells(nl, library())),
        tt(nl, cells, 45.0),
        profile(tt.grid_size()) {
    // A plausible module: every 8th logic gate, i.e. the n/8-gate module
    // a K=8 partition would hold.
    const auto logic = nl.logic_gates();
    for (std::size_t i = 0; i < logic.size(); i += 8)
      members.push_back(logic[i]);
    for (const netlist::GateId g : members)
      profile.add_gate(tt.at(g), cells[g].ipeak_ua);
  }
};

ProfileFixture& profile_at(std::size_t idx) {
  static std::array<ProfileFixture*, kProfileLadder.size()> fixtures{};
  if (fixtures[idx] == nullptr)
    fixtures[idx] = new ProfileFixture(kProfileLadder[idx]);
  return *fixtures[idx];
}

// A committed move's profile work: remove one gate, add another (O(|T(g)|)
// slot updates), then read the new maxima (two O(grid) scans).
void BM_ProfileCommitAndMax(benchmark::State& state) {
  auto& f = profile_at(static_cast<std::size_t>(state.range(0)));
  const auto logic = f.nl.logic_gates();
  std::size_t i = 0;
  for (auto _ : state) {
    const netlist::GateId out = f.members[i % f.members.size()];
    const netlist::GateId in = logic[i++ % logic.size()];
    f.profile.remove_gate(f.tt.at(out), f.cells[out].ipeak_ua);
    f.profile.add_gate(f.tt.at(in), f.cells[in].ipeak_ua);
    benchmark::DoNotOptimize(f.profile.max_current_ua());
    benchmark::DoNotOptimize(f.profile.max_switching());
    f.profile.remove_gate(f.tt.at(in), f.cells[in].ipeak_ua);
    f.profile.add_gate(f.tt.at(out), f.cells[out].ipeak_ua);
  }
}
BENCHMARK(BM_ProfileCommitAndMax)
    ->DenseRange(0, 4)  // circuit
    ->Unit(benchmark::kMicrosecond);

// Closed-form 50%-crossing vs the historical 100-iteration bisection it
// replaced (both still bit-identical, pinned by the electrical tests).
void BM_DelayAnchorClosedVsBisect(benchmark::State& state) {
  const bool closed = state.range(0) != 0;
  elec::DelayModelInput in;
  in.rs_kohm = 0.02;
  in.cs_ff = 2000.0;
  in.cg_ff = 15.0;
  in.rg_kohm = 25.0;
  in.n = 50;
  for (auto _ : state) {
    if (closed) {
      benchmark::DoNotOptimize(elec::DelayDegradationModel::t50_ps(in));
    } else {
      benchmark::DoNotOptimize(
          elec::DelayDegradationModel::t50_ps_bisect(in));
    }
    in.n = (in.n % 200) + 1;
  }
}
BENCHMARK(BM_DelayAnchorClosedVsBisect)->Arg(0)->Arg(1);

void BM_DelayModelSolve(benchmark::State& state) {
  elec::DelayModelInput in;
  in.rs_kohm = 0.02;
  in.cs_ff = 2000.0;
  in.cg_ff = 15.0;
  in.rg_kohm = 25.0;
  in.n = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(elec::DelayDegradationModel::delta(in));
    in.n = (in.n % 200) + 1;
  }
}
BENCHMARK(BM_DelayModelSolve);

void BM_LogicSim64Patterns(benchmark::State& state) {
  const sim::LogicSim simulator(circuit());
  Rng rng(5);
  const auto batches = sim::random_patterns(circuit(), 64, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(simulator.run(batches[0].words));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_LogicSim64Patterns)->Unit(benchmark::kMicrosecond);

/// An ES request on c7552: six-module starts at seed 7, on `pool`.
core::OptimizerRequest es_request(support::ExecutorPool* pool = nullptr) {
  core::OptimizerRequest request;
  request.ctx = &context();
  request.module_count = 6;
  request.seed = 7;
  request.pool = pool;
  return request;
}

/// The default ES population capped at `generations`.
core::OptimizerConfig es_config(std::size_t generations) {
  core::OptimizerConfig config;
  config.es.mu = 8;
  config.es.lambda = 7;
  config.es.chi = 2;
  config.es.max_generations = generations;
  config.es.stall_generations = generations;
  return config;
}

void BM_EvolutionGeneration(benchmark::State& state) {
  const core::OptimizerRequest request = es_request();
  const core::OptimizerConfig config = es_config(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::run_evolution(request, config));
}
BENCHMARK(BM_EvolutionGeneration)->Unit(benchmark::kMillisecond);

// Thread-count scaling of the ES inner loop (the row the ISSUE's speedup
// criterion reads): same seed, same trajectory, only the wall clock moves.
// Arg = ExecutorPool size (1 = serial baseline).
void BM_EvolutionGenerationThreads(benchmark::State& state) {
  support::ExecutorPool pool(static_cast<std::size_t>(state.range(0)));
  const core::OptimizerRequest request = es_request(&pool);
  const core::OptimizerConfig config = es_config(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::run_evolution(request, config));
}
BENCHMARK(BM_EvolutionGenerationThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Thread-count scaling of the tabu candidate evaluation.
void BM_TabuRoundsThreads(benchmark::State& state) {
  support::ExecutorPool pool(static_cast<std::size_t>(state.range(0)));
  Rng rng(6);
  core::OptimizerRequest request;
  request.ctx = &context();
  request.start = core::make_start_partition(circuit(), 6, rng);
  request.seed = 9;
  request.pool = &pool;
  core::OptimizerConfig config;
  config.tabu.iterations = 8;
  config.tabu.candidates = 16;
  config.tabu.stall_iterations = 8;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::run_tabu(request, config));
}
BENCHMARK(BM_TabuRoundsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
