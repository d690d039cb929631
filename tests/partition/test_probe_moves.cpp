// probe_moves contract, checked differentially over seeded random cases:
// for any move list — module-emptying moves and no-op moves included —
// probe_moves(moves) must return bit-for-bit what copy + move_gate... +
// fitness()/costs() returns, and must leave the probing evaluator equal
// to an untouched copy: same partition, a passing self_check(), and a
// bit-equal next fitness(). Circuits are small random DAGs with the
// ISCAS-like gate mix and AND-EXOR ILA planes; partitions, prior
// evaluator states and move lists are random. A failure names its
// circuit and case seeds, which reproduce it alone. Over its cases the
// suite must see both ways a child's critical path is taken: the
// certificate's near-critical pass and the full-pass fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/start_partition.hpp"
#include "netlist/gen/ila.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "partition/evaluator.hpp"
#include "support/rng.hpp"

namespace iddq::part {
namespace {

constexpr std::uint64_t kMasterSeed = 0x9e0be5;
constexpr int kCircuits = 40;
constexpr int kCasesPerCircuit = 50;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same(const Fitness& got, const Fitness& want, const char* what) {
  EXPECT_TRUE(same_bits(got.violation, want.violation))
      << what << " violation: " << got.violation << " vs " << want.violation;
  EXPECT_TRUE(same_bits(got.cost, want.cost))
      << what << " cost: " << got.cost << " vs " << want.cost;
}

void expect_same(const Costs& got, const Costs& want, const char* what) {
  const auto g = got.as_array();
  const auto w = want.as_array();
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_TRUE(same_bits(g[i], w[i]))
        << what << " c" << i + 1 << ": " << g[i] << " vs " << w[i];
}

netlist::Netlist random_circuit(Rng& rng) {
  if (rng.below(3) == 0) {
    const std::size_t rows = 2 + rng.index(5);
    const std::size_t cols = 1 + rng.index(8);
    return netlist::gen::make_and_exor_ila(rows, cols).netlist;
  }
  // The c1908 gate-kind and fan-in mix at a small, random size.
  netlist::gen::DagProfile profile = netlist::gen::iscas_profile("c1908");
  profile.gates = 30 + rng.index(300);
  profile.depth = 3 + rng.index(std::min<std::size_t>(profile.gates / 3, 25));
  profile.inputs = 4 + rng.index(20);
  profile.outputs = 2 + rng.index(10);
  profile.seed = rng();
  return netlist::gen::make_random_dag(profile);
}

/// A clustered start partition or a uniformly random one, K in [1, 12].
Partition random_partition(const netlist::Netlist& nl, Rng& rng) {
  const std::size_t logic = nl.logic_gate_count();
  const std::size_t k = 1 + rng.index(std::min<std::size_t>(logic, 12));
  if (rng.below(2) == 0) return core::make_start_partition(nl, k, rng);
  std::vector<std::vector<netlist::GateId>> groups(k);
  const auto gates = nl.logic_gates();
  for (std::size_t i = 0; i < gates.size(); ++i)
    groups[i < k ? i : rng.index(k)].push_back(gates[i]);
  return Partition::from_groups(nl, groups);
}

/// A random move list valid against `p` applied in order, tracked on a
/// draft the same way the evaluator applies it. Mixes arbitrary moves,
/// no-op moves, and runs that drain a small module until it is erased.
std::vector<Move> random_moves(const netlist::Netlist& nl, Partition draft,
                               Rng& rng) {
  std::vector<Move> moves;
  const auto gates = nl.logic_gates();
  const std::size_t length = rng.index(14);
  const auto apply = [&](netlist::GateId g, std::uint32_t target) {
    const std::uint32_t src = draft.module_of(g);
    draft.move(g, target);
    if (draft.module_size(src) == 0) draft.erase_empty_module(src);
    moves.push_back(Move{g, target});
  };
  while (moves.size() < length) {
    const std::size_t k = draft.module_count();
    const std::uint64_t kind = rng.below(8);
    if (kind == 0 || k < 2) {  // no-op: a gate "moves" to its own module
      const netlist::GateId g = gates[rng.index(gates.size())];
      moves.push_back(Move{g, draft.module_of(g)});
    } else if (kind == 1) {  // empty the smallest module into another
      std::uint32_t src = 0;
      for (std::uint32_t m = 1; m < k; ++m)
        if (draft.module_size(m) < draft.module_size(src)) src = m;
      auto dst = static_cast<std::uint32_t>(rng.index(k - 1));
      if (dst >= src) ++dst;
      const std::vector<netlist::GateId> members(draft.module(src).begin(),
                                                 draft.module(src).end());
      // Indices stay put until the last move erases src.
      for (const netlist::GateId g : members) apply(g, dst);
    } else {
      const netlist::GateId g = gates[rng.index(gates.size())];
      const std::uint32_t src = draft.module_of(g);
      auto target = static_cast<std::uint32_t>(rng.index(k - 1));
      if (target >= src) ++target;
      apply(g, target);
    }
  }
  return moves;
}

/// How many probe_moves children took each timing path.
struct PathCounts {
  std::size_t certified = 0;
  std::size_t fallback = 0;

  void add(const PartitionEvaluator& eval) {
    certified += eval.timing().certified_probes();
    fallback += eval.timing().fallback_probes();
  }
};

/// One seeded case on a shared context: a partition, an evaluator brought
/// into a random prior state, and several move lists probed on it in a
/// row.
void run_case(const EvalContext& ctx, std::uint64_t seed,
              PathCounts& counts) {
  SCOPED_TRACE("case seed " + std::to_string(seed));
  const netlist::Netlist& nl = ctx.nl;
  Rng rng(seed);
  PartitionEvaluator built(ctx, random_partition(nl, rng));

  // Prior states the ES and the local searches leave behind: clean with
  // live arrivals, a fresh copy (arrivals dropped), or pending moves.
  PartitionEvaluator eval = built;
  switch (rng.below(4)) {
    case 0:
      (void)eval.fitness();
      break;
    case 1:
      (void)built.fitness();
      eval = built;
      break;
    case 2:
      (void)eval.fitness();
      [[fallthrough]];
    default:
      for (const Move& mv : random_moves(nl, eval.partition(), rng))
        eval.move_gate(mv.gate, mv.target);
      if (rng.below(2) == 0) eval = PartitionEvaluator(eval);
      break;
  }

  const PartitionEvaluator before = eval;
  const int probes = 1 + static_cast<int>(rng.index(4));
  for (int i = 0; i < probes; ++i) {
    const std::vector<Move> moves = random_moves(nl, eval.partition(), rng);
    PartitionEvaluator copy = eval;
    const MoveProbe probe = eval.probe_moves(moves);
    for (const Move& mv : moves) copy.move_gate(mv.gate, mv.target);
    expect_same(probe.fitness, copy.fitness(), "probe vs copy");
    expect_same(probe.costs, copy.costs(), "probe vs copy");
    ASSERT_TRUE(eval.partition() == before.partition())
        << "probe_moves changed the partition";
    if (::testing::Test::HasFailure()) return;
  }
  counts.add(eval);
  ASSERT_NO_THROW(eval.self_check());
  PartitionEvaluator untouched = before;
  expect_same(eval.fitness(), untouched.fitness(), "after probes");
  expect_same(eval.costs(), untouched.costs(), "after probes");
}

TEST(ProbeMoves, RandomMoveListsMatchCopyMoveFitness) {
  const auto library = lib::default_library();
  PathCounts counts;
  for (int c = 0; c < kCircuits; ++c) {
    const std::uint64_t circuit_seed =
        Rng::mix_seed(kMasterSeed, static_cast<std::uint64_t>(c));
    SCOPED_TRACE("circuit seed " + std::to_string(circuit_seed));
    Rng rng(circuit_seed);
    const netlist::Netlist nl = random_circuit(rng);
    elec::SensorSpec sensor;
    if (rng.below(2) == 0) sensor.iddq_th_ua = 15.0;  // mostly feasible
    const EvalContext ctx(nl, library, sensor, CostWeights{});
    for (int i = 0; i < kCasesPerCircuit; ++i) {
      run_case(ctx, Rng::mix_seed(circuit_seed, static_cast<std::uint64_t>(i)),
               counts);
      if (::testing::Test::HasFailure()) return;  // first failing seed only
    }
  }
  EXPECT_GT(counts.certified, 0u);
  EXPECT_GT(counts.fallback, 0u);
}

TEST(ProbeMoves, EmptyListScoresTheCurrentState) {
  const auto nl = netlist::gen::make_and_exor_ila(4, 4).netlist;
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(5);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 3, rng));
  const Fitness fitness = eval.fitness();
  const Costs costs = eval.costs();
  const MoveProbe probe = eval.probe_moves({});
  expect_same(probe.fitness, fitness, "empty list");
  expect_same(probe.costs, costs, "empty list");
}

TEST(ProbeMoves, ProbingLeavesTheEvaluatorUsable) {
  // probe, commit, probe: scratch reused across erasing probes must not
  // leak into later committed state.
  const auto nl = netlist::gen::make_and_exor_ila(5, 6).netlist;
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(11);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 6, rng));
  for (int round = 0; round < 40; ++round) {
    const std::vector<Move> moves = random_moves(nl, eval.partition(), rng);
    PartitionEvaluator before = eval;
    (void)eval.probe_moves(moves);
    ASSERT_TRUE(eval.partition() == before.partition());
    expect_same(eval.fitness(), before.fitness(), "after probe");
    if (round % 2 == 0 && eval.partition().module_count() > 2) {
      const auto gates = nl.logic_gates();
      const netlist::GateId g = gates[rng.index(gates.size())];
      const std::uint32_t src = eval.partition().module_of(g);
      if (eval.partition().module_size(src) > 1)
        eval.move_gate(g, (src + 1) % eval.partition().module_count());
    }
  }
  ASSERT_NO_THROW(eval.self_check());
}

TEST(ProbeMoves, CertificateIsCarriedAcrossCommittedMoves) {
  // Several children scored against one certificate, then a few committed
  // move_gates: the commit's refresh re-validates the certificate and,
  // when it still vouches, keeps it — D_BIC from the near set, no new
  // walk — and the next children are scored against the carried one.
  const auto library = lib::default_library();
  Rng rng(29);
  netlist::gen::DagProfile profile = netlist::gen::iscas_profile("c1908");
  profile.gates = 400;
  profile.depth = 20;
  profile.seed = 29;
  const netlist::Netlist nl = netlist::gen::make_random_dag(profile);
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 6, rng));
  (void)eval.fitness();
  EXPECT_FALSE(eval.timing().certified());
  const auto gates = nl.logic_gates();
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (int child = 0; child < 5; ++child) {
      const std::vector<Move> moves = random_moves(nl, eval.partition(), rng);
      PartitionEvaluator copy = eval;
      const MoveProbe probe = eval.probe_moves(moves);
      for (const Move& mv : moves) copy.move_gate(mv.gate, mv.target);
      expect_same(probe.fitness, copy.fitness(), "probe vs copy");
      expect_same(probe.costs, copy.costs(), "probe vs copy");
    }
    const std::size_t scored = eval.timing().certified_probes() +
                               eval.timing().fallback_probes();
    EXPECT_EQ(scored, static_cast<std::size_t>(5 * (round + 1)));
    // Commit a few moves; the refresh either keeps the certificate (a
    // certified commit) or drops it with a full timing pass.
    const std::size_t commits = eval.timing().certified_commits();
    for (int i = 0; i < 3; ++i) {
      const netlist::GateId g = gates[rng.index(gates.size())];
      const std::uint32_t src = eval.partition().module_of(g);
      if (eval.partition().module_size(src) > 1)
        eval.move_gate(g, (src + 1) % eval.partition().module_count());
    }
    (void)eval.fitness();
    ASSERT_NO_THROW(eval.self_check());
    if (eval.timing().certified()) {
      EXPECT_EQ(eval.timing().certified_commits(), commits + 1);
      EXPECT_FALSE(eval.timing().valid());
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(eval.timing().certified_probes(), 0u);
  EXPECT_GT(eval.timing().certified_commits(), 0u);
  // Carried certificates spare walks: fewer than one per committed round.
  EXPECT_LT(eval.timing().recertifications(), 12u);
}

}  // namespace
}  // namespace iddq::part
