// probe_move contract: for any non-emptying move, probe_move(g, target)
// must return bit-for-bit what a copy of the evaluator would report after
// committing the move — across random walks, tabu-style candidate fans,
// and annealing-style accept/reject traces — while leaving the probing
// evaluator's own observable state untouched. Every slack certificate a
// probe takes must equal the one a fresh timing instance takes over the
// committed factors (tests/committed_certificate.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/neighborhood.hpp"
#include "core/size_planner.hpp"
#include "core/start_partition.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/gen/random_dag.hpp"
#include "partition/evaluator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "committed_certificate.hpp"
#include "test_seed.hpp"

namespace iddq::part {
namespace {

void expect_bits_eq(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

/// probe_move against copy + move_gate + fitness()/costs(); a certificate
/// the probe takes must be the committed state's.
void expect_probe_matches_copy(PartitionEvaluator& eval, netlist::GateId g,
                               std::uint32_t target) {
  MoveProbe probe;
  testutil::expect_walks_committed_state(
      eval, [&] { probe = eval.probe_move(g, target); });
  PartitionEvaluator copy = eval;
  copy.move_gate(g, target);
  const Fitness fitness = copy.fitness();
  const Costs costs = copy.costs();
  expect_bits_eq(probe.fitness.violation, fitness.violation, "violation");
  expect_bits_eq(probe.fitness.cost, fitness.cost, "cost");
  const auto got = probe.costs.as_array();
  const auto want = costs.as_array();
  for (std::size_t i = 0; i < want.size(); ++i)
    expect_bits_eq(got[i], want[i], "costs[i]");
}

/// probe_moves against copy + move_gate... + fitness()/costs(); the copy
/// then checks its committed D_BIC against a full pass, so a certificate
/// the probe and the copy share cannot vouch for both wrongly. A
/// certificate the probe takes must be the committed state's.
void expect_moves_match_copy(PartitionEvaluator& eval,
                             const std::vector<part::Move>& moves) {
  MoveProbe probe;
  testutil::expect_walks_committed_state(
      eval, [&] { probe = eval.probe_moves(moves); });
  PartitionEvaluator copy = eval;
  for (const part::Move& mv : moves) copy.move_gate(mv.gate, mv.target);
  const Costs costs = copy.costs();
  expect_bits_eq(probe.fitness.violation, copy.fitness().violation,
                 "moves violation");
  expect_bits_eq(probe.fitness.cost, copy.fitness().cost, "moves cost");
  const auto got = probe.costs.as_array();
  const auto want = costs.as_array();
  for (std::size_t i = 0; i < want.size(); ++i)
    expect_bits_eq(got[i], want[i], "moves costs[i]");
  ASSERT_NO_THROW(copy.self_check());
}

/// What the timing engines of a run of evaluators counted.
struct TimingCounts {
  std::size_t certified = 0;
  std::size_t fallback = 0;
  std::size_t commits = 0;
  std::size_t recertifications = 0;

  void add(const PartitionEvaluator& eval) {
    certified += eval.timing().certified_probes();
    fallback += eval.timing().fallback_probes();
    commits += eval.timing().certified_commits();
    recertifications += eval.timing().recertifications();
  }
};

/// A random non-emptying move, or an invalid one when none exists.
part::Move random_move(const PartitionEvaluator& eval, Rng& rng) {
  const auto& p = eval.partition();
  const auto logic = eval.context().nl.logic_gates();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const netlist::GateId g = logic[rng.index(logic.size())];
    const std::uint32_t src = p.module_of(g);
    if (p.module_size(src) <= 1) continue;
    const auto target =
        static_cast<std::uint32_t>(rng.index(p.module_count()));
    if (target == src) continue;
    return part::Move{g, target};
  }
  return part::Move{};
}

struct Scenario {
  std::size_t gates;
  std::size_t depth;
  std::size_t modules;
  std::uint64_t seed;
};

class ProbeEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(ProbeEquivalence, RandomWalkProbesMatchCopyMoveFitness) {
  const Scenario s = GetParam();
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("probe", s.gates, s.depth, s.seed));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(s.seed * 104729 + 7);
  PartitionEvaluator eval(ctx,
                          core::make_start_partition(nl, s.modules, rng));

  for (int step = 0; step < 60; ++step) {
    const part::Move mv = random_move(eval, rng);
    if (!mv.valid()) break;
    const Fitness before = eval.fitness();
    expect_probe_matches_copy(eval, mv.gate, mv.target);
    // Probing must not disturb the probing evaluator.
    const Fitness after = eval.fitness();
    expect_bits_eq(after.violation, before.violation, "probe side effect");
    expect_bits_eq(after.cost, before.cost, "probe side effect");
    // Random-walk the base state: commit some probes, leave others.
    if (step % 3 != 2) eval.move_gate(mv.gate, mv.target);
    if (step % 10 == 9) ASSERT_NO_THROW(eval.self_check());
  }
}

// The last scenario's tiny modules make single moves swing their two
// modules' factors far, so its probes exercise the certificate's full-pass
// fallback as well as its near-critical pass.
INSTANTIATE_TEST_SUITE_P(
    Scenarios, ProbeEquivalence,
    ::testing::Values(Scenario{60, 6, 2, 1}, Scenario{150, 12, 4, 2},
                      Scenario{300, 15, 5, 3}, Scenario{300, 15, 3, 4},
                      Scenario{500, 20, 6, 5}, Scenario{500, 20, 160, 6}));

// Differential over the search regimes: boundary moves (what tabu,
// annealing and greedy propose) on Table-1 and BIG-family circuits, at the
// size planner's module count and at fine-grained K = V/48. Commits carry
// the slack certificate when it still vouches and are followed by
// self_check(), which rederives every delay row without the memo and
// D_BIC by a full pass; annealing-style move+revert replays bring the
// running sums back to operands the memo has seen; copies (ES survivors,
// tabu slices) share the certificate; short move lists (ES children) are
// scored against it too. A failure names its circuit, K and case seed.
TEST(Probe, CertifiedProbesMatchCopiesOnSearchPartitions) {
  constexpr std::uint64_t kMasterSeed = 0x9b0be17;
  const auto library = lib::default_library();
  TimingCounts counts;
  for (const char* circuit : {"c1908", "c5315", "big_dag1k"}) {
    const netlist::Netlist nl = netlist::load_circuit(circuit);
    const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
    const std::size_t planner_k = core::plan_module_size(ctx).module_count;
    const std::size_t fine_k =
        std::max<std::size_t>(2, nl.logic_gate_count() / 48);
    for (const std::size_t k : {planner_k, fine_k}) {
      Rng seeder(kMasterSeed ^ (nl.gate_count() * 131 + k));
      const std::uint64_t seed = seeder();
      SCOPED_TRACE(std::string(circuit) + " K=" + std::to_string(k) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      PartitionEvaluator eval(ctx, core::make_start_partition(nl, k, rng));
      for (int step = 0; step < 200; ++step) {
        const part::Move mv = core::sample_boundary_move(eval, rng);
        if (!mv.valid()) continue;
        ASSERT_NO_THROW(expect_probe_matches_copy(eval, mv.gate, mv.target));
        if (::testing::Test::HasFailure()) return;
        const std::uint32_t src = eval.partition().module_of(mv.gate);
        switch (rng.below(6)) {
          case 0:  // commit
            eval.move_gate(mv.gate, mv.target);
            ASSERT_NO_THROW(eval.self_check());
            break;
          case 1:  // reject, replayed as move + revert
            eval.move_gate(mv.gate, mv.target);
            eval.move_gate(mv.gate, src);
            break;
          case 2:  // a copy continues, sharing the certificate
            counts.add(eval);
            eval = PartitionEvaluator(eval);
            break;
          case 3: {  // a two-move child
            const part::Move second = core::sample_boundary_move(eval, rng);
            std::vector<part::Move> moves{mv};
            if (second.valid()) moves.push_back(second);
            expect_moves_match_copy(eval, moves);
            if (::testing::Test::HasFailure()) return;
            break;
          }
          default:  // another probe against the same certificate
            break;
        }
      }
      ASSERT_NO_THROW(eval.self_check());
      counts.add(eval);
    }
  }
  // Both answers of the certificate must have been exercised, and commits
  // must have carried it.
  EXPECT_GT(counts.certified, 0u);
  EXPECT_GT(counts.fallback, 0u);
  EXPECT_GT(counts.commits, 0u);
}

// A long accept/reject/copy/merge sequence on c1908 at the planner's K
// and on an ILA: after every step the committed D_BIC must equal a full
// pass (self_check), and probe_move and probe_moves must equal copy +
// move + fitness bit for bit. Merging the smallest module into another
// raises the target's factors far enough that the carried certificate
// stops vouching; that commit must fall back to a full pass and the next
// probe re-certify.
TEST(Probe, CarriedCertificateSurvivesAcceptRejectCopySequences) {
  constexpr std::uint64_t kMasterSeed = 0xca7712ed;
  const auto library = lib::default_library();
  TimingCounts counts;
  std::size_t refused_merges = 0;
  for (const char* circuit : {"c1908", "ila16x8"}) {
    const netlist::Netlist nl = netlist::load_circuit(circuit);
    const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
    const std::size_t k =
        std::max<std::size_t>(6, core::plan_module_size(ctx).module_count);
    const std::uint64_t seed = Rng::mix_seed(kMasterSeed, nl.gate_count());
    SCOPED_TRACE(std::string(circuit) + " K=" + std::to_string(k) +
                 " seed=" + std::to_string(seed));
    Rng rng(seed);
    PartitionEvaluator eval(ctx, core::make_start_partition(nl, k, rng));
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const part::Move mv = core::sample_boundary_move(eval, rng);
      if (!mv.valid()) break;
      const std::uint32_t src = eval.partition().module_of(mv.gate);
      const std::uint64_t action = rng.below(16);
      if (action < 7) {  // accept
        eval.move_gate(mv.gate, mv.target);
      } else if (action < 12) {  // reject: move + revert
        eval.move_gate(mv.gate, mv.target);
        eval.move_gate(mv.gate, src);
      } else if (action < 15) {  // an ES survivor or a tabu slice
        counts.add(eval);
        eval = PartitionEvaluator(eval);
      } else if (eval.partition().module_count() > 2) {
        // Merge the smallest module into a random other one.
        const auto& p = eval.partition();
        std::uint32_t small = 0;
        for (std::uint32_t m = 1; m < p.module_count(); ++m)
          if (p.module_size(m) < p.module_size(small)) small = m;
        auto into = static_cast<std::uint32_t>(
            rng.index(p.module_count() - 1));
        if (into >= small) ++into;
        const std::vector<netlist::GateId> members(p.module(small).begin(),
                                                   p.module(small).end());
        const bool held = eval.timing().certified();
        for (const netlist::GateId g : members) eval.move_gate(g, into);
        (void)eval.fitness();
        if (held && !eval.timing().certified()) ++refused_merges;
      }
      ASSERT_NO_THROW(eval.self_check());
      const part::Move probe = core::sample_boundary_move(eval, rng);
      if (probe.valid()) {
        expect_probe_matches_copy(eval, probe.gate, probe.target);
        std::vector<part::Move> moves{probe};
        const part::Move second = core::sample_boundary_move(eval, rng);
        if (second.valid()) moves.push_back(second);
        expect_moves_match_copy(eval, moves);
      }
      if (::testing::Test::HasFailure()) return;
    }
    counts.add(eval);
  }
  EXPECT_GT(counts.certified, 0u);
  EXPECT_GT(counts.commits, 0u);
  EXPECT_GT(refused_merges, 0u);
}

/// The boundary of module m by a full scan of its gates' fanins and
/// fanouts — the reference the evaluator's counts must reproduce: every
/// gate wired to a logic gate outside m, in module order.
std::vector<netlist::GateId> scan_boundary(const netlist::Netlist& nl,
                                           const Partition& p,
                                           std::uint32_t m) {
  std::vector<netlist::GateId> boundary;
  for (const netlist::GateId g : p.module(m)) {
    const auto& gate = nl.gate(g);
    const auto outside = [&](netlist::GateId f) {
      return netlist::is_logic(nl.gate(f).kind) && p.module_of(f) != m;
    };
    if (std::any_of(gate.fanins.begin(), gate.fanins.end(), outside) ||
        std::any_of(gate.fanouts.begin(), gate.fanouts.end(), outside))
      boundary.push_back(g);
  }
  return boundary;
}

void expect_boundaries_match_scan(const PartitionEvaluator& eval) {
  const auto& p = eval.partition();
  std::vector<netlist::GateId> counted;
  for (std::uint32_t m = 0; m < p.module_count(); ++m) {
    eval.boundary(m, counted);
    ASSERT_EQ(counted, scan_boundary(eval.context().nl, p, m))
        << "module " << m;
  }
}

TEST(Probe, BoundaryCountsMatchTheScanUnderAcceptRejectCopySequences) {
  // The per-gate boundary counts follow committed moves only: accepts,
  // rejects (move + revert), copies and merges must leave boundary(m)
  // equal to a full rescan of every module, and probes — probe_move, and
  // probe_moves, whose moves (emptying ones included) roll back — must not
  // change them; a certificate a probe takes must be the committed
  // state's. Fresh seeds each run.
  const std::uint64_t seed = testutil::run_seed();
  SCOPED_TRACE(testutil::replay_note(seed));
  const auto library = lib::default_library();
  for (const char* circuit : {"c1908", "ila16x8"}) {
    SCOPED_TRACE(circuit);
    const netlist::Netlist nl = netlist::load_circuit(circuit);
    const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
    Rng rng(Rng::mix_seed(seed, nl.gate_count()));
    const std::size_t k = 6 + rng.index(12);
    PartitionEvaluator eval(ctx, core::make_start_partition(nl, k, rng));
    expect_boundaries_match_scan(eval);
    std::size_t probed_merges = 0;
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      // Boundary moves as the searches draw them, and arbitrary ones that
      // also pull interior gates across the cut.
      const part::Move mv = rng.below(2) == 0
                                ? core::sample_boundary_move(eval, rng)
                                : random_move(eval, rng);
      if (!mv.valid()) break;
      const std::uint32_t src = eval.partition().module_of(mv.gate);
      const auto& p = eval.partition();
      // Merge the smallest module into a random other one.
      const auto merge = [&] {
        std::uint32_t small = 0;
        for (std::uint32_t m = 1; m < p.module_count(); ++m)
          if (p.module_size(m) < p.module_size(small)) small = m;
        auto into =
            static_cast<std::uint32_t>(rng.index(p.module_count() - 1));
        if (into >= small) ++into;
        std::vector<part::Move> moves;
        for (const netlist::GateId g : p.module(small))
          moves.push_back(part::Move{g, into});
        return moves;
      };
      switch (rng.below(7)) {
        case 0:  // accept
          eval.move_gate(mv.gate, mv.target);
          break;
        case 1:  // reject: move + revert
          eval.move_gate(mv.gate, mv.target);
          eval.move_gate(mv.gate, src);
          break;
        case 2:  // an ES survivor or a tabu slice
          eval = PartitionEvaluator(eval);
          break;
        case 3:  // a merge, committed (K kept above the probed merges')
          if (p.module_count() > 4)
            for (const part::Move& m : merge())
              eval.move_gate(m.gate, m.target);
          break;
        case 4:  // a single-move probe
          testutil::expect_walks_committed_state(
              eval, [&] { (void)eval.probe_move(mv.gate, mv.target); });
          break;
        case 5: {  // an ES child: a few moves, scored and rolled back
          std::vector<part::Move> moves{mv};
          const part::Move second = random_move(eval, rng);
          if (second.valid() && second.gate != mv.gate)
            moves.push_back(second);
          testutil::expect_walks_committed_state(
              eval, [&] { (void)eval.probe_moves(moves); });
          break;
        }
        default:  // an ES child that empties a module
          if (p.module_count() > 2) {
            testutil::expect_walks_committed_state(
                eval, [&] { (void)eval.probe_moves(merge()); });
            ++probed_merges;
          }
          break;
      }
      expect_boundaries_match_scan(eval);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(probed_merges, 0u);
  }
}

// Copies that share one certificate probe concurrently: each thread owns
// its copy and its scratch, and the certificate is only read. The scores
// must equal the same probes made serially.
TEST(Probe, CopiesSharingACertificateProbeConcurrently) {
  const netlist::Netlist nl = netlist::load_circuit("c1908");
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(404);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 12, rng));
  // Certify, then commit a move so the shared certificate is a carried one.
  const part::Move first = core::sample_boundary_move(eval, rng);
  ASSERT_TRUE(first.valid());
  (void)eval.probe_move(first.gate, first.target);
  eval.move_gate(first.gate, first.target);
  testutil::expect_walks_committed_state(eval, [&] { eval.certify(); });
  ASSERT_TRUE(eval.timing().certified());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kProbes = 40;
  std::vector<std::vector<part::Move>> work(kThreads);
  for (auto& moves : work)
    for (std::size_t i = 0; i < kProbes; ++i) {
      const part::Move mv = core::sample_boundary_move(eval, rng);
      if (mv.valid()) moves.push_back(mv);
    }
  const auto score = [](PartitionEvaluator& e,
                        const std::vector<part::Move>& moves) {
    std::vector<double> out;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      out.push_back(e.probe_move(moves[i].gate, moves[i].target).fitness.cost);
      const std::vector<part::Move> pair{moves[i],
                                         moves[(i + 1) % moves.size()]};
      out.push_back(e.probe_moves(pair).fitness.cost);
    }
    return out;
  };
  std::vector<std::vector<double>> serial(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    PartitionEvaluator copy = eval;
    serial[t] = score(copy, work[t]);
  }
  std::vector<PartitionEvaluator> copies(kThreads, eval);
  std::vector<std::vector<double>> threaded(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { threaded[t] = score(copies[t], work[t]); });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(threaded[t].size(), serial[t].size());
    for (std::size_t i = 0; i < serial[t].size(); ++i)
      expect_bits_eq(threaded[t][i], serial[t][i], "threaded probe");
    EXPECT_GT(copies[t].timing().certified_probes(), 0u);
  }
}

TEST(Probe, TabuStyleCandidateFanMatchesCopies) {
  // Many probes against one round-start state (what tabu does each round),
  // interleaved with committed best moves.
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("fan", 200, 12, 9));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(77);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 4, rng));

  for (int round = 0; round < 10; ++round) {
    std::vector<part::Move> candidates;
    for (int c = 0; c < 6; ++c) {
      const part::Move mv = core::sample_boundary_move(eval, rng);
      if (mv.valid()) candidates.push_back(mv);
    }
    for (const part::Move& mv : candidates) {
      // probe_objective must equal the historical copy-based scoring.
      PartitionEvaluator scored = eval;
      scored.move_gate(mv.gate, mv.target);
      expect_bits_eq(core::probe_objective(eval, mv, 1.0e4),
                     core::penalized_objective(scored, 1.0e4),
                     "probe objective");
    }
    if (!candidates.empty())
      eval.move_gate(candidates.front().gate, candidates.front().target);
  }
}

TEST(Probe, AnnealingStyleRejectResidueTraceStillMatches) {
  // After move+revert parity replays (the annealer's reject path), the
  // running sums carry floating-point residue; probes must still match
  // copies of exactly that state.
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("resid", 200, 12, 21));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(5);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 4, rng));

  for (int step = 0; step < 40; ++step) {
    const part::Move mv = core::sample_boundary_move(eval, rng);
    if (!mv.valid()) continue;
    const std::uint32_t src = eval.partition().module_of(mv.gate);
    expect_probe_matches_copy(eval, mv.gate, mv.target);
    if (step % 2 == 0) {
      eval.move_gate(mv.gate, mv.target);  // accept
    } else {
      eval.move_gate(mv.gate, mv.target);  // reject: move + revert,
      eval.move_gate(mv.gate, src);        // leaving FP residue behind
    }
  }
  ASSERT_NO_THROW(eval.self_check());
}

TEST(Probe, RejectsEmptyingMoves) {
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("empty", 40, 5, 3));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(2);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 3, rng));
  // Drain a module down to one gate, then probing its last gate must throw.
  while (eval.partition().module_size(0) > 1)
    eval.move_gate(eval.partition().module(0)[0], 1);
  const netlist::GateId last = eval.partition().module(0)[0];
  EXPECT_THROW((void)eval.probe_move(last, 1), Error);
}

TEST(Probe, SelfCheckCoversLazyDelayState) {
  // self_check now verifies the cached degradation factors, per-module
  // area/settling, and the incremental D_BIC; drive it through erasures
  // and probes.
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("lazy", 120, 9, 13));
  const auto library = lib::default_library();
  const EvalContext ctx(nl, library, elec::SensorSpec{}, CostWeights{});
  Rng rng(11);
  PartitionEvaluator eval(ctx, core::make_start_partition(nl, 5, rng));
  ASSERT_NO_THROW(eval.self_check());
  const auto logic = nl.logic_gates();
  for (int step = 0; step < 60; ++step) {
    if (eval.partition().module_count() < 2) break;
    const netlist::GateId g = logic[rng.index(logic.size())];
    eval.move_gate(g, static_cast<std::uint32_t>(
                          rng.index(eval.partition().module_count())));
    if (step % 15 == 14) ASSERT_NO_THROW(eval.self_check());
  }
  ASSERT_NO_THROW(eval.self_check());
}

}  // namespace
}  // namespace iddq::part
