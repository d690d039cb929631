// IncrementalTiming must reproduce est::degraded_critical_path_ps
// bit-for-bit after any sequence of delta-factor updates: the incremental
// recurrence applies the same expression to the same operand values, so
// every arrival — and the max over them — is bitwise equal to a full pass.
// The slack certificate's bounded pass (probe_certified) is held to the
// same bar against seeded random circuits, parents and children; a failure
// names its circuit, parent and child seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "estimators/delay_estimator.hpp"
#include "estimators/incremental_timing.hpp"
#include "library/cell_library.hpp"
#include "netlist/builder.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/gen/random_dag.hpp"
#include "netlist/levelize.hpp"
#include "support/rng.hpp"
#include "test_seed.hpp"

namespace iddq::est {
namespace {

struct Fixture {
  explicit Fixture(std::size_t gates = 300, std::size_t depth = 14,
                   std::uint64_t seed = 5)
      : nl(netlist::gen::make_random_dag(
            netlist::gen::DagProfile::basic("timing", gates, depth, seed))),
        cells(lib::bind_cells(nl, lib::default_library())),
        graph(nl, cells),
        delta(nl.gate_count(), 1.0) {}

  netlist::Netlist nl;
  std::vector<lib::CellParams> cells;
  TimingGraph graph;
  std::vector<double> delta;

  [[nodiscard]] auto factor() const {
    return [this](netlist::GateId g) { return delta[g]; };
  }
  [[nodiscard]] double full() const {
    return degraded_critical_path_ps(nl, cells, delta);
  }
};

void expect_bits_eq(double got, double want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << got << " vs " << want;
}

TEST(TimingGraph, RanksFaninsBeforeFanouts) {
  Fixture f;
  for (const netlist::GateId id : f.nl.logic_gates())
    for (const netlist::GateId fanin : f.nl.gate(id).fanins)
      EXPECT_LT(f.graph.rank(fanin), f.graph.rank(id));
}

TEST(IncrementalTiming, RebuildMatchesFullPassBitForBit) {
  Fixture f;
  IncrementalTiming timing(f.graph);
  expect_bits_eq(timing.rebuild(f.factor()), f.full());

  Rng rng(17);
  for (const netlist::GateId id : f.nl.logic_gates())
    f.delta[id] = 1.0 + rng.uniform() * 0.2;
  expect_bits_eq(timing.rebuild(f.factor()), f.full());
}

TEST(IncrementalTiming, RandomUpdateSequencesMatchFullPassBitForBit) {
  Fixture f;
  IncrementalTiming timing(f.graph);
  timing.rebuild(f.factor());
  Rng rng(23);
  const auto logic = f.nl.logic_gates();
  for (int step = 0; step < 200; ++step) {
    // Change a batch of factors (occasionally a big one — the dense-cone
    // path), then propagate just those gates.
    const std::size_t batch =
        step % 17 == 0 ? logic.size() / 2 : 1 + rng.index(4);
    std::vector<netlist::GateId> changed;
    for (std::size_t i = 0; i < batch; ++i) {
      const netlist::GateId g = logic[rng.index(logic.size())];
      f.delta[g] = 1.0 + rng.uniform() * 0.25;
      changed.push_back(g);
    }
    const double got = timing.propagate(changed, f.factor());
    expect_bits_eq(got, f.full());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(timing.worst_ps()),
              std::bit_cast<std::uint64_t>(got));
  }
}

TEST(IncrementalTiming, LoweringTheCriticalWitnessRescansCorrectly) {
  Fixture f;
  IncrementalTiming timing(f.graph);
  Rng rng(31);
  for (const netlist::GateId id : f.nl.logic_gates())
    f.delta[id] = 1.2 + rng.uniform() * 0.2;
  timing.rebuild(f.factor());

  // Find a witness of the maximum and make its whole input cone fast:
  // the new worst must be discovered on an untouched path.
  netlist::GateId witness = netlist::kNoGate;
  for (const netlist::GateId id : f.nl.logic_gates())
    if (timing.arrival_ps(id) == timing.worst_ps()) witness = id;
  ASSERT_NE(witness, netlist::kNoGate);
  std::vector<netlist::GateId> changed;
  for (const netlist::GateId id : f.nl.logic_gates()) {
    if (timing.arrival_ps(id) <= timing.arrival_ps(witness) &&
        f.delta[id] > 1.05) {
      f.delta[id] = 1.0;
      changed.push_back(id);
    }
  }
  expect_bits_eq(timing.propagate(changed, f.factor()), f.full());
}

TEST(IncrementalTiming, ProbeScoresWithoutCommitting) {
  Fixture f;
  IncrementalTiming timing(f.graph);
  Rng rng(41);
  for (const netlist::GateId id : f.nl.logic_gates())
    f.delta[id] = 1.0 + rng.uniform() * 0.2;
  const double committed = timing.rebuild(f.factor());
  const std::vector<double> before_delta = f.delta;
  std::vector<double> before_arrival(f.nl.gate_count(), 0.0);
  for (netlist::GateId id = 0; id < f.nl.gate_count(); ++id)
    before_arrival[id] = timing.arrival_ps(id);

  const auto logic = f.nl.logic_gates();
  for (int step = 0; step < 50; ++step) {
    std::vector<double> overlay = f.delta;
    // probe_full scores into scratch storage: sparse and dense what-ifs
    // alike leave the committed state untouched.
    const std::size_t batch =
        step % 13 == 12 ? logic.size() / 2 : 1 + rng.index(6);
    for (std::size_t i = 0; i < batch; ++i) {
      const netlist::GateId g = logic[rng.index(logic.size())];
      overlay[g] = 1.0 + rng.uniform() * 0.3;
    }
    const double what_if =
        timing.probe_full([&](netlist::GateId g) { return overlay[g]; });
    expect_bits_eq(what_if, degraded_critical_path_ps(f.nl, f.cells, overlay));
    // The committed state is untouched: same worst, same arrivals.
    expect_bits_eq(timing.worst_ps(), committed);
    for (netlist::GateId id = 0; id < f.nl.gate_count(); ++id)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(timing.arrival_ps(id)),
                std::bit_cast<std::uint64_t>(before_arrival[id]));
  }
  // A final full pass over the unchanged factors still matches.
  expect_bits_eq(
      timing.propagate(std::span<const netlist::GateId>{},
                       [&](netlist::GateId g) { return before_delta[g]; }),
      committed);
}

TEST(IncrementalTiming, RandomModuleMovesPropagateMatchesRebuild) {
  // Differential over fresh seeds: gates in random modules, each gate's
  // factor growing with its module's size (as the delay model's does with
  // the module's current), and random single-gate module moves, which
  // change the factors of both endpoint modules. After every move,
  // propagate() over those modules' gates must equal rebuild() on a second
  // instance and est::degraded_critical_path_ps, bit for bit.
  const std::uint64_t seed = testutil::run_seed();
  SCOPED_TRACE(testutil::replay_note(seed));
  for (const char* circuit : {"c1908", "ila8x4"}) {
    SCOPED_TRACE(circuit);
    const netlist::Netlist nl = netlist::load_circuit(circuit);
    const auto cells = lib::bind_cells(nl, lib::default_library());
    const TimingGraph graph(nl, cells);
    const auto logic = nl.logic_gates();
    Rng rng(Rng::mix_seed(seed, nl.gate_count()));
    const std::size_t k = 2 + rng.index(12);
    std::vector<std::uint32_t> module(nl.gate_count(), 0);
    std::vector<std::size_t> size(k, 0);
    std::vector<double> weight(nl.gate_count(), 0.0);
    for (const netlist::GateId g : logic) {
      module[g] = static_cast<std::uint32_t>(rng.index(k));
      ++size[module[g]];
      weight[g] = rng.uniform() * 2e-3;
    }
    const auto factor = [&](netlist::GateId g) {
      return 1.0 + weight[g] * static_cast<double>(size[module[g]]);
    };
    IncrementalTiming timing(graph);
    IncrementalTiming reference(graph);
    timing.rebuild(factor);
    std::vector<double> delta(nl.gate_count(), 1.0);
    std::vector<netlist::GateId> changed;
    for (int step = 0; step < 150; ++step) {
      const netlist::GateId g = logic[rng.index(logic.size())];
      const std::uint32_t src = module[g];
      const auto dst = static_cast<std::uint32_t>(rng.index(k));
      if (dst == src || size[src] == 1) continue;
      --size[src];
      ++size[dst];
      module[g] = dst;
      changed.clear();
      for (const netlist::GateId x : logic)
        if (module[x] == src || module[x] == dst) changed.push_back(x);
      const double got = timing.propagate(changed, factor);
      expect_bits_eq(got, reference.rebuild(factor));
      for (const netlist::GateId x : logic) delta[x] = factor(x);
      expect_bits_eq(got, degraded_critical_path_ps(nl, cells, delta));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---- Slack certificate ----

constexpr double kTheta = IncrementalTiming::kNearFraction;

/// Longest path through every gate under `delta`, by the certificate
/// walk's own expressions over *every* fanout: fl(a(g) + t(g)) with
/// t(g) = max over fanouts o of fl(D(o) * delta(o) + t(o)).
std::vector<double> path_through(const TimingGraph& graph,
                                 const IncrementalTiming& timing,
                                 const std::vector<double>& delta) {
  const auto order = graph.order();
  std::vector<double> tail(graph.gate_count(), 0.0);
  std::vector<double> through(graph.gate_count(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const netlist::GateId id = *it;
    for (const netlist::GateId o : graph.fanouts(id))
      tail[id] = std::max(tail[id], graph.delay_ps(o) * delta[o] + tail[o]);
    through[id] = timing.arrival_ps(id) + tail[id];
  }
  return through;
}

/// The near set must be in topological order and hold every logic gate
/// whose path-through length reaches theta * D: the completeness the
/// exactness argument rests on.
void expect_near_set_complete(const netlist::Netlist& nl,
                              const TimingGraph& graph,
                              const IncrementalTiming& timing,
                              const std::vector<double>& delta) {
  ASSERT_TRUE(timing.certified());
  const auto near = timing.near_gates();
  std::vector<std::uint8_t> in_near(graph.gate_count(), 0);
  for (std::size_t i = 0; i < near.size(); ++i) {
    in_near[near[i]] = 1;
    if (i > 0) ASSERT_LT(graph.rank(near[i - 1]), graph.rank(near[i]));
  }
  const double cut = kTheta * timing.worst_ps();
  const std::vector<double> through = path_through(graph, timing, delta);
  for (const netlist::GateId id : nl.logic_gates())
    if (through[id] >= cut)
      ASSERT_TRUE(in_near[id]) << "gate " << id << " on a path of "
                               << through[id] << " ps (cut " << cut
                               << ") is missing from the near set";
}

netlist::Netlist random_timing_circuit(Rng& rng) {
  netlist::gen::DagProfile profile;
  switch (rng.below(3)) {
    case 0: {  // deep, chain-like
      const std::size_t gates = 80 + rng.index(500);
      profile = netlist::gen::DagProfile::basic(
          "deep", gates, gates / 2 + rng.index(gates / 2), rng());
      break;
    }
    case 1: {  // shallow with wide fanout
      const std::size_t gates = 150 + rng.index(600);
      profile = netlist::gen::DagProfile::basic("wide", gates,
                                                3 + rng.index(6), rng());
      profile.inputs = 2 + rng.index(3);
      break;
    }
    default: {
      const std::size_t gates = 60 + rng.index(400);
      profile = netlist::gen::DagProfile::basic("mixed", gates,
                                                6 + rng.index(25), rng());
      break;
    }
  }
  return netlist::gen::make_random_dag(profile);
}

TEST(IncrementalTiming, CertifiedProbeMatchesFullPassBitForBit) {
  constexpr std::uint64_t kMasterSeed = 0xce271f;
  constexpr int kCircuits = 30;
  constexpr int kParents = 4;
  constexpr int kChildren = 40;
  std::size_t certified = 0;
  std::size_t fallback = 0;
  std::size_t carried_certified = 0;
  std::size_t certified_commits = 0;
  std::size_t refused_commits = 0;
  for (int c = 0; c < kCircuits; ++c) {
    const std::uint64_t circuit_seed =
        Rng::mix_seed(kMasterSeed, static_cast<std::uint64_t>(c));
    SCOPED_TRACE("circuit seed " + std::to_string(circuit_seed));
    Rng rng(circuit_seed);
    const netlist::Netlist nl = random_timing_circuit(rng);
    const auto cells = lib::bind_cells(nl, lib::default_library());
    const TimingGraph graph(nl, cells);
    const auto logic = nl.logic_gates();
    for (int p = 0; p < kParents; ++p) {
      const std::uint64_t parent_seed =
          Rng::mix_seed(circuit_seed, static_cast<std::uint64_t>(p));
      SCOPED_TRACE("parent seed " + std::to_string(parent_seed));
      Rng prng(parent_seed);
      // Parent factors >= 1, from nearly uniform to widely spread.
      const double spread = std::array{0.02, 0.3, 1.0}[prng.below(3)];
      std::vector<double> parent(nl.gate_count(), 1.0);
      for (const netlist::GateId id : logic)
        parent[id] = 1.0 + prng.uniform() * spread;
      const auto parent_factor = [&](netlist::GateId g) { return parent[g]; };
      IncrementalTiming timing(graph);
      timing.rebuild(parent_factor);
      // The factors the held certificate was taken from, and whether a
      // commit has carried it past them.
      std::vector<double> taken = parent;
      bool carried = false;
      const auto recertify = [&] {
        if (!timing.valid()) timing.rebuild(parent_factor);
        timing.certify(parent_factor);
        taken = parent;
        carried = false;
        expect_near_set_complete(nl, graph, timing, parent);
      };
      recertify();
      if (::testing::Test::HasFailure()) return;

      for (int ch = 0; ch < kChildren; ++ch) {
        const std::uint64_t child_seed =
            Rng::mix_seed(parent_seed, static_cast<std::uint64_t>(ch));
        SCOPED_TRACE("child seed " + std::to_string(child_seed));
        Rng crng(child_seed);
        // Perturb a random subset: any gates, gates outside the near set
        // only, or near gates only; by a ratio from 1e-4 to 50%, up or
        // down (clamped at 1).
        const auto near = timing.near_gates();
        std::vector<std::uint8_t> in_near(nl.gate_count(), 0);
        for (const netlist::GateId id : near) in_near[id] = 1;
        const std::uint64_t subset = crng.below(3);
        const std::size_t span =
            std::max<std::size_t>(1, logic.size() / (2 + crng.index(60)));
        const std::size_t count = 1 + crng.index(span);
        const double magnitude = 1e-4 * std::pow(5000.0, crng.uniform());
        const bool up = crng.below(2) == 0;
        std::vector<double> child = parent;
        std::vector<netlist::GateId> changed;
        for (std::size_t i = 0; i < count * 4 && changed.size() < count;
             ++i) {
          const netlist::GateId g =
              subset == 2 && !near.empty() ? near[crng.index(near.size())]
                                           : logic[crng.index(logic.size())];
          if (subset == 1 && in_near[g]) continue;
          child[g] = std::max(
              1.0, parent[g] * (up ? 1.0 + magnitude : 1.0 - magnitude));
          changed.push_back(g);
        }
        // The cumulative bound: measured from the certified factors, not
        // from the parent's.
        double ratio = 1.0;
        for (const netlist::GateId g : logic)
          ratio = std::max(ratio, child[g] / taken[g]);
        const auto child_factor = [&](netlist::GateId g) { return child[g]; };
        const std::size_t certified_before = timing.certified_probes();
        expect_bits_eq(timing.probe_certified(ratio, child_factor),
                       degraded_critical_path_ps(nl, cells, child));
        if (::testing::Test::HasFailure()) return;
        if (carried && timing.certified_probes() > certified_before)
          ++carried_certified;
        // A carried certificate that failed to vouch was dropped.
        if (!timing.certified()) {
          ASSERT_TRUE(carried);
          recertify();
          if (::testing::Test::HasFailure()) return;
        }

        // A full what-if pass keeps the certificate. A commit keeps it
        // when it vouches for the child; otherwise the child is committed
        // by a timing pass, which drops it, and the new state is certified
        // afresh.
        if (ch % 8 == 3) {
          (void)timing.probe_full(child_factor);
          ASSERT_TRUE(timing.certified());
        } else if (ch % 4 == 1 || ch % 16 == 11) {
          const bool keep = ch % 16 != 11 &&
                            timing.commit_certified(ratio, child_factor);
          parent = child;
          if (keep) {
            ++certified_commits;
            carried = true;
            ASSERT_FALSE(timing.valid());
            expect_bits_eq(timing.worst_ps(),
                           degraded_critical_path_ps(nl, cells, parent));
          } else {
            refused_commits += ch % 16 != 11;
            if (timing.valid())
              timing.propagate(changed, parent_factor);
            else
              timing.rebuild(parent_factor);
            ASSERT_FALSE(timing.certified());
            recertify();
          }
          if (::testing::Test::HasFailure()) return;
        }
      }
      certified += timing.certified_probes();
      fallback += timing.fallback_probes();
    }
  }
  // Both answers must have been exercised, for fresh and for carried
  // certificates, and commits must have been both kept and refused.
  EXPECT_GT(certified, 0u);
  EXPECT_GT(fallback, 0u);
  EXPECT_GT(carried_certified, 0u);
  EXPECT_GT(certified_commits, 0u);
  EXPECT_GT(refused_commits, 0u);
}

TEST(IncrementalTiming, CertificateWalkAbsorbsReassociation) {
  // The walk sums a path's tail from the outputs back, a(g) + (d1 + d2),
  // while arrivals sum it forwards, (a(g) + d1) + d2. When the two
  // roundings straddle the cut, g is near but its fanouts compute just
  // below theta * D; only the walk's lowered cut still reaches g.
  // Circuit: i0 -> x -> g -> o1 -> o2 (a path the search below tunes) and
  // i1 -> c (the critical gate, sized so that theta * D is exactly the
  // path length through g).
  netlist::NetlistBuilder b("reassoc");
  const auto i0 = b.add_input("i0");
  const auto i1 = b.add_input("i1");
  const auto x = b.add_gate(netlist::GateKind::kNot, "x", {i0});
  const auto g = b.add_gate(netlist::GateKind::kNot, "g", {x});
  const auto o1 = b.add_gate(netlist::GateKind::kNot, "o1", {g});
  const auto o2 = b.add_gate(netlist::GateKind::kNot, "o2", {o1});
  const auto c = b.add_gate(netlist::GateKind::kNot, "c", {i1});
  b.mark_output(o2);
  b.mark_output(c);
  const netlist::Netlist nl = std::move(b).build();
  const auto cells = lib::bind_cells(nl, lib::default_library());
  const TimingGraph graph(nl, cells);
  IncrementalTiming timing(graph);
  std::vector<double> delta(nl.gate_count(), 1.0);
  const auto factor = [&](netlist::GateId id) { return delta[id]; };

  Rng rng(97);
  bool found = false;
  for (int trial = 0; trial < 10000 && !found; ++trial) {
    for (const netlist::GateId id : {x, g, o1, o2})
      delta[id] = 1.0 + rng.uniform();
    delta[c] = 1.0;
    timing.rebuild(factor);
    const double target = path_through(graph, timing, delta)[g];
    if (!(target > timing.arrival_ps(o2))) continue;
    // D with fl(theta * D) == target, realized as fl(D(c) * delta(c)).
    double d = target / kTheta;
    for (int i = 0; i < 8 && kTheta * d != target; ++i)
      d = std::nextafter(d, kTheta * d < target ? 2 * d : 0.0);
    if (kTheta * d != target) continue;
    delta[c] = d / graph.delay_ps(c);
    for (int i = 0; i < 8 && graph.delay_ps(c) * delta[c] != d; ++i)
      delta[c] = std::nextafter(
          delta[c], graph.delay_ps(c) * delta[c] < d ? 2 * delta[c] : 0.0);
    found = delta[c] >= 1.0 && graph.delay_ps(c) * delta[c] == d;
  }
  ASSERT_TRUE(found) << "no straddling rounding found";
  expect_bits_eq(timing.rebuild(factor), graph.delay_ps(c) * delta[c]);
  ASSERT_LT(timing.arrival_ps(o2), kTheta * timing.worst_ps());
  timing.certify(factor);
  expect_near_set_complete(nl, graph, timing, delta);
}

TEST(IncrementalTiming, CertificateFollowsTheArrivals) {
  Fixture f;
  IncrementalTiming timing(f.graph);
  Rng rng(43);
  for (const netlist::GateId id : f.nl.logic_gates())
    f.delta[id] = 1.0 + rng.uniform() * 0.2;
  timing.rebuild(f.factor());
  EXPECT_FALSE(timing.certified());
  timing.certify(f.factor());
  ASSERT_TRUE(timing.certified());
  EXPECT_FALSE(timing.near_gates().empty());
  // The unchanged factors: the certificate answers with the parent's own
  // critical path.
  expect_bits_eq(timing.probe_certified(1.0, f.factor()), timing.worst_ps());
  EXPECT_EQ(timing.certified_probes(), 1u);
  EXPECT_EQ(timing.recertifications(), 1u);

  // Copies drop the arrivals but share the certificate itself (not a copy
  // of it), with counters of their own; moves keep everything.
  IncrementalTiming copy = timing;
  EXPECT_FALSE(copy.valid());
  EXPECT_TRUE(copy.certified());
  EXPECT_EQ(copy.near_gates().data(), timing.near_gates().data());
  EXPECT_EQ(copy.certified_probes(), 0u);
  EXPECT_EQ(copy.recertifications(), 0u);
  expect_bits_eq(copy.probe_certified(1.0, f.factor()), timing.worst_ps());
  EXPECT_EQ(copy.certified_probes(), 1u);
  IncrementalTiming moved = std::move(timing);
  EXPECT_TRUE(moved.certified());

  // A commit the certificate vouches for keeps it and leaves the arrivals
  // stale.
  ASSERT_TRUE(copy.commit_certified(1.0, f.factor()));
  EXPECT_FALSE(copy.valid());
  EXPECT_TRUE(copy.certified());
  expect_bits_eq(copy.worst_ps(), moved.worst_ps());
  EXPECT_EQ(copy.certified_commits(), 1u);

  (void)moved.probe_full(f.factor());
  EXPECT_TRUE(moved.certified());
  moved.rebuild(f.factor());
  EXPECT_FALSE(moved.certified());
}

}  // namespace
}  // namespace iddq::est
