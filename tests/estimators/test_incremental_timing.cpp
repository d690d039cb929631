// IncrementalTiming must reproduce est::degraded_critical_path_ps
// bit-for-bit: probe_full() and certify()'s pass apply the same expression
// to the same operand values, so every arrival — and the max over them —
// is bitwise equal to a full pass. The slack certificate's bounded pass
// (probe_certified, commit_certified) is held to the same bar against
// seeded random circuits, parents and children; a failure names its
// circuit, parent and child seeds. Reference arrivals come from a full
// pass written here, since the engine keeps none.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "estimators/delay_estimator.hpp"
#include "estimators/incremental_timing.hpp"
#include "library/cell_library.hpp"
#include "netlist/builder.hpp"
#include "netlist/gen/random_dag.hpp"
#include "netlist/levelize.hpp"
#include "support/rng.hpp"

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

/// Reference arrivals: est::degraded_critical_path_ps's recurrence, by
/// GateId (primary inputs 0).
std::vector<double> reference_arrivals(const TimingGraph& graph,
                                       const std::vector<double>& delta) {
  std::vector<double> arrival(graph.gate_count(), 0.0);
  for (const netlist::GateId id : graph.order()) {
    const auto fanins = graph.fanins(id);
    if (fanins.empty()) continue;
    double in_arrival = 0.0;
    for (const netlist::GateId f : fanins)
      in_arrival = std::max(in_arrival, arrival[f]);
    arrival[id] = in_arrival + graph.delay_ps(id) * delta[id];
  }
  return arrival;
}

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
  // A from-scratch pass (probe_full) over fresh and over changed factors.
  Fixture f;
  IncrementalTiming timing(f.graph);
  expect_bits_eq(timing.probe_full(f.factor()), f.full());

  Rng rng(17);
  for (const netlist::GateId id : f.nl.logic_gates())
    f.delta[id] = 1.0 + rng.uniform() * 0.2;
  expect_bits_eq(timing.probe_full(f.factor()), f.full());
}

TEST(IncrementalTiming, ProbeScoresWithoutCommitting) {
  Fixture f;
  IncrementalTiming timing(f.graph);
  Rng rng(41);
  for (const netlist::GateId id : f.nl.logic_gates())
    f.delta[id] = 1.0 + rng.uniform() * 0.2;
  const double committed = timing.probe_full(f.factor());
  expect_bits_eq(committed, f.full());
  timing.certify(f.factor());
  ASSERT_TRUE(timing.certified());
  const std::vector<double> before_delta = f.delta;
  const IncrementalTiming::Certificate before_cert = timing.certificate();
  const auto committed_factor = [&](netlist::GateId g) {
    return before_delta[g];
  };

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
    // The certificate is untouched and still answers the committed state.
    ASSERT_TRUE(timing.certified());
    ASSERT_TRUE(timing.certificate() == before_cert);
    expect_bits_eq(timing.probe_certified(1.0, committed_factor), committed);
  }
  // A final full pass over the unchanged factors still matches.
  expect_bits_eq(timing.probe_full(committed_factor), committed);
}

// ---- Slack certificate ----

constexpr double kTheta = IncrementalTiming::kNearFraction;

/// Longest path through every gate under `delta`, by the certificate
/// walk's own expressions over *every* fanout: fl(a(g) + t(g)) with
/// t(g) = max over fanouts o of fl(D(o) * delta(o) + t(o)).
std::vector<double> path_through(const TimingGraph& graph,
                                 const std::vector<double>& delta) {
  const std::vector<double> arrival = reference_arrivals(graph, delta);
  const auto order = graph.order();
  std::vector<double> tail(graph.gate_count(), 0.0);
  std::vector<double> through(graph.gate_count(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const netlist::GateId id = *it;
    for (const netlist::GateId o : graph.fanouts(id))
      tail[id] = std::max(tail[id], graph.delay_ps(o) * delta[o] + tail[o]);
    through[id] = arrival[id] + tail[id];
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
  const auto& near = timing.certificate().near;
  std::vector<std::uint8_t> in_near(graph.gate_count(), 0);
  for (std::size_t i = 0; i < near.size(); ++i) {
    in_near[near[i]] = 1;
    if (i > 0) ASSERT_LT(graph.rank(near[i - 1]), graph.rank(near[i]));
  }
  const std::vector<double> through = path_through(graph, delta);
  const std::vector<double> arrival = reference_arrivals(graph, delta);
  const double cut =
      kTheta * *std::max_element(arrival.begin(), arrival.end());
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
      // The factors the held certificate was taken from, and whether a
      // commit has carried it past them.
      std::vector<double> taken = parent;
      bool carried = false;
      const auto recertify = [&] {
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
        const auto& near = timing.certificate().near;
        std::vector<std::uint8_t> in_near(nl.gate_count(), 0);
        for (const netlist::GateId id : near) in_near[id] = 1;
        const std::uint64_t subset = crng.below(3);
        const std::size_t span =
            std::max<std::size_t>(1, logic.size() / (2 + crng.index(60)));
        const std::size_t count = 1 + crng.index(span);
        const double magnitude = 1e-4 * std::pow(5000.0, crng.uniform());
        const bool up = crng.below(2) == 0;
        std::vector<double> child = parent;
        std::size_t changed = 0;
        for (std::size_t i = 0; i < count * 4 && changed < count; ++i) {
          const netlist::GateId g =
              subset == 2 && !near.empty() ? near[crng.index(near.size())]
                                           : logic[crng.index(logic.size())];
          if (subset == 1 && in_near[g]) continue;
          child[g] = std::max(
              1.0, parent[g] * (up ? 1.0 + magnitude : 1.0 - magnitude));
          ++changed;
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
        // when it vouches for the child; otherwise the certificate is
        // dropped, the child is committed by a full pass, and the new
        // state is certified afresh.
        if (ch % 8 == 3) {
          (void)timing.probe_full(child_factor);
          ASSERT_TRUE(timing.certified());
        } else if (ch % 4 == 1 || ch % 16 == 11) {
          const std::optional<double> kept =
              ch % 16 != 11 ? timing.commit_certified(ratio, child_factor)
                            : std::nullopt;
          parent = child;
          if (kept) {
            ++certified_commits;
            carried = true;
            expect_bits_eq(*kept,
                           degraded_critical_path_ps(nl, cells, parent));
          } else {
            refused_commits += ch % 16 != 11;
            timing.drop();
            expect_bits_eq(timing.probe_full(parent_factor),
                           degraded_critical_path_ps(nl, cells, parent));
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
    const double target = path_through(graph, delta)[g];
    if (!(target > reference_arrivals(graph, delta)[o2])) continue;
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
  const double worst = graph.delay_ps(c) * delta[c];
  expect_bits_eq(timing.probe_full(factor), worst);
  ASSERT_LT(reference_arrivals(graph, delta)[o2], kTheta * worst);
  timing.certify(factor);
  expect_near_set_complete(nl, graph, timing, delta);
}

TEST(IncrementalTiming, CertificateFollowsTheArrivals) {
  Fixture f;
  IncrementalTiming timing(f.graph);
  Rng rng(43);
  for (const netlist::GateId id : f.nl.logic_gates())
    f.delta[id] = 1.0 + rng.uniform() * 0.2;
  const double worst = f.full();
  expect_bits_eq(timing.probe_full(f.factor()), worst);
  EXPECT_FALSE(timing.certified());
  timing.certify(f.factor());
  ASSERT_TRUE(timing.certified());
  EXPECT_FALSE(timing.certificate().near.empty());
  expect_bits_eq(timing.certificate().worst, worst);
  // The unchanged factors: the certificate answers with the parent's own
  // critical path.
  expect_bits_eq(timing.probe_certified(1.0, f.factor()), worst);
  EXPECT_EQ(timing.certified_probes(), 1u);
  EXPECT_EQ(timing.recertifications(), 1u);

  // Copies share the certificate itself (not a copy of it), with counters
  // of their own; moves keep everything.
  IncrementalTiming copy = timing;
  EXPECT_TRUE(copy.certified());
  EXPECT_EQ(&copy.certificate(), &timing.certificate());
  EXPECT_EQ(copy.certified_probes(), 0u);
  EXPECT_EQ(copy.recertifications(), 0u);
  expect_bits_eq(copy.probe_certified(1.0, f.factor()), worst);
  EXPECT_EQ(copy.certified_probes(), 1u);
  IncrementalTiming moved = std::move(timing);
  EXPECT_TRUE(moved.certified());

  // A commit the certificate vouches for keeps it and hands back the
  // critical path.
  const std::optional<double> committed =
      copy.commit_certified(1.0, f.factor());
  ASSERT_TRUE(committed.has_value());
  expect_bits_eq(*committed, worst);
  EXPECT_TRUE(copy.certified());
  EXPECT_EQ(copy.certified_commits(), 1u);

  (void)moved.probe_full(f.factor());
  EXPECT_TRUE(moved.certified());
  moved.drop();
  EXPECT_FALSE(moved.certified());
}

/// The certificate as the engine took it before it kept no arrivals: a
/// full pass's arrivals and witness, then the flagged walk, the chain and
/// the links, written out here from the reference arrivals.
IncrementalTiming::Certificate reference_certificate(
    const TimingGraph& graph, const std::vector<double>& delta) {
  constexpr double kEps = IncrementalTiming::kRoundingMargin;
  const std::vector<double> arrival = reference_arrivals(graph, delta);
  IncrementalTiming::Certificate cert;
  netlist::GateId critical = netlist::kNoGate;
  for (const netlist::GateId id : graph.order())
    if (!graph.fanins(id).empty() && arrival[id] > cert.worst) {
      cert.worst = arrival[id];
      critical = id;
    }
  if (!(cert.worst > 0.0)) return cert;
  const double cut = kTheta * cert.worst * (1.0 - kEps);
  std::vector<double> tail(graph.gate_count(), 0.0);
  std::vector<std::uint8_t> queued(graph.gate_count(), 0);
  for (netlist::GateId id = 0; id < graph.gate_count(); ++id)
    queued[id] = arrival[id] >= cut;
  const auto order = graph.order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const netlist::GateId id = *it;
    if (!queued[id] || !(arrival[id] + tail[id] >= cut)) continue;
    cert.near.push_back(id);
    const double through = graph.delay_ps(id) * delta[id] + tail[id];
    for (const netlist::GateId fanin : graph.fanins(id)) {
      if (graph.fanins(fanin).empty()) continue;
      tail[fanin] = std::max(tail[fanin], through);
      queued[fanin] = 1;
    }
  }
  std::reverse(cert.near.begin(), cert.near.end());
  for (netlist::GateId id = critical; id != netlist::kNoGate;) {
    cert.chain.push_back(id);
    netlist::GateId next = netlist::kNoGate;
    for (const netlist::GateId fanin : graph.fanins(id))
      if (!graph.fanins(fanin).empty() &&
          (next == netlist::kNoGate || arrival[fanin] > arrival[next]))
        next = fanin;
    id = next;
  }
  std::reverse(cert.chain.begin(), cert.chain.end());
  std::vector<std::uint32_t> position(graph.gate_count(), 0);
  for (std::uint32_t i = 0; i < cert.near.size(); ++i)
    position[cert.near[i]] = i + 1;
  cert.link_off.assign(1, 0);
  for (const netlist::GateId id : cert.near) {
    for (const netlist::GateId fanin : graph.fanins(id))
      if (position[fanin] != 0) cert.link.push_back(position[fanin] - 1);
    cert.link_off.push_back(static_cast<std::uint32_t>(cert.link.size()));
  }
  return cert;
}

TEST(IncrementalTiming, CertifyTakesItsOwnPassOnAnyInstance) {
  // certify() needs no earlier pass: on an instance that never ran one, on
  // a copy (empty scratch) and on one whose scratch and certificate have
  // seen other factors, it yields the reference near set, chain and links.
  constexpr std::uint64_t kMasterSeed = 0x5eedce27;
  for (int c = 0; c < 12; ++c) {
    const std::uint64_t circuit_seed =
        Rng::mix_seed(kMasterSeed, static_cast<std::uint64_t>(c));
    SCOPED_TRACE("circuit seed " + std::to_string(circuit_seed));
    Rng rng(circuit_seed);
    const netlist::Netlist nl = random_timing_circuit(rng);
    const auto cells = lib::bind_cells(nl, lib::default_library());
    const TimingGraph graph(nl, cells);
    std::vector<double> before(nl.gate_count(), 1.0);
    std::vector<double> delta(nl.gate_count(), 1.0);
    for (const netlist::GateId id : nl.logic_gates()) {
      before[id] = 1.0 + rng.uniform() * 0.3;
      delta[id] = 1.0 + rng.uniform() * 0.3;
    }
    const auto factor = [&](netlist::GateId g) { return delta[g]; };
    const auto before_factor = [&](netlist::GateId g) { return before[g]; };
    const IncrementalTiming::Certificate want =
        reference_certificate(graph, delta);
    ASSERT_FALSE(want.near.empty());

    IncrementalTiming fresh(graph);
    fresh.certify(factor);
    ASSERT_TRUE(fresh.certified());
    EXPECT_TRUE(fresh.certificate() == want);

    IncrementalTiming used(graph);
    used.certify(before_factor);
    (void)used.probe_full(before_factor);
    (void)used.commit_certified(2.0, factor);
    used.drop();
    IncrementalTiming copy = used;
    (void)used.probe_full(before_factor);
    used.certify(factor);
    EXPECT_TRUE(used.certificate() == want);
    copy.certify(factor);
    EXPECT_TRUE(copy.certificate() == want);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace iddq::est
