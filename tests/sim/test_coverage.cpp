#include "sim/coverage.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/gen/c17.hpp"
#include "netlist/gen/random_dag.hpp"
#include "partition/partition.hpp"
#include "sim/iddq_sim.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "test_seed.hpp"

namespace iddq::sim {
namespace {

netlist::Netlist test_circuit() {
  return netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("cov", 300, 12, 7));
}

part::Partition round_robin(const netlist::Netlist& nl, std::size_t k) {
  std::vector<std::vector<netlist::GateId>> groups(k);
  std::size_t i = 0;
  for (const auto g : nl.logic_gates()) groups[i++ % k].push_back(g);
  return part::Partition::from_groups(nl, groups);
}

// ---------------------------------------------------------------- spec ---

TEST(FaultModelSpec, ParsesPresets) {
  EXPECT_EQ(FaultModelSpec::parse("mixed").kind, FaultModelSpec::Kind::kMixed);
  EXPECT_EQ(FaultModelSpec::parse("bridges").kind,
            FaultModelSpec::Kind::kBridges);
  EXPECT_EQ(FaultModelSpec::parse(" Shorts ").kind,
            FaultModelSpec::Kind::kShorts);
}

TEST(FaultModelSpec, ParsesExplicitCountsEitherOrder) {
  const auto a = FaultModelSpec::parse("bridges=40,shorts=10");
  const auto b = FaultModelSpec::parse("shorts=10,bridges=40");
  EXPECT_EQ(a.kind, FaultModelSpec::Kind::kExplicit);
  EXPECT_EQ(a.bridges, 40u);
  EXPECT_EQ(a.shorts, 10u);
  // Same canonical spelling => same cache fingerprint.
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.canonical(), "bridges=40,shorts=10");
}

TEST(FaultModelSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultModelSpec::parse(""), Error);
  EXPECT_THROW((void)FaultModelSpec::parse("stuck-at"), Error);
  EXPECT_THROW((void)FaultModelSpec::parse("bridges=x"), Error);
  EXPECT_THROW((void)FaultModelSpec::parse("bridges=1,bridges=2"), Error);
  EXPECT_THROW((void)FaultModelSpec::parse("bridges=0,shorts=0"), Error);
}

TEST(FaultModelSpec, PresetCountsScaleWithCircuit) {
  const auto mixed = FaultModelSpec::parse("mixed");
  EXPECT_GT(mixed.bridge_count(1000), mixed.bridge_count(100));
  const auto bridges = FaultModelSpec::parse("bridges");
  EXPECT_EQ(bridges.short_count(1000), 0u);
  const auto explicit_spec = FaultModelSpec::parse("bridges=17,shorts=3");
  EXPECT_EQ(explicit_spec.bridge_count(1000000), 17u);
  EXPECT_EQ(explicit_spec.short_count(4), 3u);
}

// -------------------------------------------------------------- engine ---

TEST(CoverageEngine, MatchesIddqSimulatorOnSharedSuite) {
  // The engine's precomputed-values fast path must agree fault-for-fault
  // with the reference simulator when both see the same faults and
  // patterns.
  const auto nl = test_circuit();
  const auto library = lib::default_library();
  const auto p = round_robin(nl, 4);

  CoverageConfig cc;
  cc.patterns = 128;
  Rng pat_rng(99);
  auto patterns = random_patterns(nl, 128, pat_rng);
  const CoverageEngine engine(nl, library, cc, patterns);
  const auto report = engine.score(p);

  const IddqSimulator simulator(nl, library, cc.sim);
  const auto reference = simulator.coverage(p, engine.faults(), patterns);
  EXPECT_EQ(report.faults_total, reference.total);
  EXPECT_EQ(report.faults_detected, reference.detected);
  std::size_t i = 0;
  for (const auto& f : engine.faults().bridges)
    EXPECT_EQ(report.detected[i++],
              simulator.detects_bridge(p, f, patterns));
  for (const auto& f : engine.faults().shorts)
    EXPECT_EQ(report.detected[i++], simulator.detects_short(p, f, patterns));
}

TEST(CoverageEngine, ReportInvariants) {
  const auto nl = test_circuit();
  const auto library = lib::default_library();
  CoverageConfig cc;
  cc.patterns = 64;
  const CoverageEngine engine(nl, library, cc);
  const auto report = engine.score(round_robin(nl, 3));

  EXPECT_EQ(report.faults_total, engine.faults().size());
  EXPECT_EQ(report.detected.size(), report.faults_total);
  EXPECT_LE(report.faults_detected, report.faults_total);
  std::size_t flagged = 0;
  for (const auto d : report.detected) flagged += d ? 1 : 0;
  EXPECT_EQ(flagged, report.faults_detected);
  ASSERT_EQ(report.modules.size(), 3u);
  for (const auto& m : report.modules) EXPECT_LE(m.detected, m.observable);
  // Minimization off: the suite is the suite.
  EXPECT_EQ(report.patterns_minimized, report.patterns_supplied);
  EXPECT_TRUE(report.selected_patterns.empty());
}

TEST(CoverageEngine, ByteIdenticalAcrossPoolSizes) {
  // A fresh sampling seed, pattern count (partial last batches included)
  // and module count K each run: the report must not depend on the pool.
  const std::uint64_t seed = testutil::run_seed();
  SCOPED_TRACE(testutil::replay_note(seed));
  Rng rng(seed);
  const auto nl = test_circuit();
  const auto library = lib::default_library();
  CoverageConfig cc;
  cc.seed = rng();
  cc.patterns = 1 + rng.index(256);
  cc.minimize = true;
  const std::size_t k = 1 + rng.index(12);
  SCOPED_TRACE("patterns " + std::to_string(cc.patterns) + ", K " +
               std::to_string(k));
  const CoverageEngine engine(nl, library, cc);
  const auto p = round_robin(nl, k);

  const auto serial = engine.score(p, nullptr);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    support::ExecutorPool pool(threads);
    const auto parallel = engine.score(p, &pool);
    EXPECT_EQ(parallel.faults_detected, serial.faults_detected);
    EXPECT_EQ(parallel.detected, serial.detected);
    EXPECT_EQ(parallel.selected_patterns, serial.selected_patterns);
    for (std::size_t m = 0; m < serial.modules.size(); ++m) {
      EXPECT_EQ(parallel.modules[m].observable, serial.modules[m].observable);
      EXPECT_EQ(parallel.modules[m].detected, serial.modules[m].detected);
    }
  }
}

TEST(CoverageEngine, DeterministicAcrossConstructions) {
  const auto nl = test_circuit();
  const auto library = lib::default_library();
  CoverageConfig cc;
  cc.patterns = 64;
  cc.seed = 5;
  const CoverageEngine a(nl, library, cc);
  const CoverageEngine b(nl, library, cc);
  EXPECT_EQ(a.faults().size(), b.faults().size());
  const auto p = round_robin(nl, 4);
  const auto ra = a.score(p);
  const auto rb = b.score(p);
  EXPECT_EQ(ra.detected, rb.detected);

  // A different seed samples a different population.
  cc.seed = 6;
  const CoverageEngine c(nl, library, cc);
  const auto rc = c.score(p);
  EXPECT_TRUE(rc.detected != ra.detected ||
              rc.faults_detected != ra.faults_detected ||
              c.faults().bridges.size() != a.faults().bridges.size() ||
              c.faults().bridges[0].a != a.faults().bridges[0].a);
}

// Repack the selected global pattern indices (batch * 64 + lane) into a
// fresh batch list, the way a tester would persist the compacted suite.
std::vector<PatternBatch> select_suite(
    const std::vector<PatternBatch>& batches,
    const std::vector<std::uint32_t>& selected) {
  std::vector<PatternBatch> out;
  const std::size_t inputs = batches.empty() ? 0 : batches[0].words.size();
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i % 64 == 0) {
      out.emplace_back();
      out.back().words.assign(inputs, 0);
      out.back().pattern_count = 0;
    }
    const std::size_t src_batch = selected[i] / 64;
    const std::size_t src_lane = selected[i] % 64;
    const std::size_t dst_lane = i % 64;
    for (std::size_t w = 0; w < inputs; ++w)
      out.back().words[w] |=
          ((batches[src_batch].words[w] >> src_lane) & 1u) << dst_lane;
    ++out.back().pattern_count;
  }
  return out;
}

TEST(CoverageEngine, MinimizedSuiteDetectsSameFaults) {
  // The set-cover invariant of the ISSUE: minimization may shrink the
  // suite, never the coverage.
  const auto nl = test_circuit();
  const auto library = lib::default_library();
  const auto p = round_robin(nl, 4);

  CoverageConfig cc;
  cc.patterns = 256;
  cc.minimize = true;
  Rng pat_rng(17);
  auto patterns = random_patterns(nl, 256, pat_rng);
  const CoverageEngine engine(nl, library, cc, patterns);
  const auto full = engine.score(p);
  ASSERT_GT(full.faults_detected, 0u);
  EXPECT_LE(full.patterns_minimized, full.patterns_supplied);
  EXPECT_EQ(full.selected_patterns.size(), full.patterns_minimized);

  // Selected indices must be unique and in range.
  std::set<std::uint32_t> unique(full.selected_patterns.begin(),
                                 full.selected_patterns.end());
  EXPECT_EQ(unique.size(), full.selected_patterns.size());
  for (const auto idx : full.selected_patterns)
    EXPECT_LT(idx, engine.pattern_count());

  // Re-score with ONLY the selected patterns: identical fault set.
  cc.minimize = false;
  const CoverageEngine compact(
      nl, library, cc, select_suite(patterns, full.selected_patterns));
  const auto re = compact.score(p);
  EXPECT_EQ(re.faults_detected, full.faults_detected);
  EXPECT_EQ(re.detected, full.detected);
}

TEST(CoverageEngine, SaturatedSensorDetectsNothing) {
  // Threshold below the fault-free leakage: every sensor fails good
  // circuits, so no defect is discriminable (paper section 1).
  const auto nl = test_circuit();
  const auto library = lib::default_library();
  CoverageConfig cc;
  cc.patterns = 64;
  cc.minimize = true;
  cc.sim.iddq_th_ua = 1e-9;
  const CoverageEngine engine(nl, library, cc);
  const auto report = engine.score(round_robin(nl, 2));
  EXPECT_EQ(report.faults_detected, 0u);
  EXPECT_EQ(report.patterns_minimized, 0u);
  for (const auto& m : report.modules) EXPECT_EQ(m.detected, 0u);
}

TEST(CoverageEngine, CollapsedFaultListHasNoDuplicates) {
  const auto nl = netlist::gen::make_c17();
  const auto library = lib::default_library();
  CoverageConfig cc;
  cc.fault_model = FaultModelSpec::parse("bridges=64,shorts=32");
  cc.patterns = 32;
  const CoverageEngine engine(nl, library, cc);
  // c17 has 6 logic gates: 64 sampled bridges collapse hard.
  std::set<std::pair<netlist::GateId, netlist::GateId>> pairs;
  for (const auto& f : engine.faults().bridges) {
    EXPECT_LT(f.a, f.b);  // normalized order, no self-bridges
    pairs.insert({f.a, f.b});
  }
  EXPECT_LE(engine.faults().bridges.size(), 64u);
}

}  // namespace
}  // namespace iddq::sim
