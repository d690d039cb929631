#include "core/resynth.hpp"

#include <gtest/gtest.h>

#include "estimators/current_profile.hpp"
#include "estimators/delay_estimator.hpp"
#include "netlist/builder.hpp"
#include "partition/evaluator.hpp"
#include "netlist/gen/array_cut.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "netlist/gen/random_dag.hpp"
#include "sim/logic_sim.hpp"
#include "sim/patterns.hpp"
#include "support/error.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("rt", 400, 14, 11));
  lib::CellLibrary library = lib::default_library();
};

std::vector<std::vector<netlist::GateId>> split_groups(
    const netlist::Netlist& nl, std::size_t k) {
  std::vector<std::vector<netlist::GateId>> groups(k);
  std::size_t i = 0;
  for (const auto g : nl.logic_gates()) groups[i++ % k].push_back(g);
  return groups;
}

/// The retiming pass against a one-group partition: the whole-circuit
/// peak.
RetimeResult retime_whole(const netlist::Netlist& nl,
                                      const lib::CellLibrary& library,
                                      const ResynthOptions& options = {}) {
  return retime_for_iddq_partitioned(nl, library, split_groups(nl, 1),
                                     options);
}

TEST(Resynth, ReducesPeakCurrent) {
  Fixture f;
  ResynthOptions opts;
  opts.max_retimed_gates = 40;
  const auto result = retime_whole(f.nl, f.library, opts);
  EXPECT_GT(result.retimed_gates, 0u);
  EXPECT_LT(result.sum_peak_after_ua, result.sum_peak_before_ua);
  EXPECT_GT(result.sum_peak_reduction(), 0.0);
}

TEST(Resynth, PreservesCriticalPathWithZeroMargin) {
  Fixture f;
  ResynthOptions opts;
  opts.max_retimed_gates = 40;
  opts.delay_margin = 0.0;
  const auto result = retime_whole(f.nl, f.library, opts);
  EXPECT_NEAR(result.delay_after_ps, result.delay_before_ps,
              1e-6 * result.delay_before_ps);
}

TEST(Resynth, PreservesLogicFunction) {
  Fixture f;
  const auto result = retime_whole(f.nl, f.library);
  ASSERT_GT(result.retimed_gates, 0u);
  const sim::LogicSim sim_before(f.nl);
  const sim::LogicSim sim_after(result.netlist);
  Rng rng(3);
  const auto patterns = sim::random_patterns(f.nl, 128, rng);
  for (const auto& batch : patterns) {
    const auto before = sim_before.run(batch.words);
    const auto after = sim_after.run(batch.words);
    for (const auto po : f.nl.primary_outputs()) {
      const auto po_after = result.netlist.at(f.nl.gate(po).name);
      ASSERT_EQ(before[po], after[po_after])
          << "output " << f.nl.gate(po).name << " diverged";
    }
  }
}

TEST(Resynth, ReportedPeakMatchesRebuiltCircuit) {
  // The virtual model's claimed sum of module peaks, buffers included,
  // must equal the per-group maxima of the physically rebuilt netlist on
  // the same grid. Both add the same currents per slot, in a different
  // order, so they may differ in the last bits only.
  Fixture f;
  ResynthOptions opts;
  opts.max_retimed_gates = 20;
  for (const std::size_t k : {1u, 3u}) {
    SCOPED_TRACE("groups " + std::to_string(k));
    const auto result = retime_for_iddq_partitioned(
        f.nl, f.library, split_groups(f.nl, k), opts);
    ASSERT_GT(result.retimed_gates, 0u);
    const auto cells = lib::bind_cells(result.netlist, f.library);
    const est::TransitionTimes tt(result.netlist, cells, opts.grid_bin_ps);
    double rebuilt = 0.0;
    for (const auto& group : result.groups)
      rebuilt += est::profile_of(tt, cells, group).max_current_ua();
    EXPECT_NEAR(rebuilt, result.sum_peak_after_ua,
                1e-12 * result.sum_peak_after_ua);
  }
}

TEST(Resynth, BufferCountMatchesRetimedFanins) {
  Fixture f;
  const auto result = retime_whole(f.nl, f.library);
  // Every added buffer appears in the rebuilt netlist.
  const std::size_t gates_after = result.netlist.logic_gate_count();
  EXPECT_EQ(gates_after, f.nl.logic_gate_count() + result.buffers_added);
}

TEST(Resynth, RespectsBudget) {
  Fixture f;
  ResynthOptions opts;
  opts.max_retimed_gates = 3;
  const auto result = retime_whole(f.nl, f.library, opts);
  EXPECT_LE(result.retimed_gates, 3u);
}

TEST(Resynth, NoOpWhenEverythingIsCritical) {
  // A single chain has zero slack everywhere: nothing may be retimed.
  netlist::NetlistBuilder b("chain");
  auto prev = b.add_input("a");
  for (int i = 0; i < 6; ++i)
    prev = b.add_gate(netlist::GateKind::kNot, "n" + std::to_string(i),
                      {prev});
  b.mark_output(prev);
  const auto nl = std::move(b).build();
  const auto result = retime_whole(nl, lib::default_library());
  EXPECT_EQ(result.retimed_gates, 0u);
  EXPECT_EQ(result.buffers_added, 0u);
  EXPECT_DOUBLE_EQ(result.sum_peak_after_ua, result.sum_peak_before_ua);
}

TEST(Resynth, DelayMarginUnlocksMoreRetiming) {
  Fixture f;
  ResynthOptions tight;
  tight.max_retimed_gates = 60;
  tight.delay_margin = 0.0;
  ResynthOptions loose = tight;
  loose.delay_margin = 0.10;
  const auto r_tight = retime_whole(f.nl, f.library, tight);
  const auto r_loose = retime_whole(f.nl, f.library, loose);
  EXPECT_LE(r_loose.sum_peak_after_ua, r_tight.sum_peak_after_ua);
  // The loose variant may spend its margin...
  EXPECT_LE(r_loose.delay_after_ps,
            r_loose.delay_before_ps * 1.10 + 1e-6);
}

TEST(Resynth, RejectsBadOptions) {
  Fixture f;
  ResynthOptions opts;
  opts.grid_bin_ps = 0.0;
  EXPECT_THROW((void)retime_whole(f.nl, f.library, opts), Error);
  opts = ResynthOptions{};
  opts.target_peak_reduction = 1.0;
  EXPECT_THROW((void)retime_whole(f.nl, f.library, opts), Error);
  opts.target_peak_reduction = -0.1;
  EXPECT_THROW((void)retime_whole(f.nl, f.library, opts), Error);
  opts = ResynthOptions{};
  opts.delay_margin = -0.01;
  EXPECT_THROW((void)retime_whole(f.nl, f.library, opts), Error);
}

TEST(PartitionedResynth, ReducesSumOfModulePeaks) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  ResynthOptions opts;
  opts.max_retimed_gates = 60;
  const auto result =
      retime_for_iddq_partitioned(f.nl, f.library, groups, opts);
  EXPECT_GT(result.retimed_gates, 0u);
  EXPECT_LT(result.sum_peak_after_ua, result.sum_peak_before_ua);
  EXPECT_GT(result.sum_peak_reduction(), 0.0);
}

TEST(PartitionedResynth, ExtendedGroupsCoverRebuiltNetlist) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const auto result = retime_for_iddq_partitioned(f.nl, f.library, groups);
  const auto p = part::Partition::from_groups(result.netlist, result.groups);
  EXPECT_TRUE(p.covers(result.netlist));
  EXPECT_EQ(p.module_count(), 3u);
}

TEST(PartitionedResynth, PreservesLogicFunction) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const auto result = retime_for_iddq_partitioned(f.nl, f.library, groups);
  ASSERT_GT(result.retimed_gates, 0u);
  const sim::LogicSim sim_before(f.nl);
  const sim::LogicSim sim_after(result.netlist);
  Rng rng(9);
  const auto patterns = sim::random_patterns(f.nl, 64, rng);
  const auto before = sim_before.run(patterns[0].words);
  const auto after = sim_after.run(patterns[0].words);
  for (const auto po : f.nl.primary_outputs())
    EXPECT_EQ(before[po], after[result.netlist.at(f.nl.gate(po).name)]);
}

TEST(PartitionedResynth, KeepsCriticalPathAtZeroMargin) {
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  ResynthOptions opts;
  opts.delay_margin = 0.0;
  const auto result =
      retime_for_iddq_partitioned(f.nl, f.library, groups, opts);
  EXPECT_NEAR(result.delay_after_ps, result.delay_before_ps,
              1e-6 * result.delay_before_ps);
}

TEST(PartitionedResynth, SensorAreaImprovesUnderEvaluator) {
  // The end-to-end claim of the extension: evaluating the retimed circuit
  // under the extended partition must not increase the total sensor area.
  Fixture f;
  const auto groups = split_groups(f.nl, 3);
  const part::EvalContext before_ctx(f.nl, f.library, elec::SensorSpec{},
                                     part::CostWeights{});
  part::PartitionEvaluator before(
      before_ctx, part::Partition::from_groups(f.nl, groups));
  const auto result = retime_for_iddq_partitioned(f.nl, f.library, groups);
  const part::EvalContext after_ctx(result.netlist, f.library,
                                    elec::SensorSpec{}, part::CostWeights{});
  part::PartitionEvaluator after(
      after_ctx, part::Partition::from_groups(result.netlist, result.groups));
  EXPECT_LE(after.total_sensor_area(), before.total_sensor_area() * 1.001);
}

TEST(PartitionedResynth, RejectsIncompleteGroups) {
  Fixture f;
  auto groups = split_groups(f.nl, 3);
  groups[0].pop_back();  // one gate uncovered
  EXPECT_THROW(
      (void)retime_for_iddq_partitioned(f.nl, f.library, groups), Error);
}

}  // namespace
}  // namespace iddq::core
