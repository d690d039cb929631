#include "estimators/current_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "library/cell_library.hpp"
#include "netlist/gen/array_cut.hpp"
#include "netlist/gen/c17.hpp"
#include "support/rng.hpp"
#include "test_seed.hpp"

namespace iddq::est {
namespace {

/// Random synthetic gate for the churn property test.
struct FakeGate {
  DynamicBitset times;
  double ipeak_ua = 0.0;
};

std::vector<FakeGate> random_gates(Rng& rng, std::size_t grid,
                                   std::size_t count) {
  std::vector<FakeGate> gates(count);
  for (auto& g : gates) {
    g.times = DynamicBitset(grid);
    const std::size_t bits = 1 + rng.below(std::max<std::size_t>(grid / 4, 1));
    for (std::size_t b = 0; b < bits; ++b) g.times.set(rng.below(grid));
    g.ipeak_ua = rng.uniform(0.05, 8.0);
  }
  return gates;
}

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_c17();
  lib::CellLibrary library = lib::default_library();
  std::vector<lib::CellParams> cells = lib::bind_cells(nl, library);
  TransitionTimes tt{nl};  // unit grid for hand-checkable numbers
};

TEST(CurrentProfile, C17WholeCircuit) {
  Fixture f;
  const auto prof = circuit_profile(f.nl, f.tt, f.cells);
  const double nand2 = f.cells[f.nl.at("10")].ipeak_ua;
  const auto current = prof.current_ua();
  // Slot 1: gates 10, 11, 16, 19 can switch (16/19 via direct input paths).
  EXPECT_NEAR(current[1], 4 * nand2, 1e-9);
  // Slot 2: 16, 19 (via 11) and 22, 23 (via short paths).
  EXPECT_NEAR(current[2], 4 * nand2, 1e-9);
  // Slot 3: 22, 23 only.
  EXPECT_NEAR(current[3], 2 * nand2, 1e-9);
  EXPECT_NEAR(prof.max_current_ua(), 4 * nand2, 1e-9);
  EXPECT_EQ(prof.max_switching(), 4u);
}

TEST(CurrentProfile, AddRemoveRoundTrip) {
  Fixture f;
  ModuleCurrentProfile p(f.tt.grid_size());
  const ModuleCurrentProfile empty = p;
  for (const auto id : f.nl.logic_gates())
    p.add_gate(f.tt.at(id), f.cells[id].ipeak_ua);
  for (const auto id : f.nl.logic_gates())
    p.remove_gate(f.tt.at(id), f.cells[id].ipeak_ua);
  EXPECT_EQ(p, empty);
  EXPECT_DOUBLE_EQ(p.max_current_ua(), 0.0);
}

TEST(CurrentProfile, ProfileOfSubset) {
  Fixture f;
  const std::vector<netlist::GateId> subset = {f.nl.at("10"), f.nl.at("11")};
  const auto p = profile_of(f.tt, f.cells, subset);
  const double nand2 = f.cells[f.nl.at("10")].ipeak_ua;
  EXPECT_NEAR(p.max_current_ua(), 2 * nand2, 1e-9);  // both switch at t=1
  EXPECT_EQ(p.max_switching(), 2u);
}

TEST(CurrentProfile, PeakOverlapSeesModuleActivity) {
  Fixture f;
  const std::vector<netlist::GateId> subset = {f.nl.at("10"), f.nl.at("11"),
                                               f.nl.at("22")};
  const auto p = profile_of(f.tt, f.cells, subset);
  // Gate 22 switches at {2,3}; within this subset only itself -> overlap 1.
  EXPECT_EQ(p.peak_overlap(f.tt.at(f.nl.at("22"))), 1u);
  // Gate 10 at {1} overlaps 11 -> 2.
  EXPECT_EQ(p.peak_overlap(f.tt.at(f.nl.at("10"))), 2u);
}

TEST(CurrentProfile, FigureTwoShapeEffect) {
  // The paper's figure 2: grouping along the flow (rows) yields a smaller
  // per-group max current than grouping across the flow (columns).
  const auto cut = netlist::gen::make_array_cut(6, 6);
  const auto library = lib::default_library();
  const auto cells = lib::bind_cells(cut.netlist, library);
  const TransitionTimes tt(cut.netlist);

  const auto rows = netlist::gen::row_band_partition(cut, 3);
  const auto cols = netlist::gen::column_band_partition(cut, 3);
  double worst_row = 0.0;
  double worst_col = 0.0;
  for (const auto& group : rows)
    worst_row = std::max(worst_row,
                         profile_of(tt, cells, group).max_current_ua());
  for (const auto& group : cols)
    worst_col = std::max(worst_col,
                         profile_of(tt, cells, group).max_current_ua());
  // Row bands: 2 cells per time slot; column bands: 6 cells of one column
  // switch together. The column grouping must be markedly worse.
  EXPECT_GT(worst_col, worst_row * 1.5);
}

TEST(CurrentProfile, RemoveCancelsFloatingPointResidue) {
  Fixture f;
  ModuleCurrentProfile p(f.tt.grid_size());
  p.add_gate(f.tt.at(f.nl.at("10")), 0.1);
  p.add_gate(f.tt.at(f.nl.at("11")), 0.2);
  p.remove_gate(f.tt.at(f.nl.at("10")), 0.1);
  p.remove_gate(f.tt.at(f.nl.at("11")), 0.2);
  // Slot currents are exactly zero once the count reaches zero.
  for (const double v : p.current_ua()) EXPECT_EQ(v, 0.0);
}

TEST(CurrentProfile, SumOfModuleMaximaBoundsGlobalPeak) {
  // Invariant exploited by the table-1 analysis: for any disjoint cover,
  // sum over modules of max >= max over time of the global profile.
  Fixture f;
  const auto global = circuit_profile(f.nl, f.tt, f.cells);
  const std::vector<std::vector<netlist::GateId>> groups = {
      {f.nl.at("10"), f.nl.at("16"), f.nl.at("22")},
      {f.nl.at("11"), f.nl.at("19"), f.nl.at("23")}};
  double sum = 0.0;
  for (const auto& g : groups)
    sum += profile_of(f.tt, f.cells, g).max_current_ua();
  EXPECT_GE(sum, global.max_current_ua() - 1e-9);
}

/// Serial reference maxima: one accumulator, slot order.
double serial_max(std::span<const double> row) {
  double best = 0.0;
  for (const double v : row) best = std::max(best, v);
  return best;
}
std::uint32_t serial_max(std::span<const std::uint32_t> row) {
  std::uint32_t best = 0;
  for (const std::uint32_t v : row) best = std::max(best, v);
  return best;
}

TEST(CurrentProfile, TreeMaximaMatchScansUnderRandomChurn) {
  // The lane-split maxima must stay bit-equal to a serial scan through
  // arbitrary add/remove sequences — including removing the gate that
  // carries the current max, so the runner-up must surface — and the
  // incrementally kept switching row must equal a fresh profile of the
  // current members. Grids not a multiple of the four lanes exercise the
  // scan's tail.
  const std::uint64_t seed = testutil::run_seed();
  SCOPED_TRACE(testutil::replay_note(seed));
  Rng rng(seed);
  for (const std::size_t grid : {1ul, 2ul, 3ul, 7ul, 64ul, 193ul}) {
    const auto gates = random_gates(rng, grid, 40);
    ModuleCurrentProfile p(grid);
    std::vector<std::size_t> in_module;
    std::vector<std::size_t> out_of_module(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) out_of_module[i] = i;
    for (int step = 0; step < 400; ++step) {
      const bool add = in_module.empty() ||
                       (!out_of_module.empty() && rng.below(2) == 0);
      auto& pool = add ? out_of_module : in_module;
      auto& other = add ? in_module : out_of_module;
      const std::size_t pick = rng.below(pool.size());
      const std::size_t gate = pool[pick];
      pool[pick] = pool.back();
      pool.pop_back();
      other.push_back(gate);
      if (add)
        p.add_gate(gates[gate].times, gates[gate].ipeak_ua);
      else
        p.remove_gate(gates[gate].times, gates[gate].ipeak_ua);
      ASSERT_EQ(p.max_current_ua(), serial_max(p.current_ua()));
      ASSERT_EQ(p.max_switching(), serial_max(p.switching()));
      // profile_of's construction over the current member set.
      ModuleCurrentProfile fresh(grid);
      for (const std::size_t member : in_module)
        fresh.add_gate(gates[member].times, gates[member].ipeak_ua);
      ASSERT_TRUE(std::ranges::equal(p.switching(), fresh.switching()));
    }
  }
}

TEST(CurrentProfile, OverlayRemovalOfDominantGateFindsRunnerUp) {
  // One gate dominates the peak at a unique slot; committing its removal
  // must surface the runner-up slot's value, not a stale one.
  ModuleCurrentProfile p(16);
  DynamicBitset dominant(16);
  dominant.set(5);
  DynamicBitset runner_up(16);
  runner_up.set(11);
  p.add_gate(dominant, 100.0);
  p.add_gate(runner_up, 7.0);
  EXPECT_DOUBLE_EQ(p.max_current_ua(), 100.0);
  EXPECT_EQ(p.max_switching(), 1u);
  p.remove_gate(dominant, 100.0);
  EXPECT_DOUBLE_EQ(p.max_current_ua(), 7.0);
  EXPECT_EQ(p.max_switching(), 1u);
  EXPECT_EQ(p.max_current_ua(), 7.0);
}

}  // namespace
}  // namespace iddq::est
