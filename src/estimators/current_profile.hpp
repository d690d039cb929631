// Module current profiles: the paper's pessimistic max-iDD estimator.
//
//   iDD_max(M) = max over t of  sum over { g in M : t in T(g) } ipeak(g)
//
// A ModuleCurrentProfile maintains the inner sum for every grid slot t plus
// the switching-gate count n(t) (needed by the delay-degradation model) as
// two grid-long rows. Committed add/remove of a gate touch only its
// O(|T(g)|) slots; the maxima are O(grid) const scans that keep four
// independent accumulators, so no single compare chain serializes them
// (max is exact, so the lane order cannot change a bit).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "estimators/transition_times.hpp"
#include "library/cell.hpp"
#include "netlist/netlist.hpp"

namespace iddq::est {

class ModuleCurrentProfile {
 public:
  ModuleCurrentProfile() = default;
  explicit ModuleCurrentProfile(std::size_t grid_size)
      : current_ua_(grid_size, 0.0), switching_(grid_size, 0) {}

  /// O(|T(g)|).
  void add_gate(const DynamicBitset& times, double ipeak_ua);
  void remove_gate(const DynamicBitset& times, double ipeak_ua);

  /// iDD_max over the grid, in uA (0 on an empty grid). O(grid).
  [[nodiscard]] double max_current_ua() const;

  /// Largest switching-gate count over the grid. O(grid).
  [[nodiscard]] std::uint32_t max_switching() const;

  /// Switching-gate count profile n(t).
  [[nodiscard]] std::span<const std::uint32_t> switching() const noexcept {
    return switching_;
  }

  /// Current profile i(t), in uA.
  [[nodiscard]] std::span<const double> current_ua() const noexcept {
    return current_ua_;
  }

  /// Largest n(t) over t in T(g): the simultaneity a gate experiences,
  /// used as the delay model's n for that gate. Returns at least 1 when
  /// the gate itself is in the module.
  [[nodiscard]] std::uint32_t peak_overlap(const DynamicBitset& times) const;

  friend bool operator==(const ModuleCurrentProfile&,
                         const ModuleCurrentProfile&) = default;

 private:
  std::vector<double> current_ua_;
  std::vector<std::uint32_t> switching_;
};

/// Builds the profile of an arbitrary gate set.
[[nodiscard]] ModuleCurrentProfile profile_of(
    const TransitionTimes& tt, std::span<const lib::CellParams> cells,
    std::span<const netlist::GateId> gates);

/// Whole-circuit profile (all logic gates in one virtual module) — the
/// size-planner's "average numbers" abstraction uses this.
[[nodiscard]] ModuleCurrentProfile circuit_profile(
    const netlist::Netlist& nl, const TransitionTimes& tt,
    std::span<const lib::CellParams> cells);

}  // namespace iddq::est
