// Module current profiles: the paper's pessimistic max-iDD estimator.
//
//   iDD_max(M) = max over t of  sum over { g in M : t in T(g) } ipeak(g)
//
// A ModuleCurrentProfile maintains the inner sum for every grid slot t plus
// the switching-gate count n(t) (needed by the delay-degradation model).
// Both profiles live in the leaf row of a 1-based tournament (max segment)
// tree whose internal nodes are rebuilt LAZILY: committed add/remove of a
// gate touch only the O(|T(g)|) leaves — exactly the historical update
// cost — and mark the tree stale; the first max query after a batch of
// commits rebuilds the internal nodes with one O(grid) bottom-up pass
// (replacing the historical pair of O(grid) scans), after which maxima are
// O(1) root reads. The bottom-up rebuild has no loop-carried dependency;
// a cached scalar max with a serial rescan made the probe path slower. The
// scan_* methods keep the historical O(grid) maxima as the bit-identity
// reference for self_check(), the tests and bench/perf_micro.cpp.
//
// Thread-safety: const max queries may rebuild the stale tree (mutable
// state), so a profile shared across threads must be synced first — any
// max query does it; PartitionEvaluator::refresh() before probe fan-out is
// the canonical place. Clean profiles are safe for concurrent const reads.
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
      : grid_(grid_size),
        current_ua_(2 * grid_size, 0.0),
        switching_(2 * grid_size, 0) {}

  /// O(|T(g)|): leaf-only updates, tree marked stale.
  void add_gate(const DynamicBitset& times, double ipeak_ua);
  void remove_gate(const DynamicBitset& times, double ipeak_ua);

  /// iDD_max over the grid, in uA. O(1) on a synced tree; one O(grid)
  /// rebuild after a batch of committed updates.
  [[nodiscard]] double max_current_ua() const {
    sync_tree();
    return grid_ == 0 ? 0.0 : std::max(current_ua_[1], 0.0);
  }

  /// Largest switching-gate count over the grid. O(1) on a synced tree.
  [[nodiscard]] std::uint32_t max_switching() const {
    sync_tree();
    return grid_ == 0 ? 0 : switching_[1];
  }

  /// Switching-gate count profile n(t) (the tree's leaf row).
  [[nodiscard]] std::span<const std::uint32_t> switching() const noexcept {
    return std::span<const std::uint32_t>(switching_).subspan(grid_);
  }

  /// Current profile i(t), in uA (the tree's leaf row).
  [[nodiscard]] std::span<const double> current_ua() const noexcept {
    return std::span<const double>(current_ua_).subspan(grid_);
  }

  /// Largest n(t) over t in T(g): the simultaneity a gate experiences,
  /// used as the delay model's n for that gate. Returns at least 1 when
  /// the gate itself is in the module. Reads leaves only (stale-safe).
  [[nodiscard]] std::uint32_t peak_overlap(const DynamicBitset& times) const;

  /// Historical O(grid) maxima, kept as the bit-identity reference the
  /// property tests pin the tree against (and perf_micro measures).
  [[nodiscard]] double scan_max_current_ua() const;
  [[nodiscard]] std::uint32_t scan_max_switching() const;

  /// Validates the incremental max state: syncs the tree, then requires
  /// every internal node to equal the max of its children and the O(1)
  /// maxima to match the O(grid) reference scans. Throws on violation.
  void self_check() const;

  /// Leaf rows are the semantic state; stale internal nodes are not.
  friend bool operator==(const ModuleCurrentProfile& a,
                         const ModuleCurrentProfile& b) {
    return a.grid_ == b.grid_ &&
           std::equal(a.current_ua().begin(), a.current_ua().end(),
                      b.current_ua().begin(), b.current_ua().end()) &&
           std::equal(a.switching().begin(), a.switching().end(),
                      b.switching().begin(), b.switching().end());
  }

 private:
  // 1-based tournament trees: node i's children are 2i and 2i+1, leaves
  // live at [grid_, 2*grid_) and double as the profile storage. Valid for
  // any grid size: every leaf's parent chain ends at node 1, whose value
  // is therefore the grid max. Mutable so const max queries can rebuild
  // the lazily maintained internal nodes.
  std::size_t grid_ = 0;
  mutable std::vector<double> current_ua_;
  mutable std::vector<std::uint32_t> switching_;
  mutable bool tree_stale_ = false;

  void sync_tree() const;
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
