// IDDQ-aware resynthesis: the paper's stated next step.
//
// Conclusion of the paper: "So far only resynthesis for including BIC
// sensors has been considered. Next step is controlling the logic synthesis
// procedure such that the presented cost function is considered at the early
// beginning."
//
// This module implements that step for the dominant cost driver, the
// maximum transient current: a *wave-retiming* pass that desynchronizes
// simultaneous switching. The pessimistic estimator charges every gate at
// every possible arrival time; gates of one module that share a time slot
// add their peak currents and force a wide (large-area) bypass switch.
// Inserting a buffer on *every* fan-in edge of a gate shifts the gate's
// entire transition-time set later without changing its function — if the
// gate has timing slack, the critical path is untouched and its module's
// current peak drops.
//
// The pass works against a given partition and is greedy and budgeted:
//   1. compute every module's current profile (the inserted buffers
//      included) and the peak slot t* of the module with the largest peak;
//   2. among that module's gates switching at t* whose slack covers the
//      buffer delay, try the 12 with the largest (ipeak / fanin-count)
//      ratio and keep the first whose retiming lowers the sum of module
//      peaks;
//   3. repeat until the sum improves no more, the buffer budget is
//      exhausted, or the target reduction is reached;
//   4. rebuild the netlist with the chosen buffers on fan-in edges.
// A one-group partition retimes against the whole-circuit peak.
//
// The bench (ablation_resynth) quantifies the trade: sensor-area reduction
// bought per inserted buffer area, at zero critical-path cost.
#pragma once

#include <cstdint>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/netlist.hpp"

namespace iddq::core {

struct ResynthOptions {
  /// Maximum number of gates to retime (each costs fanin-count buffers).
  std::size_t max_retimed_gates = 64;
  /// Stop when the sum of module peaks has dropped by this factor; in
  /// [0, 1).
  double target_peak_reduction = 0.5;
  /// Transition-time grid resolution, ps (must match the evaluation grid
  /// for the savings to transfer; EvalContext default is 45 ps).
  double grid_bin_ps = 45.0;
  /// Safety margin on the critical path: retiming must keep the circuit
  /// delay within (1 + delay_margin) * original. 0 = never touch the path;
  /// must be >= 0.
  double delay_margin = 0.0;
};

/// Result of the retiming pass: it minimizes the *sum of per-module peaks*
/// Sum_m max_t I_m(t) — the quantity the sensor-area cost actually charges
/// (A_i = A0 + A1 * iDD_max,i / r) — for a given partition, accounting for
/// the switching current of the inserted buffers themselves (each buffer
/// joins its sink gate's module, sharing that virtual rail).
struct RetimeResult {
  netlist::Netlist netlist;  // the restructured circuit
  /// The input partition extended with the inserted buffers (gate ids refer
  /// to the *returned* netlist), ready for Partition::from_groups.
  std::vector<std::vector<netlist::GateId>> groups;
  std::size_t retimed_gates = 0;
  std::size_t buffers_added = 0;
  double sum_peak_before_ua = 0.0;  // Sum_m iDD_max,m, original
  double sum_peak_after_ua = 0.0;   // ditto, restructured (incl. buffers)
  double delay_before_ps = 0.0;
  double delay_after_ps = 0.0;

  [[nodiscard]] double sum_peak_reduction() const {
    return sum_peak_before_ua > 0.0
               ? 1.0 - sum_peak_after_ua / sum_peak_before_ua
               : 0.0;
  }
};

/// Restructures `nl` to reduce the sum of module peaks of `module_groups`
/// (logic gate ids of `nl` covering every logic gate). The returned netlist
/// is functionally equivalent (buffers only). Gate names are preserved;
/// inserted buffers are named "<gate>_prt<k>_<fanin>".
[[nodiscard]] RetimeResult retime_for_iddq_partitioned(
    const netlist::Netlist& nl, const lib::CellLibrary& library,
    const std::vector<std::vector<netlist::GateId>>& module_groups,
    const ResynthOptions& options = {});

}  // namespace iddq::core
