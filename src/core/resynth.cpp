#include "core/resynth.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "estimators/delay_estimator.hpp"
#include "netlist/builder.hpp"
#include "netlist/levelize.hpp"
#include "support/bitset.hpp"
#include "support/error.hpp"

namespace iddq::core {

namespace {

/// Virtual model of the retimed circuit: per-gate count of buffer stages
/// inserted on all fan-in edges. Arrival/slack work in picoseconds; the
/// current profile works on the quantized transition-time grid.
struct RetimeState {
  const netlist::Netlist* nl;
  std::vector<lib::CellParams> cells;
  std::vector<netlist::GateId> order;
  double buf_delay_ps = 0.0;
  std::size_t buf_slots = 1;
  double bin_ps = 45.0;
  std::vector<std::size_t> extra;  // buffer stages before gate g

  [[nodiscard]] double gate_delay_ps(netlist::GateId g) const {
    return cells[g].delay_ps +
           static_cast<double>(extra[g]) * buf_delay_ps;
  }

  /// Longest-path arrivals (at gate outputs) under the current retiming.
  [[nodiscard]] std::vector<double> arrivals_ps() const {
    std::vector<double> at(nl->gate_count(), 0.0);
    for (const netlist::GateId g : order) {
      if (nl->gate(g).fanins.empty()) continue;
      double in = 0.0;
      for (const netlist::GateId f : nl->gate(g).fanins)
        in = std::max(in, at[f]);
      at[g] = in + gate_delay_ps(g);
    }
    return at;
  }

  /// Slack of every gate against the delay limit.
  [[nodiscard]] std::vector<double> slacks_ps(double limit_ps) const {
    const auto at = arrivals_ps();
    std::vector<double> required(nl->gate_count(), limit_ps);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const netlist::GateId g = *it;
      const double req_in = required[g] - gate_delay_ps(g);
      for (const netlist::GateId f : nl->gate(g).fanins)
        required[f] = std::min(required[f], req_in);
    }
    std::vector<double> slack(nl->gate_count(), 0.0);
    for (netlist::GateId g = 0; g < nl->gate_count(); ++g)
      slack[g] = required[g] - at[g];
    return slack;
  }

  /// Quantized transition-time sets under the current retiming.
  [[nodiscard]] std::vector<DynamicBitset> transition_sets(
      std::size_t grid) const {
    std::vector<DynamicBitset> times(nl->gate_count(), DynamicBitset(grid));
    for (const netlist::GateId g : order) {
      const auto& gate = nl->gate(g);
      if (gate.fanins.empty()) {
        times[g].set(0);
        continue;
      }
      const auto base = static_cast<std::size_t>(
          std::llround(cells[g].delay_ps / bin_ps));
      const std::size_t shift =
          std::max<std::size_t>(1, base) + extra[g] * buf_slots;
      for (const netlist::GateId f : gate.fanins)
        times[g].or_shifted(times[f], shift);
    }
    return times;
  }
};

/// Per-module objective for the partition-aware pass: module current
/// profiles including the inserted buffers' own switching (a buffer stage j
/// on edge f->g switches at T(f) shifted by j * buf_slots and shares g's
/// virtual rail).
struct ModuleObjective {
  double sum_peaks = 0.0;
  std::uint32_t worst_module = 0;
  std::size_t worst_slot = 0;
};

ModuleObjective evaluate_modules(const RetimeState& state, std::size_t grid,
                                 std::span<const std::uint32_t> module_of,
                                 std::size_t module_count,
                                 double buf_ipeak_ua) {
  const auto times = state.transition_sets(grid);
  std::vector<double> current(module_count * grid, 0.0);
  for (const netlist::GateId g : state.nl->logic_gates()) {
    const std::uint32_t m = module_of[g];
    IDDQ_ASSERT(m < module_count);
    times[g].for_each([&](std::size_t t) {
      current[m * grid + t] += state.cells[g].ipeak_ua;
    });
    for (std::size_t j = 1; j <= state.extra[g]; ++j) {
      const std::size_t shift = j * state.buf_slots;
      for (const netlist::GateId f : state.nl->gate(g).fanins) {
        times[f].for_each([&](std::size_t t) {
          if (t + shift < grid)
            current[m * grid + t + shift] += buf_ipeak_ua;
        });
      }
    }
  }
  ModuleObjective obj;
  double worst_peak = -1.0;
  for (std::uint32_t m = 0; m < module_count; ++m) {
    double peak = 0.0;
    std::size_t slot = 0;
    for (std::size_t t = 0; t < grid; ++t) {
      if (current[m * grid + t] > peak) {
        peak = current[m * grid + t];
        slot = t;
      }
    }
    obj.sum_peaks += peak;
    if (peak > worst_peak) {
      worst_peak = peak;
      obj.worst_module = m;
      obj.worst_slot = slot;
    }
  }
  return obj;
}

}  // namespace

RetimeResult retime_for_iddq_partitioned(
    const netlist::Netlist& nl, const lib::CellLibrary& library,
    const std::vector<std::vector<netlist::GateId>>& module_groups,
    const ResynthOptions& options) {
  require(options.grid_bin_ps > 0.0, "resynth: grid bin must be positive");
  require(options.target_peak_reduction >= 0.0 &&
              options.target_peak_reduction < 1.0,
          "resynth: target reduction must be in [0, 1)");
  require(options.delay_margin >= 0.0, "resynth: delay margin must be >= 0");
  require(!module_groups.empty(), "resynth: need at least one module");

  RetimeState state;
  state.nl = &nl;
  state.cells = lib::bind_cells(nl, library);
  state.order = netlist::topological_order(nl);
  state.bin_ps = options.grid_bin_ps;
  const auto& buf =
      library.params(lib::CellType{netlist::GateKind::kBuf, 1});
  state.buf_delay_ps = buf.delay_ps;
  state.buf_slots = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(buf.delay_ps / state.bin_ps)));
  state.extra.assign(nl.gate_count(), 0);

  std::vector<std::uint32_t> module_of(
      nl.gate_count(), static_cast<std::uint32_t>(-1));
  for (std::uint32_t m = 0; m < module_groups.size(); ++m)
    for (const netlist::GateId g : module_groups[m]) {
      require(g < nl.gate_count() && netlist::is_logic(nl.gate(g).kind),
              "resynth: group contains an invalid gate id");
      module_of[g] = m;
    }
  for (const netlist::GateId g : nl.logic_gates())
    require(module_of[g] != static_cast<std::uint32_t>(-1),
            "resynth: module groups must cover every logic gate");

  const double d_before = est::nominal_critical_path_ps(nl, state.cells);
  const double limit_ps = d_before * (1.0 + options.delay_margin);
  const std::size_t grid =
      static_cast<std::size_t>(std::ceil(limit_ps / state.bin_ps)) +
      options.max_retimed_gates * state.buf_slots + 4;

  ModuleObjective obj = evaluate_modules(state, grid, module_of,
                                         module_groups.size(), buf.ipeak_ua);
  RetimeResult result;
  result.netlist = nl;
  result.sum_peak_before_ua = obj.sum_peaks;
  result.sum_peak_after_ua = obj.sum_peaks;
  result.delay_before_ps = d_before;
  result.delay_after_ps = d_before;
  const double target = obj.sum_peaks * (1.0 - options.target_peak_reduction);

  while (result.retimed_gates < options.max_retimed_gates &&
         result.sum_peak_after_ua > target) {
    const auto slack = state.slacks_ps(limit_ps);
    const auto times = state.transition_sets(grid);
    std::vector<netlist::GateId> candidates;
    for (const netlist::GateId g : nl.logic_gates()) {
      if (module_of[g] != obj.worst_module) continue;
      if (!times[g].test(obj.worst_slot)) continue;
      if (slack[g] < state.buf_delay_ps) continue;
      candidates.push_back(g);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](netlist::GateId a, netlist::GateId b) {
                return state.cells[a].ipeak_ua /
                           static_cast<double>(nl.gate(a).fanins.size()) >
                       state.cells[b].ipeak_ua /
                           static_cast<double>(nl.gate(b).fanins.size());
              });
    if (candidates.size() > 12) candidates.resize(12);

    bool improved = false;
    for (const netlist::GateId g : candidates) {
      state.extra[g] += 1;
      const ModuleObjective trial = evaluate_modules(
          state, grid, module_of, module_groups.size(), buf.ipeak_ua);
      if (trial.sum_peaks < result.sum_peak_after_ua) {
        obj = trial;
        result.sum_peak_after_ua = trial.sum_peaks;
        result.retimed_gates += 1;
        result.buffers_added += nl.gate(g).fanins.size();
        improved = true;
        break;
      }
      state.extra[g] -= 1;
    }
    if (!improved) break;
  }

  // Rebuild with buffers and extend the module groups so the partition
  // covers the new cells (each buffer joins its sink gate's module).
  result.groups.assign(module_groups.size(), {});
  netlist::NetlistBuilder b(nl.name() + "_prt");
  std::vector<netlist::GateId> remap(nl.gate_count(), netlist::kNoGate);
  for (const netlist::GateId g : nl.primary_inputs())
    remap[g] = b.add_input(nl.gate(g).name);
  for (const netlist::GateId g : state.order) {
    const auto& gate = nl.gate(g);
    if (gate.fanins.empty()) continue;
    const std::uint32_t m = module_of[g];
    std::vector<netlist::GateId> fanins;
    fanins.reserve(gate.fanins.size());
    for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
      netlist::GateId src = remap[gate.fanins[i]];
      IDDQ_ASSERT(src != netlist::kNoGate);
      for (std::size_t k = 0; k < state.extra[g]; ++k) {
        src = b.add_gate(netlist::GateKind::kBuf,
                         gate.name + "_prt" + std::to_string(k) + "_" +
                             std::to_string(i),
                         {src});
        result.groups[m].push_back(src);
      }
      fanins.push_back(src);
    }
    remap[g] = b.add_gate(gate.kind, gate.name, std::move(fanins));
    result.groups[m].push_back(remap[g]);
  }
  for (const netlist::GateId g : nl.primary_outputs()) b.mark_output(remap[g]);
  result.netlist = std::move(b).build();
  result.delay_after_ps = est::nominal_critical_path_ps(
      result.netlist, lib::bind_cells(result.netlist, library));
  return result;
}

}  // namespace iddq::core
