#include "estimators/delay_estimator.hpp"

#include <algorithm>

#include "netlist/levelize.hpp"
#include "support/error.hpp"

namespace iddq::est {

namespace {

double critical_path_ps(const netlist::Netlist& nl,
                        std::span<const lib::CellParams> cells,
                        std::span<const double> delta) {
  std::vector<double> arrival(nl.gate_count(), 0.0);
  double worst = 0.0;
  for (const netlist::GateId id : netlist::topological_order(nl)) {
    const auto& g = nl.gate(id);
    if (g.fanins.empty()) continue;  // primary input, arrival 0
    double in_arrival = 0.0;
    for (const netlist::GateId f : g.fanins)
      in_arrival = std::max(in_arrival, arrival[f]);
    const double factor = delta.empty() ? 1.0 : delta[id];
    IDDQ_ASSERT(delta.empty() || factor >= 1.0);
    arrival[id] = in_arrival + cells[id].delay_ps * factor;
    worst = std::max(worst, arrival[id]);
  }
  return worst;
}

}  // namespace

double nominal_critical_path_ps(const netlist::Netlist& nl,
                                std::span<const lib::CellParams> cells) {
  return critical_path_ps(nl, cells, {});
}

double degraded_critical_path_ps(const netlist::Netlist& nl,
                                 std::span<const lib::CellParams> cells,
                                 std::span<const double> delta) {
  IDDQ_ASSERT(delta.size() == nl.gate_count());
  return critical_path_ps(nl, cells, delta);
}

}  // namespace iddq::est
