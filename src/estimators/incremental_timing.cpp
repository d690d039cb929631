#include "estimators/incremental_timing.hpp"

#include <algorithm>

#include "netlist/levelize.hpp"

namespace iddq::est {

TimingGraph::TimingGraph(const netlist::Netlist& nl,
                         std::span<const lib::CellParams> cells)
    : order_(netlist::topological_order(nl)), rank_(nl.gate_count(), 0) {
  for (std::uint32_t i = 0; i < order_.size(); ++i) rank_[order_[i]] = i;
  const std::size_t n = nl.gate_count();
  fanin_off_.assign(n + 1, 0);
  fanout_off_.assign(n + 1, 0);
  delay_ps_.assign(n, 0.0);
  for (netlist::GateId id = 0; id < n; ++id) {
    const auto& g = nl.gate(id);
    fanin_off_[id + 1] = fanin_off_[id] +
                         static_cast<std::uint32_t>(g.fanins.size());
    fanout_off_[id + 1] = fanout_off_[id] +
                          static_cast<std::uint32_t>(g.fanouts.size());
    delay_ps_[id] = cells.empty() ? 0.0 : cells[id].delay_ps;
  }
  fanin_flat_.reserve(fanin_off_[n]);
  fanout_flat_.reserve(fanout_off_[n]);
  for (netlist::GateId id = 0; id < n; ++id) {
    const auto& g = nl.gate(id);
    fanin_flat_.insert(fanin_flat_.end(), g.fanins.begin(), g.fanins.end());
    fanout_flat_.insert(fanout_flat_.end(), g.fanouts.begin(),
                        g.fanouts.end());
  }
  gate_depth_.assign(n, 0);
  for (const netlist::GateId id : order_) {
    for (const netlist::GateId f : fanins(id))
      gate_depth_[id] = std::max(gate_depth_[id], gate_depth_[f] + 1);
    depth_ = std::max(depth_, gate_depth_[id]);
  }
}

void IncrementalTiming::trace_chain(Certificate& cert) const {
  for (netlist::GateId id = critical_; id != netlist::kNoGate;) {
    cert.chain.push_back(id);
    netlist::GateId next = netlist::kNoGate;
    for (const netlist::GateId f : graph_->fanins(id)) {
      if (graph_->fanins(f).empty()) continue;  // primary input: arrival 0
      if (next == netlist::kNoGate || arrival_[f] > arrival_[next]) next = f;
    }
    id = next;
  }
  std::reverse(cert.chain.begin(), cert.chain.end());
}

void IncrementalTiming::link_near_fanins(Certificate& cert) {
  // Positions + 1 ride in the zeroed scratch array while the links are
  // collected (exact in a double: |N| < 2^53).
  for (std::size_t i = 0; i < cert.near.size(); ++i)
    scratch_arrival_[cert.near[i]] = static_cast<double>(i + 1);
  cert.link_off.assign(1, 0);
  for (const netlist::GateId id : cert.near) {
    for (const netlist::GateId f : graph_->fanins(id))
      if (scratch_arrival_[f] != 0.0)
        cert.link.push_back(static_cast<std::uint32_t>(scratch_arrival_[f]) -
                            1);
    cert.link_off.push_back(static_cast<std::uint32_t>(cert.link.size()));
  }
  std::vector<double>().swap(scratch_arrival_);
}

}  // namespace iddq::est
