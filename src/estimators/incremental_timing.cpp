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
  std::vector<std::uint32_t> level(n, 0);
  for (const netlist::GateId id : order_) {
    for (const netlist::GateId f : fanins(id))
      level[id] = std::max(level[id], level[f] + 1);
    depth_ = std::max<std::size_t>(depth_, level[id]);
  }
}

void IncrementalTiming::rescan_worst() {
  // Flat scan of the arrival array — no graph walk, vectorizes. Primary
  // inputs hold arrival 0 and cannot spuriously win (delays are positive;
  // if every arrival is 0 the critical path is 0 anyway).
  worst_ = 0.0;
  critical_ = netlist::kNoGate;
  for (netlist::GateId id = 0; id < arrival_.size(); ++id) {
    if (arrival_[id] > worst_) {
      worst_ = arrival_[id];
      critical_ = id;
    }
  }
}

void IncrementalTiming::trace_chain() {
  for (netlist::GateId id = critical_; id != netlist::kNoGate;) {
    chain_.push_back(id);
    netlist::GateId next = netlist::kNoGate;
    for (const netlist::GateId f : graph_->fanins(id)) {
      if (graph_->fanins(f).empty()) continue;  // primary input: arrival 0
      if (next == netlist::kNoGate || arrival_[f] > arrival_[next]) next = f;
    }
    id = next;
  }
  std::reverse(chain_.begin(), chain_.end());
}

void IncrementalTiming::link_near_fanins() {
  // Positions + 1 ride in the zeroed scratch array while the links are
  // collected (exact in a double: |N| < 2^53).
  for (std::size_t i = 0; i < near_.size(); ++i)
    scratch_arrival_[near_[i]] = static_cast<double>(i + 1);
  near_link_off_.assign(1, 0);
  near_link_.clear();
  for (const netlist::GateId id : near_) {
    for (const netlist::GateId f : graph_->fanins(id))
      if (scratch_arrival_[f] != 0.0)
        near_link_.push_back(static_cast<std::uint32_t>(scratch_arrival_[f]) -
                             1);
    near_link_off_.push_back(static_cast<std::uint32_t>(near_link_.size()));
  }
  near_arrival_.resize(near_.size());
  std::vector<double>().swap(scratch_arrival_);
}

}  // namespace iddq::est
