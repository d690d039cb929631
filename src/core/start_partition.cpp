#include "core/start_partition.hpp"

#include <algorithm>
#include <vector>

#include "netlist/levelize.hpp"
#include "support/error.hpp"

namespace iddq::core {

part::Partition make_start_partition(const netlist::Netlist& nl,
                                     std::size_t module_count, Rng& rng,
                                     std::span<const std::size_t> depth) {
  const std::size_t n = nl.logic_gate_count();
  require(module_count >= 1 && module_count <= n,
          "start partition: module count must be in [1, logic gates]");

  std::vector<std::size_t> levelized;
  if (depth.empty()) {
    levelized = netlist::levelize(nl).depth;
    depth = levelized;
  }
  IDDQ_ASSERT(depth.size() == nl.gate_count());
  // Free logic gates, kept sorted by (depth, random tiebreak) lazily: we
  // repeatedly need "a free gate of minimum depth".
  std::vector<netlist::GateId> by_depth(nl.logic_gates().begin(),
                                        nl.logic_gates().end());
  rng.shuffle(by_depth);  // random tie-break among equal depths
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [&](netlist::GateId a, netlist::GateId b) {
                     return depth[a] < depth[b];
                   });
  std::vector<bool> free_gate(nl.gate_count(), false);
  for (const netlist::GateId g : by_depth) free_gate[g] = true;
  std::size_t cursor = 0;  // first possibly-free entry of by_depth

  const auto next_seed = [&]() -> netlist::GateId {
    while (cursor < by_depth.size() && !free_gate[by_depth[cursor]]) ++cursor;
    return cursor < by_depth.size() ? by_depth[cursor] : netlist::kNoGate;
  };

  // Target size: ceil(n / K); the last module absorbs the remainder but the
  // sequential fill guarantees every module gets at least one gate because
  // target >= 1 and gates remain while modules remain.
  const std::size_t target = (n + module_count - 1) / module_count;

  part::Partition partition(nl.gate_count(), module_count);
  std::size_t remaining = n;
  for (std::uint32_t m = 0; m < module_count; ++m) {
    // Leave enough gates for the outstanding modules (one each).
    const std::size_t modules_left = module_count - m - 1;
    const std::size_t quota =
        std::min(target, remaining > modules_left ? remaining - modules_left
                                                  : std::size_t{1});
    std::size_t size = 0;
    netlist::GateId tip = netlist::kNoGate;
    while (size < quota) {
      if (tip == netlist::kNoGate) {
        tip = next_seed();
        if (tip == netlist::kNoGate) break;  // no free gates left
      }
      partition.assign(tip, m);
      free_gate[tip] = false;
      ++size;
      --remaining;
      // Extend the chain toward a primary output via a free fanout.
      netlist::GateId next = netlist::kNoGate;
      const auto& fanouts = nl.gate(tip).fanouts;
      if (!fanouts.empty()) {
        const std::size_t start = rng.index(fanouts.size());
        for (std::size_t i = 0; i < fanouts.size(); ++i) {
          const netlist::GateId cand = fanouts[(start + i) % fanouts.size()];
          if (free_gate[cand]) {
            next = cand;
            break;
          }
        }
      }
      tip = next;  // kNoGate restarts a new chain (PO reached / no free gate)
    }
  }
  IDDQ_ASSERT(remaining == 0);
  IDDQ_ASSERT(partition.covers(nl));
  return partition;
}

}  // namespace iddq::core
