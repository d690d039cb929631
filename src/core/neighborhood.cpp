#include "core/neighborhood.hpp"

#include <algorithm>
#include <vector>

namespace iddq::core {

double penalized_objective(part::PartitionEvaluator& eval,
                           double violation_penalty) {
  return eval.costs().total(eval.context().weights) +
         violation_penalty * eval.violation();
}

double probe_objective(part::PartitionEvaluator& eval, const part::Move& move,
                       double violation_penalty) {
  const part::MoveProbe probe = eval.probe_move(move.gate, move.target);
  return probe.costs.total(eval.context().weights) +
         violation_penalty * probe.fitness.violation;
}

void neighbor_modules(const netlist::Netlist& nl, const part::Partition& p,
                      netlist::GateId g, std::uint32_t src,
                      std::vector<std::uint32_t>& targets) {
  targets.clear();
  const auto consider = [&](netlist::GateId f) {
    if (!netlist::is_logic(nl.gate(f).kind)) return;
    const std::uint32_t m = p.module_of(f);
    if (m != src &&
        std::find(targets.begin(), targets.end(), m) == targets.end())
      targets.push_back(m);
  };
  for (const netlist::GateId f : nl.gate(g).fanins) consider(f);
  for (const netlist::GateId f : nl.gate(g).fanouts) consider(f);
}

part::Move sample_boundary_move(const part::PartitionEvaluator& eval,
                              Rng& rng) {
  const auto& nl = eval.context().nl;
  const auto& p = eval.partition();
  std::vector<netlist::GateId> boundary;
  std::vector<std::uint32_t> targets;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto src = static_cast<std::uint32_t>(rng.index(p.module_count()));
    if (p.module_size(src) <= 1) continue;  // would empty the module
    eval.boundary(src, boundary);
    if (boundary.empty()) continue;
    const netlist::GateId g = boundary[rng.index(boundary.size())];
    neighbor_modules(nl, p, g, src, targets);
    if (targets.empty()) continue;
    return part::Move{g, targets[rng.index(targets.size())]};
  }
  return part::Move{};
}

}  // namespace iddq::core
