#include "core/force_directed.hpp"

#include <algorithm>
#include <vector>

#include "netlist/levelize.hpp"
#include "support/error.hpp"

namespace iddq::core {

part::Partition force_directed_partition(const netlist::Netlist& nl,
                                         std::size_t module_count,
                                         std::size_t passes) {
  const std::size_t n = nl.logic_gate_count();
  require(module_count >= 1 && module_count <= n,
          "force-directed: module count out of range");

  // Initial positions from normalized logic depth; pins at the extremes.
  const netlist::Levels levels = netlist::levelize(nl);
  const double depth_scale =
      levels.max_depth > 0 ? 1.0 / static_cast<double>(levels.max_depth) : 0.0;
  std::vector<double> pos(nl.gate_count(), 0.0);
  std::vector<bool> pinned(nl.gate_count(), false);
  for (netlist::GateId id = 0; id < nl.gate_count(); ++id) {
    pos[id] = static_cast<double>(levels.depth[id]) * depth_scale;
    if (nl.gate(id).kind == netlist::GateKind::kInput) {
      pos[id] = 0.0;
      pinned[id] = true;
    } else if (nl.is_primary_output(id)) {
      pos[id] = 1.0;
      pinned[id] = true;
    }
  }

  // Zero-force relaxation: each free gate moves to the barycentre of its
  // wired neighbours. Gauss-Seidel in ascending id order keeps the sweep
  // deterministic and converges quickly on DAG depths.
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const netlist::GateId g : nl.logic_gates()) {
      if (pinned[g]) continue;
      const netlist::Gate& gate = nl.gate(g);
      double sum = 0.0;
      std::size_t degree = 0;
      for (const netlist::GateId f : gate.fanins) {
        sum += pos[f];
        ++degree;
      }
      for (const netlist::GateId f : gate.fanouts) {
        sum += pos[f];
        ++degree;
      }
      if (degree > 0) pos[g] = sum / static_cast<double>(degree);
    }
  }

  // Sort by (position, id) — the id tie-break makes equal positions (e.g.
  // a fully pinned circuit) deterministic — and slice into K contiguous
  // balanced ranges, remainder gates going to the leading modules.
  std::vector<netlist::GateId> order(nl.logic_gates().begin(),
                                     nl.logic_gates().end());
  std::sort(order.begin(), order.end(),
            [&](netlist::GateId a, netlist::GateId b) {
              if (pos[a] != pos[b]) return pos[a] < pos[b];
              return a < b;
            });

  part::Partition partition(nl.gate_count(), module_count);
  std::size_t next = 0;
  for (std::uint32_t m = 0; m < module_count; ++m) {
    std::size_t size = n / module_count + (m < n % module_count ? 1 : 0);
    for (; size > 0; --size) partition.assign(order[next++], m);
  }
  return partition;
}

OptimizerOutcome run_force(const OptimizerRequest& req,
                           const OptimizerConfig& config) {
  const part::EvalContext& ctx = request_context(req);
  part::PartitionEvaluator eval(
      ctx, force_directed_partition(ctx.nl, request_module_count(req),
                                    config.force_passes));
  OptimizerOutcome out;
  out.method = "force";
  out.fitness = eval.fitness();
  out.costs = eval.costs();
  out.partition = eval.partition();
  out.iterations = config.force_passes;
  out.evaluations = 1;
  report_outcome(req, out);
  return out;
}

}  // namespace iddq::core
