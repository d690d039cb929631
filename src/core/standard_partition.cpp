#include "core/standard_partition.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "netlist/levelize.hpp"
#include "support/error.hpp"

namespace iddq::core {

namespace {

// A free gate's discounts at the moment they last changed, plus its
// position in nl.logic_gates(). Heap entries are lazy: a gate whose
// discounts moved on since the push is recognised on pop and skipped.
struct Candidate {
  std::uint32_t cluster;  // discount_cluster
  std::uint32_t free;     // discount_free
  std::uint32_t position;
};

// Max-heap order putting the scan's pick on top: largest cluster discount,
// then smallest free discount, then the earliest position (the scan keeps
// the first of equals).
bool ranks_below(const Candidate& a, const Candidate& b) {
  if (a.cluster != b.cluster) return a.cluster < b.cluster;
  if (a.free != b.free) return a.free > b.free;
  return a.position > b.position;
}

}  // namespace

part::Partition standard_partition(const netlist::Netlist& nl,
                                   const netlist::DistanceOracle& oracle,
                                   std::span<const std::size_t> module_sizes,
                                   std::span<const std::size_t> depth) {
  const std::size_t n = nl.logic_gate_count();
  const std::size_t total =
      std::accumulate(module_sizes.begin(), module_sizes.end(),
                      std::size_t{0});
  require(total == n, "standard partition: module sizes must sum to " +
                          std::to_string(n) + " (got " +
                          std::to_string(total) + ")");
  for (const std::size_t s : module_sizes)
    require(s >= 1, "standard partition: zero-size module requested");

  const auto logic = nl.logic_gates();
  std::vector<std::size_t> levelized;
  if (depth.empty()) {
    levelized = netlist::levelize(nl).depth;
    depth = levelized;
  }
  IDDQ_ASSERT(depth.size() == nl.gate_count());
  const std::uint32_t rho = oracle.rho();

  std::vector<std::uint32_t> position(nl.gate_count(), 0);
  std::vector<bool> free_gate(nl.gate_count(), false);
  for (std::uint32_t i = 0; i < n; ++i) {
    position[logic[i]] = i;
    free_gate[logic[i]] = true;
  }

  // discount_cluster[c]: sum over clustered gates h near c of (rho - d(c,h));
  // the sum of path lengths to the cluster is |cluster|*rho - discount.
  // discount_free[c]: same against the free set, for the tie-break
  // (maximising path lengths to unclustered == minimising discount_free).
  // Both are kept for free gates only; every change raises the first and
  // lowers the second by a weight >= 1, so a heap entry whose discounts
  // equal the gate's current ones is the gate's latest.
  std::vector<std::uint32_t> discount_cluster(nl.gate_count(), 0);
  std::vector<std::uint32_t> discount_free(nl.gate_count(), 0);
  for (const netlist::GateId g : logic) {
    std::uint64_t weight = 0;
    for (const auto& [neighbor, distance] : oracle.near(g))
      if (free_gate[neighbor]) weight += rho - distance;
    // A gate's two discounts always sum to at most this total.
    require(weight <= UINT32_MAX,
            "standard partition: separation discounts overflow 32 bits");
    discount_free[g] = static_cast<std::uint32_t>(weight);
  }

  const auto candidate = [&](netlist::GateId g) {
    return Candidate{discount_cluster[g], discount_free[g], position[g]};
  };
  const auto push = [](std::vector<Candidate>& heap, const Candidate& c) {
    heap.push_back(c);
    std::push_heap(heap.begin(), heap.end(), ranks_below);
  };
  const auto is_current = [&](const Candidate& c) {
    const netlist::GateId g = logic[c.position];
    return free_gate[g] && discount_cluster[g] == c.cluster &&
           discount_free[g] == c.free;
  };
  // Pops until the top entry is current; returns its gate, or kNoGate
  // once the heap is exhausted.
  const auto pop_current = [&](std::vector<Candidate>& heap) {
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), ranks_below);
      const Candidate c = heap.back();
      heap.pop_back();
      if (is_current(c)) return logic[c.position];
    }
    return netlist::kNoGate;
  };

  // Seeds: free gates as near to a primary input as possible, first in
  // logic-gate order among equals — a cursor over (depth, position).
  std::vector<std::uint32_t> seed_order(n);
  std::iota(seed_order.begin(), seed_order.end(), 0u);
  std::stable_sort(seed_order.begin(), seed_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return depth[logic[a]] < depth[logic[b]];
                   });
  std::size_t seed_cursor = 0;

  // near_cluster: the free gates near the current module (discount_cluster
  // > 0), cleared per module. far: every free gate with its discount_free
  // as of the last module that touched it; when no free gate is near the
  // cluster, all free gates have discount_cluster == 0 and the current
  // entries of `far` rank exactly as the scan would.
  std::vector<Candidate> near_cluster;
  std::vector<Candidate> far;
  far.reserve(n);
  for (const netlist::GateId g : logic) far.push_back(candidate(g));
  std::make_heap(far.begin(), far.end(), ranks_below);
  std::vector<netlist::GateId> touched;  // gates near the current module

  part::Partition partition(nl.gate_count(), module_sizes.size());

  std::size_t free_count = n;
  const auto add_to_cluster = [&](netlist::GateId g, std::uint32_t m) {
    partition.assign(g, m);
    free_gate[g] = false;
    --free_count;
    for (const auto& [neighbor, distance] : oracle.near(g)) {
      if (!free_gate[neighbor]) continue;
      const std::uint32_t weight = rho - distance;
      if (discount_cluster[neighbor] == 0) touched.push_back(neighbor);
      discount_cluster[neighbor] += weight;  // g joined the cluster
      discount_free[neighbor] -= weight;     // g left the free set
      push(near_cluster, candidate(neighbor));
    }
  };

  for (std::uint32_t m = 0; m < module_sizes.size(); ++m) {
    while (!free_gate[logic[seed_order[seed_cursor]]]) ++seed_cursor;
    add_to_cluster(logic[seed_order[seed_cursor]], m);

    for (std::size_t added = 1; added < module_sizes[m]; ++added) {
      // argmin over free gates of sum-to-cluster == argmax discount_cluster;
      // tie-break: argmax sum-to-free == argmin discount_free.
      netlist::GateId best = pop_current(near_cluster);
      if (best == netlist::kNoGate) best = pop_current(far);
      IDDQ_ASSERT(best != netlist::kNoGate);
      add_to_cluster(best, m);
    }

    // Reset cluster discounts for the next module. The gates this module
    // touched have a new discount_free: each still free gets a current
    // entry in `far`.
    for (const netlist::GateId g : touched) {
      discount_cluster[g] = 0;
      if (free_gate[g]) push(far, candidate(g));
    }
    touched.clear();
    near_cluster.clear();
    // Stale entries of clustered or re-entered gates are only dropped when
    // popped; compact once they outnumber the current ones (one per free
    // gate), so `far` stays O(n). Each compaction removes at least half
    // of what it scans, so its cost is amortized over the pushes.
    if (far.size() > 2 * free_count) {
      std::erase_if(far, [&](const Candidate& c) { return !is_current(c); });
      std::make_heap(far.begin(), far.end(), ranks_below);
    }
  }
  IDDQ_ASSERT(free_count == 0);
  IDDQ_ASSERT(partition.covers(nl));
  return partition;
}

OptimizerOutcome run_standard(const OptimizerRequest& req,
                              const OptimizerConfig& /*config*/) {
  const part::EvalContext& ctx = request_context(req);
  std::vector<std::size_t> sizes;
  if (req.start) {
    sizes.reserve(req.start->module_count());
    for (std::uint32_t m = 0; m < req.start->module_count(); ++m)
      sizes.push_back(req.start->module_size(m));
  } else {
    const std::size_t k = request_module_count(req);
    const std::size_t n = ctx.nl.logic_gate_count();
    require(k >= 1 && k <= n,
            "standard partitioning: module count out of range");
    sizes.assign(k, n / k);
    for (std::size_t i = 0; i < n % k; ++i) ++sizes[i];
  }
  part::PartitionEvaluator eval(
      ctx, standard_partition(ctx.nl, ctx.oracle, sizes,
                              ctx.timing_graph.depths()));
  OptimizerOutcome out;
  out.method = "standard";
  out.fitness = eval.fitness();
  out.costs = eval.costs();
  out.partition = eval.partition();
  out.iterations = 1;
  out.evaluations = 1;
  report_outcome(req, out);
  return out;
}

}  // namespace iddq::core
