#include "core/refiner.hpp"

#include <algorithm>
#include <vector>

#include "core/neighborhood.hpp"
#include "support/executor.hpp"

namespace iddq::core {

namespace {

/// One (gate -> target) trial of the scan, in strict serial order.
struct Candidate {
  std::size_t gate_pos = 0;  // index into the boundary list (walk ordering)
  netlist::GateId gate = netlist::kNoGate;
  std::uint32_t target = 0;
  part::Fitness fitness;  // filled by the scoring phase (eager mode only)
};

}  // namespace

RefineResult greedy_refine(part::PartitionEvaluator& eval,
                           std::size_t max_evaluations,
                           support::ExecutorPool* pool) {
  RefineResult result;
  part::Fitness current = eval.fitness();
  ++result.evaluations;

  // Probes are stateless, so every trial of a scan segment scores against
  // the same committed state — which is what makes the scan speculatively
  // parallelizable: with a pool, a window of upcoming candidates is scored
  // eagerly (one private evaluator copy per concurrency slot), then the
  // serial first-improvement walk replays over the scores. Serially the
  // walk probes lazily (zero copies, zero speculation). Both paths visit
  // candidates in the same order with the same scores, so results are
  // byte-identical at any thread count.
  const std::size_t slots =
      pool == nullptr || pool->worker_count() == 0 ? 1 : pool->concurrency();
  std::vector<Candidate> window;
  std::vector<std::uint32_t> targets;

  bool improved = true;
  while (improved && result.evaluations < max_evaluations) {
    improved = false;
    for (std::uint32_t m = 0;
         m < eval.partition().module_count() &&
         result.evaluations < max_evaluations;
         ++m) {
      if (eval.partition().module_size(m) <= 1) continue;  // keep K fixed
      const auto boundary =
          boundary_gates(eval.context().nl, eval.partition(), m);
      std::size_t pos = 0;
      bool module_done = false;
      while (pos < boundary.size() && !module_done) {
        if (eval.partition().module_size(m) <= 1) break;
        // Collect the next window of candidates against the current state
        // (no commit happens until the walk below decides, so the state is
        // valid for every candidate in the window).
        window.clear();
        std::size_t next_pos = pos;
        std::size_t window_gates = 0;
        const std::size_t max_window_gates = slots <= 1 ? 1 : 4 * slots;
        while (next_pos < boundary.size() && window_gates < max_window_gates) {
          const netlist::GateId g = boundary[next_pos];
          ++next_pos;
          if (eval.partition().module_of(g) != m) continue;  // moved already
          neighbor_modules(eval.context().nl, eval.partition(), g, m,
                           targets);
          if (targets.empty()) continue;
          ++window_gates;
          for (const std::uint32_t target : targets)
            window.push_back({next_pos - 1, g, target, {}});
        }
        if (window.empty()) {
          pos = next_pos;
          continue;
        }
        if (slots > 1) {
          eval.certify();  // worker copies share one certificate
          const std::size_t per = (window.size() + slots - 1) / slots;
          support::parallel_for_indexed(
              pool, std::min(slots, window.size()), [&](std::size_t s) {
                part::PartitionEvaluator probe = eval;
                const std::size_t end =
                    std::min((s + 1) * per, window.size());
                for (std::size_t c = s * per; c < end; ++c)
                  window[c].fitness =
                      probe.probe_move(window[c].gate, window[c].target)
                          .fitness;
              });
        }
        // First-improvement walk in strict candidate order. The budget is
        // checked when entering a gate, exactly like the sequential scan;
        // scored candidates past the stopping point are discarded.
        std::size_t walk_gate = static_cast<std::size_t>(-1);
        bool committed = false;
        for (const Candidate& cand : window) {
          if (cand.gate_pos != walk_gate) {
            if (result.evaluations >= max_evaluations) {
              module_done = true;
              break;
            }
            walk_gate = cand.gate_pos;
          }
          const part::Fitness f =
              slots > 1 ? cand.fitness
                        : eval.probe_move(cand.gate, cand.target).fitness;
          ++result.evaluations;
          if (f < current) {
            eval.move_gate(cand.gate, cand.target);
            current = f;
            ++result.moves_applied;
            improved = true;
            committed = true;
            pos = cand.gate_pos + 1;  // rescan later gates against the
            break;                    // post-commit state
          }
        }
        if (!committed && !module_done) pos = next_pos;
      }
    }
  }
  result.final_fitness = current;
  return result;
}

}  // namespace iddq::core
