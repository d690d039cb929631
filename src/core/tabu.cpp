#include "core/tabu.hpp"

#include <algorithm>
#include <vector>

#include "core/neighborhood.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {

TabuResult tabu_search(const part::EvalContext& ctx,
                       const part::Partition& start,
                       const TabuParams& params) {
  require(params.iterations >= 1, "tabu: need at least one iteration");
  require(params.candidates >= 1, "tabu: need at least one candidate");
  Rng rng(params.seed);
  part::PartitionEvaluator eval(ctx, start);

  TabuResult result;
  double current = penalized_objective(eval, params.violation_penalty);
  ++result.evaluations;
  double best_obj = current;
  result.best_partition = eval.partition();
  result.best_fitness = eval.fitness();
  result.best_costs = eval.costs();

  // tabu_until[g]: first round in which gate g may move again.
  std::vector<std::size_t> tabu_until(ctx.nl.gate_count(), 0);

  struct Candidate {
    part::Move move;
    double objective = 0.0;
  };

  std::size_t stall = 0;
  for (std::size_t round = 1; round <= params.iterations; ++round) {
    if (params.on_round && params.progress_every > 0 && round > 1 &&
        (round - 1) % params.progress_every == 0)
      params.on_round(round - 1, result.evaluations, result.best_fitness);
    // Coordinator phase: sample the candidate neighbourhood (moves
    // deduplicated: one (gate, target) pair appears at most once per
    // round). All RNG draws happen here, in the fixed serial order.
    std::vector<Candidate> candidates;
    candidates.reserve(params.candidates);
    for (std::size_t c = 0; c < params.candidates; ++c) {
      const part::Move mv = sample_boundary_move(eval, rng);
      if (!mv.valid()) continue;
      const bool seen =
          std::any_of(candidates.begin(), candidates.end(),
                      [&](const Candidate& cd) {
                        return cd.move.gate == mv.gate &&
                               cd.move.target == mv.target;
                      });
      if (seen) continue;
      candidates.push_back({mv, 0.0});
    }
    // Worker phase: score every candidate against the round-start state
    // with the copy-free probe (bit-identical to the historical
    // copy + move_gate + penalized_objective recipe, so the whole tabu
    // trajectory reproduces unchanged — the v3 cache-salt bump retired
    // old keys for the greedy re-pin, not for anything here). Serially the shared
    // evaluator is probed directly: zero copies per round. With a pool,
    // the candidate list is sliced into one contiguous block per
    // concurrency slot and each slot probes its block on a single private
    // copy — O(threads) copies per round instead of O(candidates), and
    // each slot writes only its own objectives, so the values are
    // byte-identical at any thread count.
    eval.certify();  // probes fan out from one round-start certificate
    const std::size_t slots =
        params.pool == nullptr || params.pool->worker_count() == 0
            ? 1
            : std::min(candidates.size(), params.pool->concurrency());
    if (slots <= 1) {
      for (Candidate& cd : candidates)
        cd.objective =
            probe_objective(eval, cd.move, params.violation_penalty);
    } else {
      const std::size_t per = (candidates.size() + slots - 1) / slots;
      support::parallel_for_indexed(params.pool, slots, [&](std::size_t s) {
        part::PartitionEvaluator probe = eval;
        const std::size_t end = std::min((s + 1) * per, candidates.size());
        for (std::size_t c = s * per; c < end; ++c)
          candidates[c].objective =
              probe_objective(probe, candidates[c].move,
                              params.violation_penalty);
      });
    }
    result.evaluations += candidates.size();
    if (candidates.empty()) {
      ++result.iterations;
      if (++stall > params.stall_iterations) break;
      continue;
    }

    // Admissible: not tabu, or aspiration (beats the global best). Pick
    // the lowest objective; ties resolve to the earliest sampled candidate
    // so the choice is deterministic.
    const Candidate* chosen = nullptr;
    for (const Candidate& cd : candidates) {
      const bool tabu = tabu_until[cd.move.gate] >= round;
      if (tabu && cd.objective >= best_obj) continue;
      if (chosen == nullptr || cd.objective < chosen->objective) chosen = &cd;
    }
    ++result.iterations;
    if (chosen == nullptr) {
      if (++stall > params.stall_iterations) break;
      continue;
    }

    eval.move_gate(chosen->move.gate, chosen->move.target);
    // Blocked for exactly `tenure` subsequent rounds (the admissibility
    // check treats tabu_until as inclusive).
    tabu_until[chosen->move.gate] = round + params.tenure;
    current = chosen->objective;
    if (current < best_obj) {
      best_obj = current;
      result.best_partition = eval.partition();
      result.best_fitness = eval.fitness();
      result.best_costs = eval.costs();
      stall = 0;
    } else if (++stall > params.stall_iterations) {
      break;
    }
  }
  return result;
}

}  // namespace iddq::core
