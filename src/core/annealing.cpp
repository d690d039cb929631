#include "core/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/neighborhood.hpp"
#include "support/error.hpp"

namespace iddq::core {

SaResult simulated_annealing(const part::EvalContext& ctx,
                             const part::Partition& start,
                             const SaParams& params) {
  require(params.steps >= 1, "annealing: need at least one step");
  require(params.cooling > 0.0 && params.cooling < 1.0,
          "annealing: cooling factor must be in (0,1)");
  Rng rng(params.seed);
  part::PartitionEvaluator eval(ctx, start);

  SaResult result;
  double current = penalized_objective(eval, params.violation_penalty);
  ++result.evaluations;
  double best_obj = current;
  result.best_partition = eval.partition();
  result.best_fitness = eval.fitness();
  result.best_costs = eval.costs();

  // Calibrate T0: sample a handful of moves and pick T so the mean uphill
  // delta is accepted with `initial_acceptance`.
  double t0 = 1.0;
  {
    std::vector<double> uphill;
    part::PartitionEvaluator probe = eval;
    for (int i = 0; i < 24; ++i) {
      const part::Move mv = sample_boundary_move(probe, rng);
      if (!mv.valid()) continue;
      const std::uint32_t src = probe.partition().module_of(mv.gate);
      probe.move_gate(mv.gate, mv.target);
      const double obj = penalized_objective(probe, params.violation_penalty);
      if (obj > current) uphill.push_back(obj - current);
      probe.move_gate(mv.gate, src);  // revert (module cannot have vanished)
    }
    if (!uphill.empty()) {
      double mean = 0.0;
      for (const double d : uphill) mean += d;
      mean /= static_cast<double>(uphill.size());
      t0 = -mean / std::log(params.initial_acceptance);
    }
  }

  double temperature = t0;
  for (std::size_t step = 0; step < params.steps; ++step) {
    if (step > 0 && step % params.stage_length == 0)
      temperature *= params.cooling;
    if (params.on_step && params.progress_every > 0 && step > 0 &&
        step % params.progress_every == 0)
      params.on_step(step, result.evaluations, result.best_fitness);
    const part::Move mv = sample_boundary_move(eval, rng);
    if (!mv.valid()) continue;
    const std::uint32_t src = eval.partition().module_of(mv.gate);
    // Copy-free probing: score the move without committing it. The probe
    // is bit-identical to the historical move-then-evaluate sequence, and
    // the RNG draw order below is unchanged.
    const double proposed = probe_objective(eval, mv, params.violation_penalty);
    ++result.evaluations;
    const double delta = proposed - current;
    const bool accept =
        delta <= 0.0 ||
        rng.uniform() < std::exp(-delta / std::max(temperature, 1e-12));
    if (accept) {
      eval.move_gate(mv.gate, mv.target);
      current = proposed;
      ++result.accepted;
      if (current < best_obj) {
        best_obj = current;
        result.best_partition = eval.partition();
        result.best_fitness = eval.fitness();
        result.best_costs = eval.costs();
      }
    } else {
      // State parity with the historical trajectory: the pre-probe code
      // applied the move and reverted it, leaving floating-point residue
      // in the running sums that the rest of the chain (and the pinned
      // caches/bench rows) depends on. Replay exactly that arithmetic —
      // the expensive full evaluation in between is what the probe
      // eliminated.
      eval.move_gate(mv.gate, mv.target);
      eval.move_gate(mv.gate, src);
    }
  }
  return result;
}

}  // namespace iddq::core
