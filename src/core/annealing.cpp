#include "core/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/neighborhood.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {

OptimizerOutcome run_annealing(const OptimizerRequest& req,
                               const OptimizerConfig& config) {
  constexpr std::size_t kProgressEvery = 1000;  // steps between live ticks
  const SaParams& params = config.sa;
  const std::size_t steps =
      req.max_evaluations > 0 ? req.max_evaluations : params.steps;
  require(steps >= 1, "annealing: need at least one step");
  require(params.cooling > 0.0 && params.cooling < 1.0,
          "annealing: cooling factor must be in (0,1)");
  // The start (when drawn) and the search each use a fresh Rng(seed).
  part::PartitionEvaluator eval(request_context(req), request_start(req));
  Rng rng(req.seed);

  OptimizerOutcome result;
  result.method = "annealing";
  double current = penalized_objective(eval, params.violation_penalty);
  ++result.evaluations;
  double best_obj = current;
  result.partition = eval.partition();
  result.fitness = eval.fitness();
  result.costs = eval.costs();

  // Calibrate T0: sample a handful of moves and pick T so the mean uphill
  // delta is accepted with `initial_acceptance`.
  double t0 = 1.0;
  {
    std::vector<double> uphill;
    eval.certify();  // the calibration copy shares the certificate
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
  for (std::size_t step = 0; step < steps; ++step) {
    if (step > 0 && step % params.stage_length == 0)
      temperature *= params.cooling;
    if (req.on_progress && step > 0 && step % kProgressEvery == 0)
      req.on_progress({result.method, step, result.evaluations,
                       result.fitness});
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
      if (current < best_obj) {
        best_obj = current;
        result.partition = eval.partition();
        result.fitness = eval.fitness();
        result.costs = eval.costs();
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
  result.iterations = result.evaluations;
  report_outcome(req, result);
  return result;
}

}  // namespace iddq::core
