// Simulated-annealing baseline optimizer.
//
// Section 4 of the paper lists simulated annealing among the applicable
// heuristics before choosing the evolution strategy; this implementation
// provides the comparison point (bench/ablation_baselines) under the same
// cost model and a matched evaluation budget.
//
// Moves are boundary-biased gate relocations (the same neighbourhood as the
// ES mutation); module deletion is excluded so K stays fixed at the start
// partition's value — the annealer refines gate placement, matching how the
// baseline comparison is set up. Infeasibility is folded into the objective
// with a large penalty so the Metropolis criterion remains scalar.
#pragma once

#include "core/optimizer.hpp"

namespace iddq::core {

/// Anneals from request_start(req) with `config.sa`; a request budget
/// replaces `steps`. Reports to req.on_progress every 1000 steps;
/// iterations and evaluations both count scored moves. Throws iddq::Error
/// for invalid parameters.
[[nodiscard]] OptimizerOutcome run_annealing(const OptimizerRequest& req,
                                             const OptimizerConfig& config);

}  // namespace iddq::core
