// Tabu search over partition moves.
//
// Best-of-neighbourhood local search with a recency-based tabu attribute:
// each iteration samples a small candidate set of boundary-gate moves
// (core/neighborhood.hpp — the same neighbourhood as the ES mutation and
// the annealer), evaluates every candidate, and applies the best one whose
// gate is not tabu. A gate that just moved may not move again for `tenure`
// iterations, which lets the search climb out of the local optima that trap
// the greedy refiner; the aspiration criterion overrides the tabu when a
// candidate beats the best objective seen so far. K stays fixed at the
// start partition's value (moves never empty a module).
//
// Fully deterministic at a fixed seed: candidate sampling is the only
// stochastic element and draws from the explicit Rng.
#pragma once

#include "core/optimizer.hpp"

namespace iddq::core {

/// Runs tabu search from request_start(req) with `config.tabu`; a request
/// budget replaces `iterations` with max(1, budget / candidates) rounds.
/// Reports to req.on_progress every 25 rounds; iterations are rounds.
///
/// With req.pool, each round's candidate set is scored in parallel. The
/// candidate moves are sampled on the coordinator (all RNG draws, fixed
/// order); each candidate is then scored against the round-start state
/// with the copy-free probe_move — serially on the shared evaluator, or on
/// one private copy per concurrency slot when a pool is set. Probe scores
/// are bit-identical to the historical copy + move recipe, so the whole
/// search is byte-identical at any thread count. Throws iddq::Error for
/// invalid parameters.
[[nodiscard]] OptimizerOutcome run_tabu(const OptimizerRequest& req,
                                        const OptimizerConfig& config);

}  // namespace iddq::core
