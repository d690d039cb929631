// Greedy first-improvement refiner.
//
// Deterministic hill climbing over the ES mutation neighbourhood (boundary
// gate -> adjacent module): scans boundary gates in order, applies any move
// that improves the lexicographic fitness, and stops when a full sweep finds
// none (a local optimum of the 1-move neighbourhood) or the evaluation
// budget is exhausted. Serves both as an optimizer baseline and as an
// optional polish pass after the ES.
//
// Candidates are scored with the evaluator's copy-free probe_move, which
// applies the move in place and restores every touched module slot from a
// snapshot, so a rejected trial leaves NO trace in the running sums. This
// is a deliberate re-pin versus the historical move-then-evaluate-then-
// revert scan, whose rejected trials chained floating-point residue through
// the sums (making every trial depend on all earlier ones — inherently
// sequential); the residue-free trajectory is what lets the scan
// parallelize, and the result-cache salt was bumped to v3 so old
// greedy-family rows cannot replay (src/core/result_cache.cpp). With an
// ExecutorPool the scan speculatively scores a window of upcoming
// candidates in parallel (one private evaluator copy per concurrency slot)
// and then replays the serial first-improvement walk over the scores, so
// the applied moves, evaluation counts, and every double are byte-identical
// at any thread count; candidates past the first improvement are discarded
// (wasted speculative work, never wrong results).
#pragma once

#include "core/optimizer.hpp"

namespace iddq::core {

/// Refines request_start(req) until a local optimum or the evaluation
/// budget (`config.greedy_max_evaluations`, replaced by a request budget)
/// is reached. iterations count the applied moves. req.pool parallelizes
/// the candidate scan; results are pool-invariant.
[[nodiscard]] OptimizerOutcome run_greedy(const OptimizerRequest& req,
                                          const OptimizerConfig& config);

}  // namespace iddq::core
