// Shared move neighbourhood of the local-search optimizers.
//
// Simulated annealing (core/annealing.hpp) and tabu search (core/tabu.hpp)
// explore the same neighbourhood as the ES mutation: relocate a boundary
// gate of one module into a neighbouring module it is wired to. Module
// deletion is excluded — a move never empties a module, so K stays fixed at
// the start partition's value and both refiners stay comparable to the ES
// at matched budgets. The boundary gates come from the evaluator
// (PartitionEvaluator::boundary), which keeps a per-gate count of
// connections that cross the cut current across committed moves, so
// drawing a move costs a filter over one module instead of a rescan of its
// fanins and fanouts.
#pragma once

#include "partition/evaluator.hpp"
#include "support/rng.hpp"

namespace iddq::core {

/// Combined violation-penalized scalar objective used by the local-search
/// optimizers (the Metropolis criterion and the tabu candidate ranking both
/// need a single number).
[[nodiscard]] double penalized_objective(part::PartitionEvaluator& eval,
                                         double violation_penalty);

/// The same objective for a *hypothetical* move, via the evaluator's
/// copy-free probe_move() (a one-move probe_moves: apply in place, rescore
/// the two touched modules, roll back): bit-identical to copying `eval`,
/// applying the move, and calling penalized_objective on the copy —
/// without the O(gates + K*grid) copy or a full delay recomputation.
[[nodiscard]] double probe_objective(part::PartitionEvaluator& eval,
                                     const part::Move& move,
                                     double violation_penalty);

/// Fills `targets` with the modules (other than `src`) that gate `g` is
/// wired to, in fanin-then-fanout first-seen order — the shared "where can
/// this gate move" rule of every neighbourhood (the ES mutation, the
/// sampler below and the greedy refiner's scan).
void neighbor_modules(const netlist::Netlist& nl, const part::Partition& p,
                      netlist::GateId g, std::uint32_t src,
                      std::vector<std::uint32_t>& targets);

/// Samples a boundary-gate move that cannot empty a module (K preserved).
/// Returns an invalid move when no candidate is found within the internal
/// attempt limit (e.g. single-module partitions).
[[nodiscard]] part::Move sample_boundary_move(
    const part::PartitionEvaluator& eval, Rng& rng);

}  // namespace iddq::core
