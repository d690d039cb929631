// Evolution strategy for PART-IDDQ (paper section 4).
//
// Rechenberg/Schwefel-style evolution strategy adapted to partitions:
//
//  * Recombination is plain duplication ("just one parent is sufficient for
//    a child", section 4.1).
//  * Mutation: pick a module M_start, determine its boundary gates (gates
//    directly connected to a gate outside M_start), draw
//    m_move ~ U{1..min(m, |boundary|)} and move that many random boundary
//    gates into the (randomly chosen, when several) neighbouring target
//    module they are connected with.
//  * Monte-Carlo descendants: a random number of gates of a random module
//    moves into a random module; emptied modules are deleted. These larger
//    steps reduce the probability of getting caught in a local minimum.
//  * The step width m of each descendant is re-drawn from a normal
//    distribution with std-dev epsilon around the parent's m
//    (self-adaptation).
//  * Selection: out of parents and the (lambda + chi) * mu descendants, the
//    best mu individuals survive; parents older than kappa generations are
//    always retired.
//  * Costs are recomputed incrementally for the modified modules only
//    (PartitionEvaluator); the constraint Gamma is enforced by lexicographic
//    (violation, cost) fitness so infeasible partitions never dominate.
//
// A descendant is a (parent, move list) pair, never an evaluator copy: its
// moves are drawn against the parent's partition, scored in place on the
// parent's evaluator (PartitionEvaluator::probe_moves), and only the <= mu
// survivors are materialized, by copying their parent and replaying the
// moves (docs/architecture.md, "ES children as move lists").
//
// Without an explicit start, the mu start partitions are chain-clustered
// (section 4.2) from the same Rng(seed) stream the search then continues.
#pragma once

#include "core/optimizer.hpp"

namespace iddq::core {

/// Runs the evolution strategy with `config.es`. Reports every generation
/// to req.on_progress and records the trace when req.record_trace is set;
/// iterations are generations. With req.pool, each generation's
/// descendants are scored in parallel; every random draw and every
/// mutation still happens on the coordinator in the fixed serial order,
/// so results are byte-identical at any thread count. Throws iddq::Error
/// for invalid parameters.
[[nodiscard]] OptimizerOutcome run_evolution(const OptimizerRequest& req,
                                             const OptimizerConfig& config);

}  // namespace iddq::core
