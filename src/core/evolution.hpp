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
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "partition/evaluator.hpp"
#include "support/rng.hpp"

namespace iddq::support {
class ExecutorPool;
}

namespace iddq::core {

struct GenerationStats;

/// Per-generation observer (live --progress, JobEvent::progress). Called
/// after selection, every generation; must not mutate anything the search
/// reads — it cannot affect the trajectory, only report it.
using GenerationCallback = std::function<void(const GenerationStats&)>;

struct EsParams {
  std::size_t mu = 8;        // parents
  std::size_t lambda = 7;    // mutation children per parent
  std::size_t chi = 2;       // Monte-Carlo descendants per parent
  std::size_t kappa = 8;     // maximum lifetime, generations
  std::uint32_t m0 = 4;      // initial step width (max gates per mutation)
  std::uint32_t m_max = 64;  // hard cap on the step width
  double epsilon = 1.0;      // std-dev of the step-width mutation
  std::size_t max_generations = 300;
  std::size_t stall_generations = 40;  // stop after this many without gain
  std::uint64_t seed = 1;
  bool record_trace = false;
  /// Like seed/record_trace, a per-run field, not a tuning knob: excluded
  /// from the result-cache context fingerprint.
  GenerationCallback on_generation;
  /// Evaluates the descendants of each generation in parallel when set
  /// (nullptr = serial). Every random draw and every mutation happens on
  /// the coordinator thread in the fixed single-threaded order — workers
  /// only score finished move lists, each parent's children on that
  /// parent's own evaluator, into pre-indexed slots — so results are
  /// byte-identical at any thread count, including to the historical
  /// serial trajectory. Per-run field like seed, excluded from the cache
  /// fingerprint.
  support::ExecutorPool* pool = nullptr;
};

struct GenerationStats {
  std::size_t generation = 0;
  part::Fitness best;
  double mean_cost = 0.0;      // over surviving parents
  std::size_t module_count = 0;  // of the best individual
  std::uint32_t best_step_width = 0;
  std::size_t evaluations = 0;  // cumulative, whole run
};

struct EsResult {
  part::Partition best_partition{1, 1};
  part::Fitness best_fitness;
  part::Costs best_costs;
  std::size_t generations = 0;
  std::size_t evaluations = 0;
  std::vector<GenerationStats> trace;
};

class EvolutionEngine {
 public:
  EvolutionEngine(const part::EvalContext& ctx, EsParams params);

  /// Runs from explicit start partitions (their number may differ from mu;
  /// they are cycled/varied to fill the initial population).
  [[nodiscard]] EsResult run(std::span<const part::Partition> starts);

  /// Convenience: builds mu chain-clustered start partitions with
  /// `module_count` modules (section 4.2) and runs.
  [[nodiscard]] EsResult run_with_module_count(std::size_t module_count);

 private:
  struct Individual {
    part::PartitionEvaluator eval;
    part::Fitness fitness;
    part::Costs costs;
    std::uint32_t step_width = 1;
    std::size_t age = 0;
  };

  /// Draws one descendant's moves against `p` (the parent's partition,
  /// under a journal the caller rolls back), applying each to `p` and
  /// appending it to `moves`. The start module's boundary comes from
  /// `parent`, whose partition `p` equals (gate order included) until the
  /// first move.
  void mutate(part::Partition& p, const part::PartitionEvaluator& parent,
              std::uint32_t step_width, std::vector<part::Move>& moves);
  void monte_carlo(part::Partition& p, std::vector<part::Move>& moves);
  [[nodiscard]] std::uint32_t vary_step_width(std::uint32_t m);

  const part::EvalContext* ctx_;
  EsParams params_;
  Rng rng_;
};

}  // namespace iddq::core
