#include "core/evolution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/neighborhood.hpp"
#include "core/start_partition.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {

namespace {

/// Applies a move to the coordinator's draft partition exactly as
/// PartitionEvaluator::move_gate does (an emptied source module is
/// erased) and records it for scoring and replay.
void apply_move(part::Partition& p, netlist::GateId g, std::uint32_t target,
                std::vector<part::Move>& moves) {
  const std::uint32_t src = p.module_of(g);
  p.move(g, target);
  if (p.module_size(src) == 0) p.erase_empty_module(src);
  moves.push_back(part::Move{g, target});
}

struct Individual {
  part::PartitionEvaluator eval;
  part::Fitness fitness;
  part::Costs costs;
  std::uint32_t step_width = 1;
  std::size_t age = 0;
};

// The random operators below draw from the run's one Rng stream, which
// also draws the start partitions.

std::uint32_t vary_step_width(Rng& rng, const EsParams& params,
                              std::uint32_t m) {
  const double varied = rng.normal(static_cast<double>(m), params.epsilon);
  const auto rounded = static_cast<std::int64_t>(std::llround(varied));
  if (rounded < 1) return 1;
  if (rounded > static_cast<std::int64_t>(params.m_max)) return params.m_max;
  return static_cast<std::uint32_t>(rounded);
}

/// Draws one descendant's moves against `p` (the parent's partition,
/// under a journal the caller rolls back), applying each to `p` and
/// appending it to `moves`. The start module's boundary comes from
/// `parent`, whose partition `p` equals (gate order included) until the
/// first move.
void mutate(Rng& rng, part::Partition& p,
            const part::PartitionEvaluator& parent, std::uint32_t step_width,
            std::vector<part::Move>& moves) {
  if (p.module_count() < 2) return;  // nothing to move between

  // Pick a start module that has boundary gates (every module of a
  // connected partition has some; guard against pathological cases).
  std::vector<netlist::GateId> boundary;
  std::uint32_t m_start = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    m_start = static_cast<std::uint32_t>(rng.index(p.module_count()));
    parent.boundary(m_start, boundary);
    if (!boundary.empty()) break;
  }
  if (boundary.empty()) return;

  const std::uint64_t cap =
      std::min<std::uint64_t>(step_width, boundary.size());
  const std::size_t m_move = 1 + static_cast<std::size_t>(rng.below(cap));
  rng.shuffle(boundary);
  boundary.resize(m_move);

  std::vector<std::uint32_t> targets;
  for (const netlist::GateId g : boundary) {
    // The gate moves into a random neighbouring module it connects with.
    // (Earlier moves of this mutation may have changed memberships, so the
    // neighbour set is recomputed per gate.)
    neighbor_modules(parent.context().nl, p, g, p.module_of(g), targets);
    if (targets.empty()) continue;  // became interior; skip
    apply_move(p, g, targets[rng.index(targets.size())], moves);
    if (p.module_count() < 2) break;
  }
}

void monte_carlo(Rng& rng, part::Partition& p,
                 std::vector<part::Move>& moves) {
  if (p.module_count() < 2) return;
  const auto src = static_cast<std::uint32_t>(rng.index(p.module_count()));
  std::uint32_t dst = src;
  while (dst == src)
    dst = static_cast<std::uint32_t>(rng.index(p.module_count()));
  const std::size_t count =
      1 + static_cast<std::size_t>(rng.below(p.module_size(src)));
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t remaining = p.module_size(src);
    if (remaining == 0) break;  // module was emptied and deleted
    apply_move(p, p.module(src)[rng.index(remaining)], dst, moves);
    if (p.module_count() < 2) break;
    // If the source module was deleted, its slot may now hold another
    // module; stop moving in that case (the paper deletes the module and
    // the descendant is complete).
    if (remaining == 1) break;
  }
}

}  // namespace

OptimizerOutcome run_evolution(const OptimizerRequest& req,
                               const OptimizerConfig& config) {
  const part::EvalContext& ctx = request_context(req);
  const EsParams& params = config.es;
  require(params.mu >= 1, "evolution: mu must be >= 1");
  require(params.lambda + params.chi >= 1,
          "evolution: need at least one descendant per parent");
  require(params.m0 >= 1 && params.m0 <= params.m_max,
          "evolution: step width out of range");
  require(params.kappa >= 1, "evolution: kappa must be >= 1");
  Rng rng(req.seed);

  // An explicit start seeds every parent; otherwise mu chain-clustered
  // starts (section 4.2) come first in the run's Rng stream.
  std::vector<part::Partition> drawn;
  if (!req.start) {
    const std::size_t module_count = request_module_count(req);
    drawn.reserve(params.mu);
    for (std::size_t i = 0; i < params.mu; ++i)
      drawn.push_back(make_start_partition(ctx.nl, module_count, rng,
                                           ctx.timing_graph.depths()));
  }
  const std::span<const part::Partition> starts =
      req.start ? std::span<const part::Partition>(&*req.start, 1)
                : std::span<const part::Partition>(drawn);

  std::vector<Individual> parents;
  parents.reserve(params.mu);
  for (std::size_t i = 0; i < params.mu; ++i) {
    part::PartitionEvaluator eval(ctx, starts[i % starts.size()]);
    parents.push_back(Individual{std::move(eval), {}, {}, params.m0, 0});
  }
  // Scoring consumes no randomness and touches only the individual's own
  // evaluator, so the initial population (and every generation's children
  // below) evaluates in parallel without perturbing the trajectory.
  support::parallel_for_indexed(req.pool, parents.size(),
                                [&parents](std::size_t i) {
                                  parents[i].fitness =
                                      parents[i].eval.fitness();
                                  parents[i].costs = parents[i].eval.costs();
                                });

  OptimizerOutcome result;
  result.method = "evolution";
  result.evaluations = parents.size();
  std::size_t first_best = 0;
  for (std::size_t i = 1; i < parents.size(); ++i)
    if (parents[i].fitness < parents[first_best].fitness) first_best = i;
  result.partition = parents[first_best].eval.partition();
  result.fitness = parents[first_best].fitness;
  result.costs = parents[first_best].costs;

  // A descendant: its parent, its slice of `moves`, and its score — the
  // violation alone until `scored`, the full probe after.
  struct Child {
    std::size_t parent = 0;
    std::size_t first_move = 0;
    std::size_t move_count = 0;
    std::uint32_t step_width = 1;
    part::MoveProbe score;
    bool scored = false;
  };
  // A selection candidate: a child (index < children.size()) or a
  // retained parent (index - children.size()).
  struct Candidate {
    part::Fitness fitness;
    std::size_t index = 0;
  };
  const std::size_t per_parent = params.lambda + params.chi;
  std::vector<Child> children;
  std::vector<part::Move> moves;
  std::vector<Candidate> pool;
  std::vector<double> violations;
  part::Partition draft(1, 1);
  std::size_t stall = 0;

  const auto child_moves = [&moves](const Child& child) {
    return std::span<const part::Move>(moves).subspan(child.first_move,
                                                      child.move_count);
  };
  // Runs fn(child, its parent's evaluator) over every child: each parent's
  // children on one worker, which owns that evaluator — the same path at
  // any pool size. Scoring consumes no randomness.
  const auto for_each_child = [&](auto&& fn) {
    support::parallel_for_indexed(
        req.pool, parents.size(), [&](std::size_t pi) {
          for (std::size_t c = pi * per_parent; c < (pi + 1) * per_parent;
               ++c)
            fn(children[c], parents[pi].eval);
        });
  };
  // Fully scores every child not yet scored whose violation is at most
  // `cutoff`.
  const auto score_children = [&](double cutoff) {
    for_each_child([&](Child& child, part::PartitionEvaluator& eval) {
      if (child.scored || child.score.fitness.violation > cutoff) return;
      child.score = eval.probe_moves(child_moves(child));
      child.scored = true;
    });
  };
  // The scored children and the retained parents, in the historical pool
  // order (each parent's children, then the parent itself unless it has
  // reached the maximum lifetime), sorted by fitness.
  const auto rank_pool = [&] {
    pool.clear();
    for (std::size_t pi = 0; pi < parents.size(); ++pi) {
      for (std::size_t c = pi * per_parent; c < (pi + 1) * per_parent; ++c)
        if (children[c].scored)
          pool.push_back(Candidate{children[c].score.fitness, c});
      if (parents[pi].age < params.kappa)
        pool.push_back(
            Candidate{parents[pi].fitness, children.size() + pi});
    }
    std::sort(pool.begin(), pool.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.fitness < b.fitness;
              });
  };

  for (std::size_t gen = 0; gen < params.max_generations; ++gen) {
    // Coordinator phase: every RNG draw (step widths, mutation moves)
    // happens here, in the fixed serial order, against a journaled draft
    // of the parent's partition that rolls back after each child.
    children.clear();
    moves.clear();
    for (std::size_t pi = 0; pi < parents.size(); ++pi) {
      Individual& parent = parents[pi];
      parent.age += 1;
      draft = parent.eval.partition();
      for (std::size_t c = 0; c < per_parent; ++c) {
        Child child;
        child.parent = pi;
        child.first_move = moves.size();
        child.step_width = vary_step_width(rng, params, parent.step_width);
        draft.begin_journal();
        if (c < params.lambda)
          mutate(rng, draft, parent.eval, child.step_width, moves);
        else
          monte_carlo(rng, draft, moves);
        draft.rollback();
        child.move_count = moves.size() - child.first_move;
        children.push_back(child);
      }
    }
    result.evaluations += children.size();

    // Worker phase, in two passes. Selection ranks by violation first
    // (section 4.2), and a child's violation costs O(moves + K) where its
    // full score costs a profile, delay and timing update per move. So the
    // first pass takes every child's violation, and the second fully
    // scores only the children at or below `cutoff`, the mu-th smallest
    // violation among the children and the retained parents: a child above
    // it ranks below at least mu candidates, so it cannot survive.
    for_each_child([&](Child& child, part::PartitionEvaluator& eval) {
      child.score.fitness.violation = eval.probe_violation(child_moves(child));
    });
    violations.clear();
    for (const Child& child : children)
      violations.push_back(child.score.fitness.violation);
    for (const Individual& parent : parents)
      if (parent.age < params.kappa)
        violations.push_back(parent.fitness.violation);
    double cutoff = std::numeric_limits<double>::infinity();
    if (violations.size() > params.mu) {
      std::nth_element(violations.begin(), violations.begin() + (params.mu - 1),
                       violations.end());
      cutoff = violations[params.mu - 1];
    }
    score_children(cutoff);

    // Selection. Every skipped child ranks strictly below each of the top
    // mu contenders, and when the first mu + 1 sorted contenders strictly
    // increase, the top mu and their order are the only sorted prefix any
    // permutation of the full pool has — so they are what std::sort over
    // the full pool returns. An exact fitness tie there leaves the order
    // of the tied candidates to std::sort's handling of the whole input:
    // then the skipped children are scored too and the full pool sorted,
    // as without the cutoff.
    rank_pool();
    const bool skipped = std::any_of(children.begin(), children.end(),
                                     [](const Child& c) { return !c.scored; });
    bool tied = false;
    for (std::size_t i = 1; i < std::min(params.mu + 1, pool.size()); ++i)
      tied = tied || !(pool[i - 1].fitness < pool[i].fitness);
    if (skipped && tied) {
      score_children(std::numeric_limits<double>::infinity());
      rank_pool();
    }
    const std::size_t survivors = std::min(params.mu, pool.size());

    // Materialize the surviving children (copy the parent, replay the
    // moves) before retained parents are moved out of `parents`.
    std::vector<std::optional<Individual>> next(survivors);
    for (std::size_t r = 0; r < survivors; ++r) {
      if (pool[r].index >= children.size()) continue;
      const Child& child = children[pool[r].index];
      part::PartitionEvaluator eval = parents[child.parent].eval;
      for (std::size_t i = 0; i < child.move_count; ++i) {
        const part::Move& mv = moves[child.first_move + i];
        eval.move_gate(mv.gate, mv.target);
      }
      next[r].emplace(Individual{std::move(eval), child.score.fitness,
                                 child.score.costs, child.step_width, 0});
    }
    for (std::size_t r = 0; r < survivors; ++r)
      if (pool[r].index >= children.size())
        next[r].emplace(std::move(parents[pool[r].index - children.size()]));
    parents.clear();
    for (auto& individual : next) parents.push_back(std::move(*individual));

    const bool improved = parents.front().fitness < result.fitness;
    if (improved) {
      result.partition = parents.front().eval.partition();
      result.fitness = parents.front().fitness;
      result.costs = parents.front().costs;
      stall = 0;
    } else {
      ++stall;
    }
    result.iterations = gen + 1;

    if (req.record_trace || req.on_progress) {
      GenerationStats stats;
      stats.generation = gen + 1;
      stats.best = result.fitness;
      double sum = 0.0;
      for (const auto& p : parents) sum += p.fitness.cost;
      stats.mean_cost = sum / static_cast<double>(parents.size());
      stats.module_count = result.partition.module_count();
      stats.best_step_width = parents.front().step_width;
      stats.evaluations = result.evaluations;
      // Live per-generation tick; the callback only observes, so the
      // trajectory is unchanged.
      if (req.on_progress)
        req.on_progress({result.method, stats.generation, stats.evaluations,
                         stats.best});
      if (req.record_trace) result.trace.push_back(stats);
    }
    if (stall >= params.stall_generations) break;
  }
  report_outcome(req, result);
  return result;
}

}  // namespace iddq::core
