#include "core/evolution.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/neighborhood.hpp"
#include "core/start_partition.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace iddq::core {

EvolutionEngine::EvolutionEngine(const part::EvalContext& ctx,
                                 EsParams params)
    : ctx_(&ctx), params_(params), rng_(params.seed) {
  require(params_.mu >= 1, "evolution: mu must be >= 1");
  require(params_.lambda + params_.chi >= 1,
          "evolution: need at least one descendant per parent");
  require(params_.m0 >= 1 && params_.m0 <= params_.m_max,
          "evolution: step width out of range");
  require(params_.kappa >= 1, "evolution: kappa must be >= 1");
}

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

}  // namespace

std::uint32_t EvolutionEngine::vary_step_width(std::uint32_t m) {
  const double varied = rng_.normal(static_cast<double>(m), params_.epsilon);
  const auto rounded = static_cast<std::int64_t>(std::llround(varied));
  if (rounded < 1) return 1;
  if (rounded > static_cast<std::int64_t>(params_.m_max)) return params_.m_max;
  return static_cast<std::uint32_t>(rounded);
}

void EvolutionEngine::mutate(part::Partition& p, std::uint32_t step_width,
                             std::vector<part::Move>& moves) {
  if (p.module_count() < 2) return;  // nothing to move between

  // Pick a start module that has boundary gates (every module of a
  // connected partition has some; guard against pathological cases).
  std::vector<netlist::GateId> boundary;
  std::uint32_t m_start = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    m_start = static_cast<std::uint32_t>(rng_.index(p.module_count()));
    boundary = boundary_gates(ctx_->nl, p, m_start);
    if (!boundary.empty()) break;
  }
  if (boundary.empty()) return;

  const std::uint64_t cap =
      std::min<std::uint64_t>(step_width, boundary.size());
  const std::size_t m_move = 1 + static_cast<std::size_t>(rng_.below(cap));
  rng_.shuffle(boundary);
  boundary.resize(m_move);

  std::vector<std::uint32_t> targets;
  for (const netlist::GateId g : boundary) {
    // The gate moves into a random neighbouring module it connects with.
    // (Earlier moves of this mutation may have changed memberships, so the
    // neighbour set is recomputed per gate.)
    neighbor_modules(ctx_->nl, p, g, p.module_of(g), targets);
    if (targets.empty()) continue;  // became interior; skip
    apply_move(p, g, targets[rng_.index(targets.size())], moves);
    if (p.module_count() < 2) break;
  }
}

void EvolutionEngine::monte_carlo(part::Partition& p,
                                  std::vector<part::Move>& moves) {
  if (p.module_count() < 2) return;
  const auto src = static_cast<std::uint32_t>(rng_.index(p.module_count()));
  std::uint32_t dst = src;
  while (dst == src)
    dst = static_cast<std::uint32_t>(rng_.index(p.module_count()));
  const std::size_t count =
      1 + static_cast<std::size_t>(rng_.below(p.module_size(src)));
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t remaining = p.module_size(src);
    if (remaining == 0) break;  // module was emptied and deleted
    apply_move(p, p.module(src)[rng_.index(remaining)], dst, moves);
    if (p.module_count() < 2) break;
    // If the source module was deleted, its slot may now hold another
    // module; stop moving in that case (the paper deletes the module and
    // the descendant is complete).
    if (remaining == 1) break;
  }
}

EsResult EvolutionEngine::run_with_module_count(std::size_t module_count) {
  std::vector<part::Partition> starts;
  starts.reserve(params_.mu);
  for (std::size_t i = 0; i < params_.mu; ++i)
    starts.push_back(make_start_partition(ctx_->nl, module_count, rng_,
                                          ctx_->timing_graph.depths()));
  return run(starts);
}

EsResult EvolutionEngine::run(std::span<const part::Partition> starts) {
  require(!starts.empty(), "evolution: need at least one start partition");

  std::vector<Individual> parents;
  parents.reserve(params_.mu);
  for (std::size_t i = 0; i < params_.mu; ++i) {
    part::PartitionEvaluator eval(*ctx_, starts[i % starts.size()]);
    parents.push_back(Individual{std::move(eval), {}, {}, params_.m0, 0});
  }
  // Scoring consumes no randomness and touches only the individual's own
  // evaluator, so the initial population (and every generation's children
  // below) evaluates in parallel without perturbing the trajectory.
  support::parallel_for_indexed(params_.pool, parents.size(),
                                [&parents](std::size_t i) {
                                  parents[i].fitness =
                                      parents[i].eval.fitness();
                                  parents[i].costs = parents[i].eval.costs();
                                });

  EsResult result;
  result.evaluations = parents.size();
  std::size_t first_best = 0;
  for (std::size_t i = 1; i < parents.size(); ++i)
    if (parents[i].fitness < parents[first_best].fitness) first_best = i;
  result.best_partition = parents[first_best].eval.partition();
  result.best_fitness = parents[first_best].fitness;
  result.best_costs = parents[first_best].costs;

  // A descendant: its parent, its slice of `moves`, and its score.
  struct Child {
    std::size_t parent = 0;
    std::size_t first_move = 0;
    std::size_t move_count = 0;
    std::uint32_t step_width = 1;
    part::MoveProbe score;
  };
  // A selection candidate: a child (index < children.size()) or a
  // retained parent (index - children.size()).
  struct Candidate {
    part::Fitness fitness;
    std::size_t index = 0;
  };
  const std::size_t per_parent = params_.lambda + params_.chi;
  std::vector<Child> children;
  std::vector<part::Move> moves;
  std::vector<Candidate> pool;
  part::Partition draft(1, 1);
  std::size_t stall = 0;
  for (std::size_t gen = 0; gen < params_.max_generations; ++gen) {
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
        child.step_width = vary_step_width(parent.step_width);
        draft.begin_journal();
        if (c < params_.lambda)
          mutate(draft, child.step_width, moves);
        else
          monte_carlo(draft, moves);
        draft.rollback();
        child.move_count = moves.size() - child.first_move;
        children.push_back(child);
      }
    }
    result.evaluations += children.size();

    // Worker phase: each parent's children are scored on that parent's
    // evaluator, so one worker owns it — the same path at any pool size.
    support::parallel_for_indexed(
        params_.pool, parents.size(), [&](std::size_t pi) {
          for (std::size_t c = pi * per_parent; c < (pi + 1) * per_parent;
               ++c) {
            Child& child = children[c];
            child.score = parents[pi].eval.probe_moves(
                std::span<const part::Move>(moves).subspan(
                    child.first_move, child.move_count));
          }
        });

    // Selection over the historical pool order: each parent's children,
    // then the parent itself unless it has reached the maximum lifetime.
    pool.clear();
    for (std::size_t pi = 0; pi < parents.size(); ++pi) {
      for (std::size_t c = pi * per_parent; c < (pi + 1) * per_parent; ++c)
        pool.push_back(Candidate{children[c].score.fitness, c});
      if (parents[pi].age < params_.kappa)
        pool.push_back(
            Candidate{parents[pi].fitness, children.size() + pi});
    }
    std::sort(pool.begin(), pool.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.fitness < b.fitness;
              });
    const std::size_t survivors = std::min(params_.mu, pool.size());

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

    const bool improved = parents.front().fitness < result.best_fitness;
    if (improved) {
      result.best_partition = parents.front().eval.partition();
      result.best_fitness = parents.front().fitness;
      result.best_costs = parents.front().costs;
      stall = 0;
    } else {
      ++stall;
    }
    result.generations = gen + 1;

    if (params_.record_trace || params_.on_generation) {
      GenerationStats stats;
      stats.generation = gen + 1;
      stats.best = result.best_fitness;
      double sum = 0.0;
      for (const auto& p : parents) sum += p.fitness.cost;
      stats.mean_cost = sum / static_cast<double>(parents.size());
      stats.module_count = result.best_partition.module_count();
      stats.best_step_width = parents.front().step_width;
      stats.evaluations = result.evaluations;
      if (params_.on_generation) params_.on_generation(stats);
      if (params_.record_trace) result.trace.push_back(stats);
    }
    if (stall >= params_.stall_generations) break;
  }
  return result;
}

}  // namespace iddq::core
