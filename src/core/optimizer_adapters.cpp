// Thin Optimizer adapters over the pre-existing search implementations.
//
// Each adapter forwards to the direct entry point unchanged — same RNG
// stream, same defaults — so that at the same seed/budget it reproduces the
// direct call bit-for-bit (tests/core/test_optimizer_equivalence.cpp). Best
// fitness/costs are taken from the wrapped result rather than re-evaluated,
// preserving the incremental evaluator's exact floating-point trajectory.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/annealing.hpp"
#include "core/evolution.hpp"
#include "core/force_directed.hpp"
#include "core/optimizer_registry.hpp"
#include "core/random_search.hpp"
#include "core/refiner.hpp"
#include "core/tabu.hpp"
#include "core/size_planner.hpp"
#include "core/standard_partition.hpp"
#include "core/start_partition.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {
namespace {

const part::EvalContext& context_of(const OptimizerRequest& req) {
  require(req.ctx != nullptr, "optimizer request: EvalContext is required");
  return *req.ctx;
}

std::size_t resolve_module_count(const OptimizerRequest& req) {
  if (req.start) return req.start->module_count();
  if (req.module_count > 0) return req.module_count;
  return plan_module_size(context_of(req)).module_count;
}

part::Partition resolve_start(const OptimizerRequest& req) {
  if (req.start) return *req.start;
  Rng rng(req.seed);
  const part::EvalContext& ctx = context_of(req);
  return make_start_partition(ctx.nl, resolve_module_count(req), rng,
                              ctx.timing_graph.depths());
}

void report_final(const OptimizerRequest& req, const OptimizerOutcome& out) {
  if (req.on_progress)
    req.on_progress({out.method, out.iterations, out.evaluations, out.fitness});
}

class EvolutionOptimizer final : public Optimizer {
 public:
  explicit EvolutionOptimizer(EsParams params) : params_(params) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "evolution";
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& req) const override {
    EsParams params = params_;
    params.seed = req.seed;
    params.record_trace = params.record_trace || req.record_trace;
    params.pool = req.pool;
    if (req.on_progress)
      // Live per-generation ticks (ROADMAP progress item); the callback
      // only observes, so the trajectory is unchanged.
      params.on_generation = [&req](const GenerationStats& g) {
        req.on_progress({"evolution", g.generation, g.evaluations, g.best});
      };
    EvolutionEngine engine(context_of(req), params);
    EsResult es =
        req.start ? engine.run({&*req.start, 1})
                  : engine.run_with_module_count(resolve_module_count(req));
    OptimizerOutcome out;
    out.method = std::string(name());
    out.partition = std::move(es.best_partition);
    out.fitness = es.best_fitness;
    out.costs = es.best_costs;
    out.iterations = es.generations;
    out.evaluations = es.evaluations;
    out.trace = std::move(es.trace);
    report_final(req, out);
    return out;
  }

 private:
  EsParams params_;
};

class AnnealingOptimizer final : public Optimizer {
 public:
  explicit AnnealingOptimizer(SaParams params) : params_(params) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "annealing";
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& req) const override {
    SaParams params = params_;
    params.seed = req.seed;
    if (req.max_evaluations > 0) params.steps = req.max_evaluations;
    if (req.on_progress)
      params.on_step = [&req](std::size_t step, std::size_t evals,
                              const part::Fitness& best) {
        req.on_progress({"annealing", step, evals, best});
      };
    SaResult sa =
        simulated_annealing(context_of(req), resolve_start(req), params);
    OptimizerOutcome out;
    out.method = std::string(name());
    out.partition = std::move(sa.best_partition);
    out.fitness = sa.best_fitness;
    out.costs = sa.best_costs;
    out.iterations = sa.evaluations;
    out.evaluations = sa.evaluations;
    report_final(req, out);
    return out;
  }

 private:
  SaParams params_;
};

class RandomSearchOptimizer final : public Optimizer {
 public:
  explicit RandomSearchOptimizer(std::size_t samples) : samples_(samples) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "random";
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& req) const override {
    const std::size_t samples =
        req.max_evaluations > 0 ? req.max_evaluations : samples_;
    RandomSearchResult rs =
        random_search(context_of(req), resolve_module_count(req), samples,
                      req.seed, req.pool);
    OptimizerOutcome out;
    out.method = std::string(name());
    out.partition = std::move(rs.best_partition);
    out.fitness = rs.best_fitness;
    out.costs = rs.best_costs;
    out.iterations = rs.evaluations;
    out.evaluations = rs.evaluations;
    report_final(req, out);
    return out;
  }

 private:
  std::size_t samples_;
};

class GreedyOptimizer final : public Optimizer {
 public:
  explicit GreedyOptimizer(std::size_t max_evaluations)
      : max_evaluations_(max_evaluations) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "greedy";
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& req) const override {
    part::PartitionEvaluator eval(context_of(req), resolve_start(req));
    const std::size_t budget =
        req.max_evaluations > 0 ? req.max_evaluations : max_evaluations_;
    const RefineResult refine = greedy_refine(eval, budget, req.pool);
    OptimizerOutcome out;
    out.method = std::string(name());
    out.partition = eval.partition();
    out.fitness = refine.final_fitness;
    out.costs = eval.costs();
    out.iterations = refine.moves_applied;
    out.evaluations = refine.evaluations;
    report_final(req, out);
    return out;
  }

 private:
  std::size_t max_evaluations_;
};

class TabuOptimizer final : public Optimizer {
 public:
  explicit TabuOptimizer(TabuParams params) : params_(params) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "tabu";
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& req) const override {
    TabuParams params = params_;
    params.seed = req.seed;
    params.pool = req.pool;
    // The evaluation budget maps to rounds: every round spends up to
    // `candidates` evaluations on the sampled neighbourhood.
    if (req.max_evaluations > 0)
      params.iterations =
          std::max<std::size_t>(1, req.max_evaluations / params.candidates);
    if (req.on_progress)
      params.on_round = [&req](std::size_t round, std::size_t evals,
                               const part::Fitness& best) {
        req.on_progress({"tabu", round, evals, best});
      };
    TabuResult tabu = tabu_search(context_of(req), resolve_start(req), params);
    OptimizerOutcome out;
    out.method = std::string(name());
    out.partition = std::move(tabu.best_partition);
    out.fitness = tabu.best_fitness;
    out.costs = tabu.best_costs;
    out.iterations = tabu.iterations;
    out.evaluations = tabu.evaluations;
    report_final(req, out);
    return out;
  }

 private:
  TabuParams params_;
};

class ForceDirectedOptimizer final : public Optimizer {
 public:
  explicit ForceDirectedOptimizer(std::size_t passes) : passes_(passes) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "force";
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& req) const override {
    // Deterministic and seed-independent: the construction has no random
    // choices (position ties sort by GateId). A `start` only contributes
    // its module count, like "random".
    part::PartitionEvaluator eval(
        context_of(req),
        force_directed_partition(context_of(req).nl,
                                 resolve_module_count(req), passes_));
    OptimizerOutcome out;
    out.method = std::string(name());
    out.fitness = eval.fitness();
    out.costs = eval.costs();
    out.partition = eval.partition();
    out.iterations = passes_;
    out.evaluations = 1;
    report_final(req, out);
    return out;
  }

 private:
  std::size_t passes_;
};

class StandardOptimizer final : public Optimizer {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "standard";
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& req) const override {
    const part::EvalContext& ctx = context_of(req);
    // Section 5: module sizes come from the caller — the sizes another
    // optimizer discovered when `start` is given, an even split otherwise.
    std::vector<std::size_t> sizes;
    if (req.start) {
      sizes.reserve(req.start->module_count());
      for (std::uint32_t m = 0; m < req.start->module_count(); ++m)
        sizes.push_back(req.start->module_size(m));
    } else {
      const std::size_t k = resolve_module_count(req);
      const std::size_t n = ctx.nl.logic_gate_count();
      require(k >= 1 && k <= n,
              "standard partitioning: module count out of range");
      sizes.assign(k, n / k);
      for (std::size_t i = 0; i < n % k; ++i) ++sizes[i];
    }
    part::PartitionEvaluator eval(
        ctx, standard_partition(ctx.nl, ctx.oracle, sizes,
                                ctx.timing_graph.depths()));
    OptimizerOutcome out;
    out.method = std::string(name());
    out.fitness = eval.fitness();
    out.costs = eval.costs();
    out.partition = eval.partition();
    out.iterations = 1;
    out.evaluations = 1;
    report_final(req, out);
    return out;
  }
};

}  // namespace

void register_builtin_optimizers(OptimizerRegistry& registry) {
  registry.add("evolution", [](const OptimizerConfig& cfg) {
    return std::make_unique<EvolutionOptimizer>(cfg.es);
  });
  registry.add("annealing", [](const OptimizerConfig& cfg) {
    return std::make_unique<AnnealingOptimizer>(cfg.sa);
  });
  registry.add("random", [](const OptimizerConfig& cfg) {
    return std::make_unique<RandomSearchOptimizer>(cfg.random_samples);
  });
  registry.add("greedy", [](const OptimizerConfig& cfg) {
    return std::make_unique<GreedyOptimizer>(cfg.greedy_max_evaluations);
  });
  registry.add("standard", [](const OptimizerConfig&) {
    return std::make_unique<StandardOptimizer>();
  });
  registry.add("tabu", [](const OptimizerConfig& cfg) {
    return std::make_unique<TabuOptimizer>(cfg.tabu);
  });
  registry.add("force", [](const OptimizerConfig& cfg) {
    return std::make_unique<ForceDirectedOptimizer>(cfg.force_passes);
  });
}

}  // namespace iddq::core
