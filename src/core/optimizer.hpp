// Unified optimizer strategy API.
//
// Section 4 of the paper names several applicable heuristics (force-driven,
// simulated annealing, Monte Carlo, genetic) before adopting the evolution
// strategy; the repo implements four of them plus the section-5 standard
// partitioning. Every method has exactly one entry point with the same
// shape — run_<name>(OptimizerRequest, OptimizerConfig) -> OptimizerOutcome
// (core/evolution.hpp, core/annealing.hpp, ...) — so flows, benches, and
// sweeps can treat "which heuristic" as data (see OptimizerRegistry)
// instead of code.
//
// The request carries everything that varies per run (context, start,
// budget, seed, tracing, progress sink, pool); the config carries only the
// tuning knobs, all of which the result-cache context fingerprint hashes
// (core/result_cache.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "partition/evaluator.hpp"

namespace iddq::support {
class ExecutorPool;
}

namespace iddq::core {

/// Snapshot handed to OptimizerRequest::on_progress. The evolution,
/// annealing, and tabu searches report live (per generation / every 1000
/// steps / every 25 rounds) plus once on completion; the single-shot
/// methods (standard, force, random, greedy) report on completion only.
/// Callbacks may be invoked from worker threads and must never mutate
/// search state — they can also throw (e.g. CancelledError) to abort the
/// run, which is how JobService implements mid-run cancellation.
struct OptimizerProgress {
  std::string_view method;
  std::size_t iteration = 0;  // method-specific major step (see Outcome)
  std::size_t evaluations = 0;
  part::Fitness best;
};

using ProgressCallback = std::function<void(const OptimizerProgress&)>;

/// Everything an optimizer needs for one run. The EvalContext must outlive
/// the run; the request itself is read-only to the optimizer.
struct OptimizerRequest {
  const part::EvalContext* ctx = nullptr;  // required

  /// Explicit start partition. When empty, the search builds chain-
  /// clustered starts (section 4.2) with `module_count` modules.
  std::optional<part::Partition> start;

  /// Start-partition module count when `start` is empty; 0 means "plan it"
  /// via plan_module_size (section 4.2, first step).
  std::size_t module_count = 0;

  /// Evaluation budget. 0 keeps each optimizer's configured default; the
  /// evolution strategy is generation-bounded and ignores this field.
  std::size_t max_evaluations = 0;

  std::uint64_t seed = 1;
  /// Record the ES per-generation trace (OptimizerOutcome::trace).
  bool record_trace = false;
  ProgressCallback on_progress;  // may be empty

  /// Intra-run parallelism: candidate evaluations (ES descendants, tabu
  /// candidate sets) and portfolio members run on this pool when set.
  /// Results are byte-identical with and without a pool at any thread
  /// count — see docs/architecture.md, "Threading model". nullptr =
  /// single-threaded. Like seed, a per-run input, never part of cache
  /// keys.
  support::ExecutorPool* pool = nullptr;
};

/// One ES generation, recorded when OptimizerRequest::record_trace is set.
struct GenerationStats {
  std::size_t generation = 0;
  part::Fitness best;
  double mean_cost = 0.0;      // over surviving parents
  std::size_t module_count = 0;  // of the best individual
  std::uint32_t best_step_width = 0;
  std::size_t evaluations = 0;  // cumulative, whole run
};

/// Uniform result. `iterations` counts the method's own major steps:
/// ES generations, annealing steps, random-search samples, tabu rounds,
/// greedy moves applied, force relaxation passes; 1 for the deterministic
/// standard clustering.
struct OptimizerOutcome {
  std::string method;
  part::Partition partition{1, 1};
  part::Fitness fitness;
  part::Costs costs;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  std::vector<GenerationStats> trace;  // non-empty only when recorded
};

/// Evolution-strategy tuning (section 4.1; core/evolution.hpp).
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
};

/// Simulated-annealing tuning (core/annealing.hpp). A request budget
/// replaces `steps`.
struct SaParams {
  std::size_t steps = 20000;
  double initial_acceptance = 0.3;  // calibrates T0 from sampled deltas
  double cooling = 0.995;           // geometric factor per temperature stage
  std::size_t stage_length = 100;   // steps per temperature stage
  double violation_penalty = 1.0e4;
};

/// Tabu-search tuning (core/tabu.hpp). A request budget replaces
/// `iterations` with max(1, budget / candidates) rounds.
struct TabuParams {
  std::size_t iterations = 400;        // move rounds (best-of-candidates)
  std::size_t candidates = 8;          // sampled neighbourhood per round
  std::size_t tenure = 12;             // rounds a moved gate stays tabu
  std::size_t stall_iterations = 120;  // stop after this many without gain
  double violation_penalty = 1.0e4;
};

/// Per-method tuning knobs. The FlowEngine carries one of these; every
/// field is hashed into the result-cache context fingerprint.
struct OptimizerConfig {
  EsParams es;
  SaParams sa;
  TabuParams tabu;
  std::size_t force_passes = 60;  // force-directed relaxation sweeps
  std::size_t random_samples = 2000;
  std::size_t greedy_max_evaluations = 100000;
};

/// The request's EvalContext; throws iddq::Error when it is missing.
[[nodiscard]] const part::EvalContext& request_context(
    const OptimizerRequest& req);

/// The start's module count, else `module_count`, else the planned count.
[[nodiscard]] std::size_t request_module_count(const OptimizerRequest& req);

/// The explicit start, else one chain-clustered start drawn from
/// Rng(req.seed) at request_module_count(req) modules.
[[nodiscard]] part::Partition request_start(const OptimizerRequest& req);

/// Sends the completion tick for `out` to req.on_progress, when set.
void report_outcome(const OptimizerRequest& req, const OptimizerOutcome& out);

/// The strategy interface the registry hands out. Implementations are
/// stateless between runs: `run` may be called repeatedly and from
/// multiple threads as long as each call uses a distinct EvalContext or
/// the context is treated read-only (EvalContext is immutable after
/// construction).
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Registry key ("evolution", "annealing", ...) or the full composed
  /// spec ("evolution+greedy") for pipelines.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  [[nodiscard]] virtual OptimizerOutcome run(
      const OptimizerRequest& request) const = 0;
};

}  // namespace iddq::core
