// Unified optimizer strategy API.
//
// Section 4 of the paper names several applicable heuristics (force-driven,
// simulated annealing, Monte Carlo, genetic) before adopting the evolution
// strategy; the repo implements four of them plus the section-5 standard
// partitioning, each historically behind its own ad-hoc entry point
// (EsResult / SaResult / RandomSearchResult / RefineResult). This header
// unifies them: every search method consumes one OptimizerRequest and
// produces one OptimizerOutcome, so flows, benches, and sweeps can treat
// "which heuristic" as data (see OptimizerRegistry) instead of code.
//
// Adapters wrap the existing implementations without changing them: at the
// same seed and budget an adapter reproduces the exact result of the direct
// entry point it wraps (tests/core/test_optimizer_equivalence.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/annealing.hpp"
#include "core/evolution.hpp"
#include "core/tabu.hpp"
#include "partition/evaluator.hpp"

namespace iddq::support {
class ExecutorPool;
}

namespace iddq::core {

/// Snapshot handed to OptimizerRequest::on_progress. The evolution,
/// annealing, and tabu adapters report live (per generation / every
/// progress_every steps) plus once on completion; the single-shot methods
/// (standard, force, random, greedy) report on completion only. Callbacks
/// may be invoked from worker threads and must never mutate search state —
/// they can also throw (e.g. CancelledError) to abort the run, which is
/// how JobService implements mid-run cancellation.
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

  /// Explicit start partition. When empty, the adapter builds chain-
  /// clustered starts (section 4.2) with `module_count` modules.
  std::optional<part::Partition> start;

  /// Start-partition module count when `start` is empty; 0 means "plan it"
  /// via plan_module_size (section 4.2, first step).
  std::size_t module_count = 0;

  /// Evaluation budget. 0 keeps each optimizer's configured default; the
  /// evolution strategy is generation-bounded and ignores this field.
  std::size_t max_evaluations = 0;

  std::uint64_t seed = 1;
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

/// Uniform result. `iterations` counts the method's own major steps:
/// ES generations, annealing steps, random-search samples, greedy moves
/// applied; 1 for the deterministic standard clustering.
struct OptimizerOutcome {
  std::string method;
  part::Partition partition{1, 1};
  part::Fitness fitness;
  part::Costs costs;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  std::vector<GenerationStats> trace;  // non-empty only when recorded
};

/// Per-method tuning knobs shared by registry factories. The FlowEngine
/// carries one of these; the defaults match each wrapped
/// implementation's historical defaults.
struct OptimizerConfig {
  EsParams es;  // seed/record_trace fields are overridden per request
  SaParams sa;
  TabuParams tabu;  // seed field is overridden per request
  std::size_t force_passes = 60;  // force-directed relaxation sweeps
  std::size_t random_samples = 2000;
  std::size_t greedy_max_evaluations = 100000;
};

/// The strategy interface. Implementations are stateless between runs:
/// `run` may be called repeatedly and from multiple threads as long as each
/// call uses a distinct EvalContext or the context is treated read-only
/// (EvalContext is immutable after construction).
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
