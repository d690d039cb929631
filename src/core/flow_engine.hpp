// Registry-driven flow engine.
//
// FlowEngine owns the per-circuit state the paper's flow precomputes once —
// the EvalContext (estimators, distance oracle, settling model) and the
// section-4.2 module-size plan — and runs any registered optimizer spec
// against it, returning uniform MethodResult rows. The CLI, the JobService,
// the benches and the examples all drive it directly; run_paper_pair is the
// paper's Table 1 row (evolution, then standard at the ES module sizes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/coverage_options.hpp"
#include "core/optimizer_registry.hpp"
#include "core/result_cache.hpp"
#include "core/size_planner.hpp"
#include "library/cell_library.hpp"
#include "partition/evaluator.hpp"

namespace iddq::sim {
class CoverageEngine;
}  // namespace iddq::sim

namespace iddq::core {

/// One optimizer spec's outcome on one circuit (a Table 1 row).
struct MethodResult {
  std::string method;
  part::Partition partition{1, 1};
  part::Costs costs;
  part::Fitness fitness;
  double sensor_area = 0.0;
  double delay_overhead = 0.0;  // c2
  double test_overhead = 0.0;   // c4
  std::size_t module_count = 0;
  std::vector<part::ModuleReport> modules;
  std::size_t iterations = 0;   // optimizer-specific major steps
  std::size_t evaluations = 0;  // cost-function evaluations spent
  std::vector<GenerationStats> trace;  // recorded only on request

  /// Measured IDDQ fault coverage of the result partition, filled only
  /// when FlowEngineConfig::coverage.enabled (docs/coverage.md). All rows
  /// of one engine are graded against the same fault list and pattern
  /// suite, so the numbers are comparable across methods.
  bool has_coverage = false;
  std::size_t faults_total = 0;
  std::size_t faults_detected = 0;
  double fault_coverage_pct = 0.0;   // 100 * detected / total
  std::size_t patterns_used = 0;     // supplied suite size
  std::size_t patterns_minimized = 0;  // greedy set-cover suite size
};

/// The paper's Table 1 row pair (section 5), from FlowEngine::run_paper_pair.
struct PaperPair {
  MethodResult evolution;
  MethodResult standard;
};

/// The paper's headline metric: extra BIC-sensor area the standard baseline
/// needs relative to the evolution result, in percent. Returns 0 when the
/// evolution result carries no sensor area (e.g. a single zero-area module)
/// instead of inf/NaN.
[[nodiscard]] double standard_area_overhead_pct(const MethodResult& evolution,
                                                const MethodResult& standard);

/// Evaluates an externally produced partition under the flow's cost model
/// (used by the figure-2 bench and the examples).
[[nodiscard]] MethodResult evaluate_method(const part::EvalContext& ctx,
                                           std::string method,
                                           const part::Partition& partition);

struct FlowEngineConfig {
  elec::SensorSpec sensor;
  part::CostWeights weights;
  OptimizerConfig optimizers;
  std::uint32_t rho = 4;  // separation saturation distance

  /// Measured-coverage grading: when enabled, every MethodResult's
  /// partition is additionally scored by sim::CoverageEngine (fault list
  /// and pattern suite sampled once per engine from coverage.seed) and
  /// the MethodResult coverage fields are filled. Folded into the cache
  /// context fingerprint, so coverage-bearing rows never replay from
  /// entries stored without coverage (or vice versa).
  CoverageOptions coverage;

  /// Shared content-addressed result cache, consulted before every
  /// optimizer dispatch and populated after (core/result_cache.hpp).
  /// Not owned; may be null (no caching). ResultCache is thread-safe, so
  /// JobService workers share one instance.
  ResultCache* cache = nullptr;

  /// Default progress sink for runs whose RunOptions::on_progress is empty
  /// (how the CLI's --progress reaches its JobService runs). Cache
  /// hits skip the optimizer and therefore do not report progress.
  ProgressCallback on_progress;

  /// Intra-run parallelism: the pool every optimizer dispatch runs on
  /// (ES descendants, tabu candidate sets, portfolio members). Not owned;
  /// nullptr falls back to support::ExecutorPool::shared_default(), which
  /// is serial unless IDDQ_THREADS asks otherwise. One pool is safely
  /// shared by many engines and JobService workers — nested fan-out
  /// degrades gracefully instead of oversubscribing, and results are
  /// byte-identical at any thread count.
  support::ExecutorPool* pool = nullptr;
};

/// Per-run knobs for FlowEngine::run_method.
struct FlowRunOptions {
  std::uint64_t seed = 1;
  /// Explicit start partition (e.g. a previous method's result); the
  /// planned module count is used when null.
  const part::Partition* start = nullptr;
  std::size_t max_evaluations = 0;  // 0 = optimizer default budget
  bool record_trace = false;
  // `{}`: designated initializers like {.seed = S} may leave it out
  // without -Wmissing-field-initializers.
  ProgressCallback on_progress{};
};

/// Per-sequence knobs for FlowEngine::run_methods. The default-constructed
/// value adds nothing to the sequence, so JobService runs (CLI and job
/// server) stay byte-identical to direct run_methods calls.
struct FlowSequenceOptions {
  std::size_t max_evaluations = 0;  // per-method budget, 0 = default
  /// Forwarded into every method's run (overrides the config default).
  ProgressCallback on_progress;
  /// Streamed one call per finished method, in spec order, before the
  /// next method starts: (spec index, result).
  std::function<void(std::size_t, const MethodResult&)> on_row;
  /// Cooperative cancellation: polled before each method and at every
  /// progress tick. When it returns true the sequence throws
  /// iddq::CancelledError (already-completed rows were delivered via
  /// on_row). Cache hits between ticks cannot be interrupted.
  std::function<bool()> cancelled;
};

class FlowEngine {
 public:
  using RunOptions = FlowRunOptions;

  /// Precomputes the EvalContext and the module-size plan. `nl` and
  /// `library` must outlive the engine; `registry` defaults to the global
  /// registry and must also outlive the engine.
  FlowEngine(const netlist::Netlist& nl, const lib::CellLibrary& library,
             FlowEngineConfig config = {},
             const OptimizerRegistry& registry = OptimizerRegistry::global());
  ~FlowEngine();

  [[nodiscard]] const SizePlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const part::EvalContext& context() const noexcept {
    return ctx_;
  }
  [[nodiscard]] const netlist::Netlist& netlist() const noexcept {
    return *nl_;
  }

  /// Runs one optimizer spec (a registered name or '+'-composed pipeline).
  [[nodiscard]] MethodResult run_method(std::string_view spec,
                                        const RunOptions& options = {});

  /// The paper's Table 1 row (section 5): "evolution" at `seed`, then
  /// "standard" clustered at the module sizes the ES found ("we take the
  /// numbers obtained by the evolution based algorithm"), also at `seed`.
  /// Both runs share the one seed, unlike run_methods' per-method derived
  /// seeds; the committed Table 1 rows follow this convention.
  [[nodiscard]] PaperPair run_paper_pair(std::uint64_t seed);

  /// Runs every spec in order at per-method derived seeds
  /// (Rng::mix_seed(base_seed, index)). Special case, after the paper's
  /// section 5: a "standard" spec that follows at least one other method
  /// clusters at the module sizes of the first preceding method's result.
  /// `sequence` adds per-row delivery, live progress and cooperative
  /// cancellation without changing seeds or results.
  [[nodiscard]] std::vector<MethodResult> run_methods(
      std::span<const std::string> specs, std::uint64_t base_seed,
      const FlowSequenceOptions& sequence = {});

  /// Fingerprint of everything constant per engine (circuit, library,
  /// sensor/weights/rho, optimizer tuning); combined with per-run inputs
  /// into cache keys. Exposed for tests.
  [[nodiscard]] std::uint64_t context_fingerprint() const noexcept {
    return context_fp_;
  }

 private:
  [[nodiscard]] MethodResult from_cache_record(const CacheRecord& record);
  void apply_coverage(MethodResult& result) const;

  const netlist::Netlist* nl_;
  FlowEngineConfig config_;
  const OptimizerRegistry* registry_;
  part::EvalContext ctx_;
  SizePlan plan_;
  std::uint64_t context_fp_ = 0;
  /// Built once per engine when config_.coverage.enabled: the fault list,
  /// pattern suite and fault-free simulation are partition-independent,
  /// so every run_method shares them.
  std::unique_ptr<sim::CoverageEngine> coverage_;
};

}  // namespace iddq::core
