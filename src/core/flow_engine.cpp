#include "core/flow_engine.hpp"

#include <utility>

#include "library/fingerprint.hpp"
#include "netlist/fingerprint.hpp"
#include "sim/coverage.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {

MethodResult evaluate_method(const part::EvalContext& ctx, std::string method,
                             const part::Partition& partition) {
  part::PartitionEvaluator eval(ctx, partition);
  MethodResult r;
  r.method = std::move(method);
  r.partition = partition;
  r.costs = eval.costs();
  r.fitness = eval.fitness();
  r.sensor_area = eval.total_sensor_area();
  r.delay_overhead = r.costs.c2;
  r.test_overhead = r.costs.c4;
  r.module_count = partition.module_count();
  r.modules.reserve(r.module_count);
  for (std::uint32_t m = 0; m < r.module_count; ++m)
    r.modules.push_back(eval.module_report(m));
  return r;
}

double standard_area_overhead_pct(const MethodResult& evolution,
                                  const MethodResult& standard) {
  return evolution.sensor_area > 0.0
             ? (standard.sensor_area / evolution.sensor_area - 1.0) * 100.0
             : 0.0;
}

FlowEngine::FlowEngine(const netlist::Netlist& nl,
                       const lib::CellLibrary& library,
                       FlowEngineConfig config,
                       const OptimizerRegistry& registry)
    : nl_(&nl),
      config_(std::move(config)),
      registry_(&registry),
      ctx_(nl, library, config_.sensor, config_.weights, config_.rho),
      plan_(plan_module_size(ctx_)) {
  // The fingerprint hashes the coverage options in canonical fault-model
  // spelling, so "bridges=4,shorts=2" and "shorts=2,bridges=4" share
  // cache entries. Parsing here also rejects malformed specs before any
  // optimizer runs.
  CoverageOptions coverage = config_.coverage;
  if (config_.coverage.enabled) {
    sim::CoverageConfig cc;
    cc.fault_model = sim::FaultModelSpec::parse(config_.coverage.fault_model);
    cc.patterns = config_.coverage.patterns;
    cc.minimize = config_.coverage.minimize;
    cc.seed = config_.coverage.seed;
    cc.sim.iddq_th_ua = config_.sensor.iddq_th_ua;
    coverage.fault_model = cc.fault_model.canonical();
    coverage_ = std::make_unique<sim::CoverageEngine>(nl, library, cc);
  }
  context_fp_ = cache_context_fingerprint(
      netlist::structural_fingerprint(nl), lib::library_fingerprint(library),
      config_.sensor, config_.weights, config_.rho, config_.optimizers,
      coverage);
}

FlowEngine::~FlowEngine() = default;

void FlowEngine::apply_coverage(MethodResult& result) const {
  if (coverage_ == nullptr) return;
  const sim::CoverageReport report = coverage_->score(
      result.partition, config_.pool != nullptr
                            ? config_.pool
                            : &support::ExecutorPool::shared_default());
  result.has_coverage = true;
  result.faults_total = report.faults_total;
  result.faults_detected = report.faults_detected;
  result.fault_coverage_pct = report.coverage_pct();
  result.patterns_used = report.patterns_supplied;
  result.patterns_minimized = report.patterns_minimized;
}

MethodResult FlowEngine::from_cache_record(const CacheRecord& record) {
  // Replaying the stored partition through the same deterministic
  // evaluation that produced the original MethodResult reproduces the
  // module reports and sensor area byte-for-byte; the optimizer-trajectory
  // fields come straight from the record.
  require(record.gate_count == nl_->gate_count(),
          "result cache: record does not match this circuit");
  // The context fingerprint mixes the coverage options, so only records
  // stored by an identically-graded engine can be seen here; a mismatch
  // is a foreign record (key collision) and degrades to a miss.
  require(record.has_coverage == (coverage_ != nullptr),
          "result cache: record coverage fields do not match this engine");
  // from_groups validates coverage/duplicates/ranges and preserves the
  // stored intra-module gate order.
  MethodResult result = evaluate_method(
      ctx_, record.method,
      part::Partition::from_groups(*nl_, record.modules));
  result.fitness = record.fitness;
  result.costs = record.costs;
  result.delay_overhead = record.costs.c2;
  result.test_overhead = record.costs.c4;
  result.iterations = record.iterations;
  result.evaluations = record.evaluations;
  if (record.has_coverage) {
    result.has_coverage = true;
    result.faults_total = record.faults_total;
    result.faults_detected = record.faults_detected;
    result.fault_coverage_pct =
        sim::coverage_percent(record.faults_detected, record.faults_total);
    result.patterns_used = record.patterns_used;
    result.patterns_minimized = record.patterns_minimized;
  }
  return result;
}

MethodResult FlowEngine::run_method(std::string_view spec,
                                    const RunOptions& options) {
  // Traced runs bypass the cache: the trace is not persisted, so a hit
  // could not reproduce it.
  const bool cacheable = config_.cache != nullptr && !options.record_trace;
  std::uint64_t key = 0;
  if (cacheable) {
    key = cache_key(context_fp_, spec, options.seed, options.max_evaluations,
                    options.start);
    if (const auto hit = config_.cache->lookup(key)) {
      try {
        return from_cache_record(*hit);
      } catch (const Error&) {
        // A mismatched record (key collision, foreign cache file) is
        // treated as a miss and overwritten below.
      }
    }
  }

  const auto optimizer = registry_->make(spec, config_.optimizers);

  OptimizerRequest request;
  request.ctx = &ctx_;
  if (options.start != nullptr) request.start = *options.start;
  request.module_count = plan_.module_count;
  request.max_evaluations = options.max_evaluations;
  request.seed = options.seed;
  request.record_trace = options.record_trace;
  request.on_progress =
      options.on_progress ? options.on_progress : config_.on_progress;
  request.pool = config_.pool != nullptr
                     ? config_.pool
                     : &support::ExecutorPool::shared_default();

  OptimizerOutcome outcome = optimizer->run(request);
  MethodResult result =
      evaluate_method(ctx_, std::move(outcome.method), outcome.partition);
  // Keep the optimizer's own fitness/costs: identical to the re-evaluation
  // up to the incremental evaluator's floating-point trajectory, and the
  // values the trajectory tests pin (tests/core/test_optimizer_trajectory.cpp).
  result.fitness = outcome.fitness;
  result.costs = outcome.costs;
  result.delay_overhead = outcome.costs.c2;
  result.test_overhead = outcome.costs.c4;
  result.iterations = outcome.iterations;
  result.evaluations = outcome.evaluations;
  result.trace = std::move(outcome.trace);
  apply_coverage(result);

  if (cacheable) {
    CacheRecord record;
    record.method = result.method;
    record.gate_count = result.partition.gate_count();
    record.modules.reserve(result.partition.module_count());
    for (std::uint32_t m = 0; m < result.partition.module_count(); ++m) {
      const auto gates = result.partition.module(m);
      record.modules.emplace_back(gates.begin(), gates.end());
    }
    record.fitness = result.fitness;
    record.costs = result.costs;
    record.iterations = result.iterations;
    record.evaluations = result.evaluations;
    record.has_coverage = result.has_coverage;
    record.faults_total = result.faults_total;
    record.faults_detected = result.faults_detected;
    record.patterns_used = result.patterns_used;
    record.patterns_minimized = result.patterns_minimized;
    config_.cache->store(key, record);
  }
  return result;
}

PaperPair FlowEngine::run_paper_pair(std::uint64_t seed) {
  PaperPair pair;
  pair.evolution = run_method("evolution", {.seed = seed});
  pair.standard = run_method(
      "standard", {.seed = seed, .start = &pair.evolution.partition});
  return pair;
}

std::vector<MethodResult> FlowEngine::run_methods(
    std::span<const std::string> specs, std::uint64_t base_seed,
    const FlowSequenceOptions& sequence) {
  const auto check_cancelled = [&sequence] {
    if (sequence.cancelled && sequence.cancelled())
      throw CancelledError("job cancelled");
  };
  // Cancellation rides on the progress stream: ticks are the only safe
  // preemption points inside an optimizer, and polling there costs nothing
  // when no cancellation hook is installed. The wrapper forwards to the
  // sequence sink or, when none is set, to the config default — installing
  // a cancellation hook alone must not silence FlowEngineConfig's sink
  // (run_method gives any per-run callback precedence over it).
  ProgressCallback on_progress = sequence.on_progress;
  if (sequence.cancelled) {
    const ProgressCallback forward =
        sequence.on_progress ? sequence.on_progress : config_.on_progress;
    on_progress = [forward, check_cancelled](const OptimizerProgress& p) {
      check_cancelled();
      if (forward) forward(p);
    };
  }

  std::vector<MethodResult> results;
  results.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    check_cancelled();
    RunOptions options;
    options.seed = Rng::mix_seed(base_seed, i);
    options.max_evaluations = sequence.max_evaluations;
    options.on_progress = on_progress;
    if (specs[i] == "standard" && !results.empty())
      options.start = &results.front().partition;
    results.push_back(run_method(specs[i], options));
    if (sequence.on_row) sequence.on_row(i, results.back());
  }
  return results;
}

}  // namespace iddq::core
