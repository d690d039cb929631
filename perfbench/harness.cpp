// In-process half of the repo benchmark (perfbench/README.md).
//
// Runs the sweep workloads and the per-layer probes by calling the flow's
// public entry points and timing each call from outside:
//   netlist::load_circuit / make_iscas_like, part::EvalContext,
//   core::plan_module_size, OptimizerRegistry::make(spec)->run,
//   core::evaluate_method, PartitionEvaluator copy / probe_move /
//   move_gate + fitness, sim::CoverageEngine, ResultCache lookup / store,
//   cluster::ShardRouter and cluster::RowMerger.
//
// Output is one JSON object per stdout line ("kind": row / job / pass /
// host); perfbench/run.py turns those lines into metrics. A traced pass
// records spans (name, start, end, parent) in memory and writes them to
// the --spans file when the run ends.
//
//   iddq_perfbench sweep --workload sweep_big|search_probe --seed N
//                  --passes P --trace 0|1 --spans FILE --scratch DIR
//   iddq_perfbench selftest
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/row_merger.hpp"
#include "cluster/shard_router.hpp"
#include "core/flow_engine.hpp"
#include "core/optimizer_registry.hpp"
#include "core/result_cache.hpp"
#include "core/size_planner.hpp"
#include "library/cell_library.hpp"
#include "library/fingerprint.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "partition/evaluator.hpp"
#include "sim/coverage.hpp"
#include "support/executor.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace iddq;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// ------------------------------------------------------------- tracing ---

struct Span {
  std::string name;
  std::string circuit;
  std::int64_t parent = -1;
  int pass = -1;  // -1 = layer probe outside any pass
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t count = 0;  // work done inside the span (evaluations)
};

/// In-memory span recorder. Disabled tracers record nothing, so untraced
/// passes pay one branch per layer call.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, const std::string& circuit)
        : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      id_ = static_cast<std::int64_t>(tracer_.spans_.size());
      Span span;
      span.name = std::move(name);
      span.circuit = circuit;
      span.parent = tracer_.stack_.empty() ? -1 : tracer_.stack_.back();
      span.pass = tracer_.pass_;
      span.t0 = now_ns();
      tracer_.spans_.push_back(std::move(span));
      tracer_.stack_.push_back(id_);
    }
    ~Scope() {
      if (id_ < 0) return;
      tracer_.spans_[static_cast<std::size_t>(id_)].t1 = now_ns();
      tracer_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_count(std::uint64_t n) {
      if (id_ >= 0) tracer_.spans_[static_cast<std::size_t>(id_)].count = n;
    }

   private:
    Tracer& tracer_;
    std::int64_t id_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_pass(int pass) { pass_ = pass; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::JsonWriter w;
      w.field("id", static_cast<std::uint64_t>(i))
          .field("parent", static_cast<double>(s.parent))
          .field("name", s.name)
          .field("circuit", s.circuit)
          .field("pass", static_cast<double>(s.pass))
          .field("t0", static_cast<std::uint64_t>(s.t0))
          .field("t1", static_cast<std::uint64_t>(s.t1))
          .field("n", s.count);
      out << std::move(w).str() << "\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  bool enabled_ = false;
  int pass_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

// ----------------------------------------------------------- workloads ---

struct Workload {
  std::vector<std::string> circuits;
  bool iscas_like = false;  // Table-1 stand-ins vs loader builtins
  std::vector<std::string> methods;
  bool couple_standard = false;  // standard clusters at methods[0]'s sizes
  /// Every method at the base seed (the BIG bench's convention) instead
  /// of run_methods' per-method mix_seed(base, index).
  bool bench_seeds = false;
  std::size_t max_evaluations = 0;
  core::FlowEngineConfig config;
};

/// The ES budget of the FAST bench tier (IDDQSYN_BENCH_FAST=1), which is
/// what BENCH_big.json was recorded at.
core::EsParams fast_es_params() {
  core::EsParams es;
  es.mu = 8;
  es.lambda = 7;
  es.chi = 2;
  es.kappa = 8;
  es.m0 = 4;
  es.epsilon = 1.0;
  es.max_generations = 60;
  es.stall_generations = 20;
  return es;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.config.optimizers.es = fast_es_params();
  if (name == "sweep_big") {
    w.circuits = {"big_dag10k", "big_dag30k"};
    w.methods = {"evolution", "standard"};
    w.couple_standard = true;
    w.bench_seeds = true;
  } else if (name == "search_probe") {
    w.circuits = {"c5315", "c7552"};
    w.iscas_like = true;
    w.methods = {"tabu", "annealing", "greedy"};
    w.max_evaluations = 1500;
    w.config.coverage.enabled = true;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

netlist::Netlist load(const Workload& w, const std::string& circuit) {
  return w.iscas_like ? netlist::gen::make_iscas_like(circuit)
                      : netlist::load_circuit(circuit);
}

std::uint64_t method_seed(const Workload& w, std::uint64_t seed,
                          std::size_t index) {
  return w.bench_seeds ? seed : Rng::mix_seed(seed, index);
}

bool is_search(const std::string& method) { return method != "standard"; }

// --------------------------------------------------------------- rows ---

std::string partition_digest(const part::Partition& p) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t m = 0; m < p.module_count(); ++m) {
    for (const netlist::GateId g : p.module(m)) {
      h = (h ^ g) * 1099511628211ull;
    }
    h = (h ^ 0xFFFFFFFFull) * 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string row_json(int pass, bool traced, const std::string& circuit,
                     std::size_t gates, const core::MethodResult& r) {
  json::JsonWriter c(json::JsonWriter::Kind::Array);
  c.element(r.costs.c1).element(r.costs.c2).element(r.costs.c3)
      .element(r.costs.c4).element(r.costs.c5);
  json::JsonWriter w;
  w.field("kind", "row")
      .field("pass", static_cast<std::uint64_t>(pass))
      .field("traced", traced)
      .field("circuit", circuit)
      .field("gates", static_cast<std::uint64_t>(gates))
      .field("method", r.method)
      .field("modules", static_cast<std::uint64_t>(r.module_count))
      .field("violation", r.fitness.violation)
      .field("cost", r.fitness.cost)
      .field_raw("c", std::move(c).str())
      .field("sensor_area", r.sensor_area)
      .field("delay_overhead", r.delay_overhead)
      .field("test_overhead", r.test_overhead)
      .field("iterations", static_cast<std::uint64_t>(r.iterations))
      .field("evaluations", static_cast<std::uint64_t>(r.evaluations))
      .field("partition", partition_digest(r.partition));
  if (r.has_coverage) {
    w.field("faults_total", static_cast<std::uint64_t>(r.faults_total))
        .field("faults_detected",
               static_cast<std::uint64_t>(r.faults_detected))
        .field("fault_coverage_pct", r.fault_coverage_pct)
        .field("patterns_used", static_cast<std::uint64_t>(r.patterns_used))
        .field("patterns_minimized",
               static_cast<std::uint64_t>(r.patterns_minimized));
  }
  return std::move(w).str();
}

// ------------------------------------------------- optimizer timing ---

/// Forwards to a registry optimizer and adds the wall time of each run()
/// to a counter.
class TimedOptimizer final : public core::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<core::Optimizer> inner, double& seconds)
      : inner_(std::move(inner)), seconds_(seconds) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  [[nodiscard]] core::OptimizerOutcome run(
      const core::OptimizerRequest& request) const override {
    const std::int64_t t0 = now_ns();
    core::OptimizerOutcome outcome = inner_->run(request);
    seconds_ += seconds_since(t0);
    return outcome;
  }

 private:
  std::unique_ptr<core::Optimizer> inner_;
  double& seconds_;
};

/// The global registry's optimizers wrapped in TimedOptimizer: `seconds`
/// accumulates optimizer time alone, without the result evaluation and
/// coverage grading FlowEngine::run_method does around the optimizer.
struct TimedRegistry {
  TimedRegistry() {
    const auto& global = core::OptimizerRegistry::global();
    for (const std::string& name : global.names()) {
      registry.add(name, [this, &global,
                          name](const core::OptimizerConfig& config) {
        return std::make_unique<TimedOptimizer>(global.make(name, config),
                                                seconds);
      });
    }
  }
  TimedRegistry(const TimedRegistry&) = delete;
  TimedRegistry& operator=(const TimedRegistry&) = delete;

  core::OptimizerRegistry registry;
  double seconds = 0.0;
};

// -------------------------------------------------- one circuit's job ---

/// Everything a job leaves behind for the layer probes.
struct JobOutput {
  std::string circuit;
  std::unique_ptr<netlist::Netlist> nl;
  std::unique_ptr<part::EvalContext> ctx;  // traced jobs only
  std::vector<core::MethodResult> rows;
  double setup_s = 0.0;
  double search_s = 0.0;
  std::uint64_t search_evals = 0;
};

/// The untraced job: FlowEngine exactly as bench_table1 and the CLI use
/// it, with the optimizers timed through `timed`.
JobOutput run_job_engine(const Workload& w, const lib::CellLibrary& library,
                         TimedRegistry& timed, const std::string& circuit,
                         std::uint64_t seed) {
  JobOutput out;
  out.circuit = circuit;
  const std::int64_t t0 = now_ns();
  out.nl = std::make_unique<netlist::Netlist>(load(w, circuit));
  core::FlowEngine engine(*out.nl, library, w.config, timed.registry);
  out.setup_s = seconds_since(t0);
  for (std::size_t i = 0; i < w.methods.size(); ++i) {
    core::FlowEngine::RunOptions options;
    options.seed = method_seed(w, seed, i);
    options.max_evaluations = w.max_evaluations;
    if (w.methods[i] == "standard" && w.couple_standard && !out.rows.empty())
      options.start = &out.rows.front().partition;
    const double before = timed.seconds;
    out.rows.push_back(engine.run_method(w.methods[i], options));
    if (is_search(w.methods[i])) {
      out.search_s += timed.seconds - before;
      out.search_evals += out.rows.back().evaluations;
    }
  }
  return out;
}

sim::CoverageConfig coverage_config(const core::FlowEngineConfig& config) {
  sim::CoverageConfig cc;
  cc.fault_model = sim::FaultModelSpec::parse(config.coverage.fault_model);
  cc.patterns = config.coverage.patterns;
  cc.minimize = config.coverage.minimize;
  cc.seed = config.coverage.seed;
  cc.sim.iddq_th_ua = config.sensor.iddq_th_ua;
  return cc;
}

/// The traced job: FlowEngine::run_method decomposed into its layer calls,
/// one span each. Must reproduce run_job_engine's rows bit for bit.
JobOutput run_job_traced(const Workload& w, const lib::CellLibrary& library,
                         TimedRegistry& timed, const std::string& circuit,
                         std::uint64_t seed, support::ExecutorPool& pool,
                         Tracer& tracer) {
  Tracer::Scope job_span(tracer, "job", circuit);
  JobOutput out;
  out.circuit = circuit;
  const core::FlowEngineConfig& config = w.config;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope span(tracer, "netlist.load", circuit);
    out.nl = std::make_unique<netlist::Netlist>(load(w, circuit));
  }
  {
    Tracer::Scope span(tracer, "context.build", circuit);
    out.ctx = std::make_unique<part::EvalContext>(
        *out.nl, library, config.sensor, config.weights, config.rho);
  }
  core::SizePlan plan;
  {
    Tracer::Scope span(tracer, "planner.plan", circuit);
    plan = core::plan_module_size(*out.ctx);
  }
  std::unique_ptr<sim::CoverageEngine> coverage;
  if (config.coverage.enabled) {
    Tracer::Scope span(tracer, "coverage.build", circuit);
    coverage = std::make_unique<sim::CoverageEngine>(*out.nl, library,
                                                     coverage_config(config));
  }
  out.setup_s = seconds_since(t0);  // what the FlowEngine constructor does
  for (std::size_t i = 0; i < w.methods.size(); ++i) {
    const std::string& spec = w.methods[i];
    core::OptimizerRequest request;
    request.ctx = out.ctx.get();
    if (spec == "standard" && w.couple_standard && !out.rows.empty())
      request.start = out.rows.front().partition;
    request.module_count = plan.module_count;
    request.max_evaluations = w.max_evaluations;
    request.seed = method_seed(w, seed, i);
    request.pool = &pool;
    core::OptimizerOutcome outcome;
    const double before = timed.seconds;
    {
      Tracer::Scope span(tracer, spec, circuit);
      outcome = timed.registry.make(spec, config.optimizers)->run(request);
      span.set_count(outcome.evaluations);
    }
    if (is_search(spec)) {
      out.search_s += timed.seconds - before;
      out.search_evals += outcome.evaluations;
    }
    core::MethodResult r;
    {
      Tracer::Scope span(tracer, "evaluate_method", circuit);
      r = core::evaluate_method(*out.ctx, std::move(outcome.method),
                                outcome.partition);
    }
    r.fitness = outcome.fitness;
    r.costs = outcome.costs;
    r.delay_overhead = outcome.costs.c2;
    r.test_overhead = outcome.costs.c4;
    r.iterations = outcome.iterations;
    r.evaluations = outcome.evaluations;
    if (coverage) {
      Tracer::Scope span(tracer, "coverage.score", circuit);
      const sim::CoverageReport report = coverage->score(r.partition, &pool);
      r.has_coverage = true;
      r.faults_total = report.faults_total;
      r.faults_detected = report.faults_detected;
      r.fault_coverage_pct = report.coverage_pct();
      r.patterns_used = report.patterns_supplied;
      r.patterns_minimized = report.patterns_minimized;
    }
    out.rows.push_back(std::move(r));
  }
  return out;
}

// --------------------------------------------------------- layer probes ---

/// Random (gate, target) moves that never empty their source module, the
/// same precondition the optimizers' accept/reject loops keep.
std::pair<netlist::GateId, std::uint32_t> random_move(
    const netlist::Netlist& nl, const part::Partition& p, Rng& rng) {
  const auto gates = nl.logic_gates();
  for (;;) {
    const netlist::GateId g = gates[rng.below(gates.size())];
    const std::uint32_t from = p.module_of(g);
    if (p.module_size(from) < 2) continue;
    auto target = static_cast<std::uint32_t>(rng.below(p.module_count() - 1));
    if (target >= from) ++target;
    return {g, target};
  }
}

/// Samples the per-operation layers on one job's circuit and result
/// partitions. Each sample is its own span, so run.py takes medians.
void probe_evaluator(const JobOutput& job, std::uint64_t seed,
                     Tracer& tracer) {
  const std::string& c = job.circuit;
  const part::Partition& partition = job.rows.front().partition;
  if (partition.module_count() < 2) return;
  Rng rng(Rng::mix_seed(seed, 0xe7a1));
  std::optional<part::PartitionEvaluator> base;
  for (int i = 0; i < 5; ++i) {
    Tracer::Scope span(tracer, "evaluator.build", c);
    base.emplace(*job.ctx, partition);
    (void)base->fitness();
  }
  base->refresh();
  // An ES child: copy the parent, mutate, score. The copy drops the
  // timing arrival state, so its first fitness pays a full timing pass.
  for (int i = 0; i < 30; ++i) {
    const auto [g, t] = random_move(*job.nl, base->partition(), rng);
    Tracer::Scope span(tracer, "evaluator.copy", c);
    part::PartitionEvaluator copy = *base;
    copy.move_gate(g, t);
    (void)copy.fitness();
  }
  for (int i = 0; i < 300; ++i) {
    const auto [g, t] = random_move(*job.nl, base->partition(), rng);
    Tracer::Scope span(tracer, "evaluator.probe", c);
    (void)base->probe_move(g, t);
  }
  part::PartitionEvaluator work = *base;
  for (int i = 0; i < 300; ++i) {
    const auto [g, t] = random_move(*job.nl, work.partition(), rng);
    Tracer::Scope span(tracer, "evaluator.move_fitness", c);
    work.move_gate(g, t);
    (void)work.fitness();
  }
}

/// Optimizers the workload itself does not run get a small fixed budget
/// on each circuit, so every traced run reports every optimizer layer.
void probe_optimizers(const Workload& w, const JobOutput& job,
                      std::uint64_t seed, support::ExecutorPool& pool,
                      Tracer& tracer) {
  const auto& registry = core::OptimizerRegistry::global();
  core::OptimizerConfig config = w.config.optimizers;
  config.es.max_generations = 2;
  const core::SizePlan plan = core::plan_module_size(*job.ctx);
  for (const std::string spec : {"evolution", "standard", "tabu",
                                 "annealing", "greedy"}) {
    if (std::find(w.methods.begin(), w.methods.end(), spec) !=
        w.methods.end())
      continue;
    core::OptimizerRequest request;
    request.ctx = job.ctx.get();
    request.module_count = plan.module_count;
    request.max_evaluations = 400;
    request.seed = seed;
    request.pool = &pool;
    Tracer::Scope span(tracer, spec, job.circuit);
    span.set_count(registry.make(spec, config)->run(request).evaluations);
  }
}

void probe_coverage(const Workload& w, const lib::CellLibrary& library,
                    const JobOutput& job, support::ExecutorPool& pool,
                    Tracer& tracer) {
  if (w.config.coverage.enabled) return;  // the passes already graded
  core::FlowEngineConfig config = w.config;
  config.coverage.enabled = true;
  std::unique_ptr<sim::CoverageEngine> engine;
  {
    Tracer::Scope span(tracer, "coverage.build", job.circuit);
    engine = std::make_unique<sim::CoverageEngine>(*job.nl, library,
                                                   coverage_config(config));
  }
  Tracer::Scope span(tracer, "coverage.score", job.circuit);
  (void)engine->score(job.rows.front().partition, &pool);
}

core::CacheRecord cache_record(const core::MethodResult& r) {
  core::CacheRecord record;
  record.method = r.method;
  record.gate_count = r.partition.gate_count();
  for (std::uint32_t m = 0; m < r.partition.module_count(); ++m) {
    const auto gates = r.partition.module(m);
    record.modules.emplace_back(gates.begin(), gates.end());
  }
  record.fitness = r.fitness;
  record.costs = r.costs;
  record.iterations = r.iterations;
  record.evaluations = r.evaluations;
  return record;
}

/// ResultCache store / lookup and the hit replay (evaluate_method on the
/// stored partition, which is what FlowEngine does on a hit).
void probe_cache(const std::vector<JobOutput>& jobs,
                 const std::string& scratch, Tracer& tracer) {
  const std::string dir = scratch + "/cache_probe";
  std::filesystem::remove_all(dir);
  core::ResultCache cache(dir);
  std::uint64_t key = 0x5eed;
  for (const JobOutput& job : jobs) {
    const core::CacheRecord record = cache_record(job.rows.front());
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 10; ++i) {
      key = Rng::mix_seed(key, 1);
      keys.push_back(key);
      Tracer::Scope span(tracer, "cache.store", job.circuit);
      cache.store(key, record);
    }
    for (int i = 0; i < 200; ++i) {
      Tracer::Scope span(tracer, "cache.lookup", job.circuit);
      (void)cache.lookup(keys[static_cast<std::size_t>(i) % keys.size()]);
    }
    for (int i = 0; i < 5; ++i) {
      Tracer::Scope span(tracer, "cache.replay", job.circuit);
      const auto hit = cache.lookup(keys.front());
      (void)core::evaluate_method(
          *job.ctx, hit->method,
          part::Partition::from_groups(*job.nl, hit->modules));
    }
  }
  std::filesystem::remove_all(dir);
}

struct Key {
  std::string circuit;
  std::uint64_t seed = 0;
};

/// ShardRouter placement over two backends for the workload's keys, and
/// RowMerger::forward over the backend events a width-1 shard produces.
/// Prints the routed share per backend for run.py's skew metric.
void probe_cluster(const Workload& w, const lib::CellLibrary& library,
                   const std::vector<JobOutput>& jobs,
                   const std::vector<Key>& keys, Tracer& tracer) {
  // Fixed endpoint names: the ring, and with it the placement, is the same
  // on every run.
  cluster::HashRing ring;
  ring.add("backend0");
  ring.add("backend1");
  cluster::ShardRouter router(ring, lib::library_fingerprint(library));
  std::map<std::string, std::uint64_t> per_backend;
  for (const std::string& node : ring.nodes()) per_backend[node] = 0;
  for (const Key& k : keys) {
    Tracer::Scope span(tracer, "cluster.route", k.circuit);
    const std::uint64_t fp =
        router.fingerprint(k.circuit, w.methods, k.seed, w.max_evaluations);
    ++per_backend[router.placement(fp).front()];
  }
  json::JsonWriter routed(json::JsonWriter::Kind::Array);
  for (const auto& [node, n] : per_backend) routed.element(n);
  json::JsonWriter line;
  line.field("kind", "routed").field_raw("per_backend", std::move(routed).str());
  std::cout << std::move(line).str() << "\n";

  std::vector<std::string> circuits;
  for (const JobOutput& job : jobs) circuits.push_back(job.circuit);
  for (int rep = 0; rep < 20; ++rep) {
    cluster::RowMerger merger("client", circuits);
    for (std::size_t shard = 0; shard < jobs.size(); ++shard) {
      const std::string env = "\"id\":\"b" + std::to_string(shard) +
                              "\",\"circuit\":\"" + circuits[shard] +
                              "\",\"job\":7";
      std::vector<std::string> lines = {
          "{\"event\":\"queued\"," + env + "}",
          "{\"event\":\"running\"," + env + "}"};
      for (std::size_t i = 0; i < jobs[shard].rows.size(); ++i) {
        const core::MethodResult& r = jobs[shard].rows[i];
        json::JsonWriter payload;
        payload.field("index", static_cast<std::uint64_t>(i))
            .field("method", r.method)
            .field("modules", static_cast<std::uint64_t>(r.module_count))
            .field("violation", r.fitness.violation)
            .field("cost", r.fitness.cost)
            .field("sensor_area", r.sensor_area)
            .field("evaluations", static_cast<std::uint64_t>(r.evaluations));
        std::string body = std::move(payload).str();
        lines.push_back("{\"event\":\"row\"," + env + "," + body.substr(1));
      }
      lines.push_back("{\"event\":\"done\"," + env + "}");
      for (const std::string& raw : lines) {
        const auto event = json::JsonValue::parse(raw);
        Tracer::Scope span(tracer, "cluster.merge", circuits[shard]);
        (void)merger.forward(shard, *event, raw);
      }
    }
  }
}

// ---------------------------------------------------------------- sweep ---

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 42;
  std::size_t passes = 3;
  bool trace = false;
  std::string spans;
  std::string scratch = ".";
};

/// Keys the cluster probe routes: the workload's own circuits at a spread
/// of seeds.
std::vector<Key> sweep_keys(const Workload& w, std::uint64_t seed) {
  std::vector<Key> keys;
  for (std::uint64_t i = 0; i < 64; ++i)
    for (const std::string& c : w.circuits)
      keys.push_back({c, Rng::mix_seed(seed, i)});
  return keys;
}

void print_job_lines(const JobOutput& job, int pass, bool traced,
                     double seconds) {
  for (const core::MethodResult& r : job.rows)
    std::cout << row_json(pass, traced, job.circuit,
                          job.nl->logic_gate_count(), r)
              << "\n";
  json::JsonWriter w;
  w.field("kind", "job")
      .field("pass", static_cast<std::uint64_t>(pass))
      .field("traced", traced)
      .field("circuit", job.circuit)
      .field("seconds", seconds)
      .field("setup_s", job.setup_s);
  std::cout << std::move(w).str() << "\n";
}

int run_sweep(const Args& args) {
  const Workload w = make_workload(args.workload);
  const std::vector<Key> keys = sweep_keys(w, args.seed);
  const auto library = lib::default_library();
  // Serial: a second ES thread gained little and timed less steadily.
  support::ExecutorPool pool(1);
  Workload engine_workload = w;
  engine_workload.config.pool = &pool;
  TimedRegistry timed;

  Tracer tracer;
  std::vector<JobOutput> last_traced;
  // A fixed pass count, so every run holds the same number of samples
  // whatever the host's speed. A traced run alternates untraced and traced
  // passes on the same inputs, so trace.overhead_pct compares like with
  // like.
  const std::size_t passes =
      args.trace ? std::max<std::size_t>(args.passes, 2) : args.passes;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    tracer.set_pass(static_cast<int>(pass));
    const std::int64_t p0 = now_ns();
    double setup_s = 0.0;
    double search_s = 0.0;
    std::uint64_t search_evals = 0;
    std::vector<JobOutput> jobs;
    for (const std::string& circuit : w.circuits) {
      const std::int64_t j0 = now_ns();
      JobOutput job =
          traced ? run_job_traced(w, library, timed, circuit, args.seed, pool,
                                  tracer)
                 : run_job_engine(engine_workload, library, timed, circuit,
                                  args.seed);
      print_job_lines(job, static_cast<int>(pass), traced, seconds_since(j0));
      setup_s += job.setup_s;
      search_s += job.search_s;
      search_evals += job.search_evals;
      jobs.push_back(std::move(job));
    }
    json::JsonWriter line;
    line.field("kind", "pass")
        .field("pass", static_cast<std::uint64_t>(pass))
        .field("traced", traced)
        .field("seconds", seconds_since(p0))
        .field("setup_s", setup_s)
        .field("search_s", search_s)
        .field("search_evals", search_evals);
    std::cout << std::move(line).str() << std::endl;
    if (traced) last_traced = std::move(jobs);
  }

  if (args.trace) {
    tracer.set_enabled(true);
    tracer.set_pass(-1);
    for (const JobOutput& job : last_traced) {
      probe_evaluator(job, args.seed, tracer);
      probe_optimizers(w, job, args.seed, pool, tracer);
      probe_coverage(w, library, job, pool, tracer);
    }
    probe_cache(last_traced, args.scratch, tracer);
    probe_cluster(w, library, last_traced, keys, tracer);
    tracer.write(args.spans);
  }
  return 0;
}

// ------------------------------------------------------------ selftest ---

/// The traced decomposition must reproduce FlowEngine::run_methods (seeds
/// mix_seed(base, i), standard coupled to the first row) bit for bit, with
/// and without coverage grading.
int run_selftest() {
  const auto library = lib::default_library();
  int failures = 0;
  support::ExecutorPool pool(1);
  TimedRegistry timed;
  Tracer tracer;
  tracer.set_enabled(true);
  for (const bool coverage : {false, true}) {
    Workload w;
    w.circuits = {"c1908"};
    w.iscas_like = true;
    w.methods = {"evolution", "tabu", "standard"};
    w.couple_standard = true;
    w.max_evaluations = 300;
    w.config.optimizers.es = fast_es_params();
    w.config.optimizers.es.max_generations = 3;
    w.config.coverage.enabled = coverage;
    const std::uint64_t base = 42;
    const auto nl = netlist::gen::make_iscas_like("c1908");
    core::FlowEngine engine(nl, library, w.config);
    core::FlowSequenceOptions sequence;
    sequence.max_evaluations = w.max_evaluations;
    const auto expected = engine.run_methods(w.methods, base, sequence);
    const JobOutput job =
        run_job_traced(w, library, timed, "c1908", base, pool, tracer);
    const std::vector<core::MethodResult>& got = job.rows;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const std::string a = row_json(0, false, "c1908", 0, expected[i]);
      const std::string b = row_json(0, false, "c1908", 0, got[i]);
      if (a != b) {
        std::cerr << "selftest: decomposition diverges (coverage="
                  << coverage << ", method " << w.methods[i] << ")\n  "
                  << a << "\n  " << b << "\n";
        ++failures;
      }
    }
  }
  json::JsonWriter line;
  line.field("kind", "selftest").field("ok", failures == 0);
  std::cout << std::move(line).str() << "\n";
  return failures == 0 ? 0 : 1;
}

void print_host() {
  json::JsonWriter w;
  w.field("kind", "host")
      .field("compiler", __VERSION__)
      .field("build_type", PERFBENCH_BUILD_TYPE);
  std::cout << std::move(w).str() << "\n";
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: iddq_perfbench sweep|selftest|host ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--passes") a.passes = std::stoull(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--spans") a.spans = value;
    else if (flag == "--scratch") a.scratch = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "host") {
      print_host();
      return 0;
    }
    if (args.mode == "selftest") return run_selftest();
    if (args.mode == "sweep") {
      if (args.trace && args.spans.empty())
        throw std::runtime_error("--trace 1 needs --spans FILE");
      return run_sweep(args);
    }
    throw std::runtime_error("unknown mode '" + args.mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "iddq_perfbench: " << e.what() << "\n";
    return 2;
  }
}
