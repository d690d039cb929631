// Table 1 reproduction (paper section 5.1).
//
// For each of the six ISCAS85 circuits: run the evolution-based partitioning
// until convergence, then the standard partitioning at the same module
// sizes, and report module count, BIC sensor areas, the standard method's
// area overhead, and the delay / test-application overheads of both.
//
// The bench is incremental: pass a cache directory as argv[1] (or set
// IDDQ_CACHE_DIR) and every (circuit, method, seed, budget) point is served
// from the content-addressed result cache when it was computed before —
// a repeated run completes in seconds with identical numbers.
//
// `--service N` drives the same workload through the core::JobService
// path instead (one job per circuit, N workers, rows streamed) — the
// exact dispatch the batch server uses. Seeds there follow the job
// convention (per-method derived from the job's base seed), so the
// numbers are a deterministic job-path variant of the direct run, not a
// byte-for-byte replay of it.
//
// `--threads N` evaluates each run's ES descendants on a shared N-thread
// ExecutorPool — rows are byte-identical for any N, only the wall clock
// changes. `--json FILE` additionally emits the machine-readable rows and
// wall-clock times (convention: BENCH_table1.json in the repo root) so
// the perf trajectory is tracked across PRs.
//
// `--coverage` additionally grades every partition by measured IDDQ fault
// coverage (docs/coverage.md: mixed fault model, 128 patterns, set-cover
// minimized) and appends cov/pattern columns. Coverage columns and JSON
// fields appear ONLY with the flag, so the committed BENCH_table1.json
// stays comparable across PRs that don't opt in.
//
// `--pareto` (requires --coverage) appends each circuit's non-dominated
// (relative sensor-area overhead, measured fault coverage) method points —
// the trade-off view of the same rows (src/report/pareto.hpp).
//
// `--tier big` swaps the six Table-1 stand-ins for the large-circuit
// ladder (big_dag10k / big_dag30k / big_dag100k / ila64x32 / mult64,
// ~10k-100k gates) that the scaling work is measured on. The paper
// columns disappear — the 1995 paper has no numbers at these sizes —
// and the JSON gains a "tier" field (only when non-default, so existing
// BENCH_table1.json baselines stay comparable). `--only NAME` restricts
// any tier to one circuit; the CI big-smoke leg uses it to sweep just
// big_dag10k against a committed golden.
//
// Paper-reported reference values (where the 1995 scan is legible):
//   #modules:            2 / 3 / 4 / 6 / 5 / 6
//   std-vs-evo area:     +30.6% / +14.5% / +22.9% / +25.3% / +25.9% / +19.7%
//   delay overhead:      5.95E-2 vs 5.94E-2 (one circuit legible; both
//                        methods essentially identical)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/flow_engine.hpp"
#include "core/job_service.hpp"
#include "core/result_cache.hpp"
#include "library/cell_library.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "report/pareto.hpp"
#include "report/table.hpp"
#include "support/executor.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"

int main(int argc, char** argv) {
  using namespace iddq;
  std::optional<std::string> cache_dir;
  if (const char* env = std::getenv("IDDQ_CACHE_DIR")) cache_dir = env;
  std::size_t service_workers = 0;  // 0 = direct FlowEngine path
  std::size_t threads = support::ExecutorPool::env_threads();
  std::optional<std::string> json_path;
  bool coverage = false;
  bool pareto = false;
  std::string tier = "table1";
  std::optional<std::string> only;
  using namespace support::flags;
  support::FlagTable flags("bench_table1",
                           "usage: bench_table1 [cache-dir] [options]");
  flags.positionals(optional_text(cache_dir))
      .add("--service", "N",
           "run through the JobService path on N workers (default: direct "
           "FlowEngine runs)",
           positive_count(service_workers))
      .add("--threads", "N",
           "intra-run thread pool (default 1 or IDDQ_THREADS; identical rows)",
           positive_count(threads))
      .add("--json", "FILE", "also write the rows as JSON to FILE",
           optional_text(json_path))
      .add("--coverage", "",
           "grade every partition by measured IDDQ fault coverage",
           switch_on(coverage))
      .add("--pareto", "",
           "print each circuit's (area overhead, coverage) frontier; needs "
           "--coverage",
           switch_on(pareto))
      .add("--tier", "table1|big", "circuit ladder to sweep (default table1)",
           [&tier](const std::string& v) -> std::optional<std::string> {
             if (v != "table1" && v != "big")
               return "must be 'table1' or 'big'";
             tier = v;
             return std::nullopt;
           })
      .add("--only", "CIRCUIT", "sweep just this circuit of the tier",
           optional_text(only));
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
  if (pareto && !coverage)
    return flags.usage_error(
        "--pareto needs --coverage (its coverage axis comes from fault "
        "grading)");
  const bool big_tier = tier == "big";
  if (big_tier) {
    std::cout << "=== BIG tier: evolution-based vs standard partitioning "
                 "at 10k-100k gates ===\n";
    std::cout << "(scaling ladder from the in-tree generators; no paper "
                 "reference at these sizes)\n\n";
  } else {
    std::cout
        << "=== Table 1: evolution-based vs standard partitioning ===\n";
    std::cout << "(paper: Wunderlich et al., ED&TC 1995, section 5.1)\n\n";
  }

  // The sweep's circuit list. Table-1 circuits are the statistical ISCAS85
  // stand-ins from make_iscas_like; the BIG ladder names are loader
  // builtins (netlist::load_circuit) so the bench measures exactly what
  // `iddqsyn big_dag10k` would run.
  std::vector<std::string> circuit_names;
  std::vector<std::size_t> paper_idx;  // index into the paper_* arrays
  if (big_tier) {
    circuit_names = {"big_dag10k", "big_dag30k", "big_dag100k", "ila64x32",
                     "mult64"};
  } else {
    for (const auto name : netlist::gen::table1_circuit_names())
      circuit_names.emplace_back(name);
  }
  for (std::size_t i = 0; i < circuit_names.size(); ++i) paper_idx.push_back(i);
  if (only) {
    std::vector<std::string> kept_names;
    std::vector<std::size_t> kept_idx;
    for (std::size_t i = 0; i < circuit_names.size(); ++i) {
      if (circuit_names[i] == *only) {
        kept_names.push_back(circuit_names[i]);
        kept_idx.push_back(paper_idx[i]);
      }
    }
    if (kept_names.empty()) {
      std::cerr << "bench_table1: --only '" << *only << "' matches no "
                << tier << "-tier circuit; tier sweeps:";
      for (const auto& name : circuit_names) std::cerr << ' ' << name;
      std::cerr << "\n";
      return 1;
    }
    circuit_names = std::move(kept_names);
    paper_idx = std::move(kept_idx);
  }
  const auto load_tier_circuit = [&](const std::string& name) {
    return big_tier ? netlist::load_circuit(name)
                    : netlist::gen::make_iscas_like(name);
  };
  // Open the JSON sink up front: an unwritable path must fail before the
  // sweep (minutes uncached), not after it.
  std::optional<std::ofstream> json_out;
  if (json_path) {
    json_out.emplace(*json_path);
    if (!*json_out) {
      std::cerr << "bench_table1: cannot write " << *json_path << "\n";
      return 1;
    }
  }
  std::optional<core::ResultCache> cache;
  if (cache_dir) {
    cache.emplace(*cache_dir);
    std::cout << "(result cache: " << *cache_dir << ", " << cache->size()
              << " entries loaded)\n\n";
  }
  if (service_workers > 0)
    std::cout << "(job-service path: " << service_workers
              << " workers, per-method derived seeds)\n\n";
  if (threads > 1)
    std::cout << "(intra-run parallelism: " << threads
              << " threads, byte-identical rows)\n\n";

  const auto library = lib::default_library();
  const double paper_overhead_pct[] = {30.6, 14.5, 22.9, 25.3, 25.9, 19.7};
  const std::size_t paper_modules[] = {2, 3, 4, 6, 5, 6};

  // Paper reference columns only exist on the table-1 tier; the 1995
  // paper reports nothing at BIG-ladder sizes.
  std::vector<std::string> headers =
      big_tier
          ? std::vector<std::string>{"circuit", "gates", "#mod", "area(evo)",
                                     "area(std)", "std ovh", "c2(evo)",
                                     "c2(std)", "c4(evo)", "c4(std)", "time"}
          : std::vector<std::string>{"circuit", "gates", "#mod",
                                     "#mod(paper)", "area(evo)", "area(std)",
                                     "std ovh", "ovh(paper)", "c2(evo)",
                                     "c2(std)", "c4(evo)", "c4(std)", "time"};
  if (coverage) {
    headers.insert(headers.end() - 1,
                   {"cov(evo)", "cov(std)", "pat(evo)", "pat(std)"});
    std::cout << "(fault-grade coverage: mixed model, 128 patterns, "
                 "set-cover minimized)\n\n";
  }
  report::TextTable table(headers);

  support::ExecutorPool pool(threads);
  core::FlowEngineConfig engine_config = bench::paper_flow_config();
  const std::uint64_t seed = bench::kPaperSeed;
  engine_config.pool = &pool;
  if (coverage) {
    engine_config.coverage.enabled = true;
    engine_config.coverage.fault_model = "mixed";
    engine_config.coverage.patterns = 128;
    engine_config.coverage.minimize = true;
  }
  if (cache) engine_config.cache = &*cache;

  // Job-service path: one job per circuit, all submitted up front, sharded
  // over the worker pool; rows come back through the same JobService the
  // batch server dispatches on. The loop below then waits in table order.
  std::optional<core::JobService> service;
  std::vector<core::JobHandle> handles;
  const auto sweep_start = std::chrono::steady_clock::now();
  if (service_workers > 0) {
    core::JobServiceConfig service_config;
    service_config.workers = service_workers;
    service_config.flow = engine_config;
    service.emplace(library, std::move(service_config));
    // Builtin table-1 circuits are statistical stand-ins produced by
    // make_iscas_like, not the CLI loader's builtins; BIG-ladder names
    // ARE loader builtins.
    service->set_circuit_loader(load_tier_circuit);
    for (const auto& name : circuit_names) {
      core::JobSpec spec;
      spec.circuit = name;
      spec.methods = {"evolution", "standard"};
      spec.base_seed = seed;
      handles.push_back(service->submit(std::move(spec)));
    }
  }

  struct JsonRow {
    std::string circuit;
    std::size_t gates = 0;
    core::MethodResult evolution;
    core::MethodResult standard;
    double overhead_pct = 0.0;
    double seconds = 0.0;
  };
  std::vector<JsonRow> json_rows;

  std::size_t idx = 0;
  for (const auto& name : circuit_names) {
    const auto t0 = std::chrono::steady_clock::now();

    core::PaperPair pair;
    std::size_t gate_count = 0;
    if (service_workers > 0) {
      const core::JobResult& job = handles[idx].wait();
      if (!job.ok()) {
        std::cerr << "table1: " << name << ": " << job.error << "\n";
        return 1;
      }
      pair = {job.rows.at(0), job.rows.at(1)};
      gate_count = load_tier_circuit(name).logic_gate_count();
    } else {
      const auto nl = load_tier_circuit(name);
      gate_count = nl.logic_gate_count();
      core::FlowEngine engine(nl, library, engine_config);
      pair = engine.run_paper_pair(seed);
    }
    const auto& [evolution, standard] = pair;

    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() -
            (service_workers > 0 ? sweep_start : t0))
            .count();
    const double overhead_pct =
        core::standard_area_overhead_pct(evolution, standard);

    if (json_out || pareto)
      json_rows.push_back(
          {name, gate_count, evolution, standard, overhead_pct, seconds});
    std::vector<std::string> cells{
        name,
        std::to_string(gate_count),
        std::to_string(evolution.module_count)};
    if (!big_tier)
      cells.push_back(std::to_string(paper_modules[paper_idx[idx]]));
    cells.push_back(report::format_eng(evolution.sensor_area));
    cells.push_back(report::format_eng(standard.sensor_area));
    cells.push_back(report::format_pct(overhead_pct, /*already_pct=*/true));
    if (!big_tier)
      cells.push_back(
          report::format_pct(paper_overhead_pct[paper_idx[idx]], true));
    cells.push_back(report::format_eng(evolution.delay_overhead));
    cells.push_back(report::format_eng(standard.delay_overhead));
    cells.push_back(report::format_eng(evolution.test_overhead));
    cells.push_back(report::format_eng(standard.test_overhead));
    if (coverage) {
      cells.push_back(
          report::format_pct(evolution.fault_coverage_pct, true));
      cells.push_back(report::format_pct(standard.fault_coverage_pct, true));
      cells.push_back(std::to_string(evolution.patterns_minimized) + "/" +
                      std::to_string(evolution.patterns_used));
      cells.push_back(std::to_string(standard.patterns_minimized) + "/" +
                      std::to_string(standard.patterns_used));
    }
    cells.push_back(report::format_fixed(seconds, 1) + "s");
    table.add_row(cells);
    ++idx;
  }
  table.print(std::cout);

  if (pareto) {
    // The method trade-off the table's columns imply, made explicit: per
    // circuit, which methods are worth their area. Overhead is relative
    // to the circuit's cheapest graded method, same as iddqsyn --pareto.
    std::cout << "\npareto frontier (area overhead vs measured coverage):\n";
    for (const auto& row : json_rows) {
      std::vector<report::ParetoPoint> points;
      const double min_area = std::min(row.evolution.sensor_area,
                                       row.standard.sensor_area);
      if (min_area <= 0.0) continue;
      for (const core::MethodResult* r : {&row.evolution, &row.standard})
        points.push_back({r->method,
                          (r->sensor_area / min_area - 1.0) * 100.0,
                          r->fault_coverage_pct});
      for (const std::size_t i : report::pareto_front(points))
        std::cout << "  " << row.circuit << ": pareto method="
                  << points[i].label << " area_ovh="
                  << report::format_pct(points[i].area_overhead_pct, true)
                  << " cov="
                  << report::format_pct(points[i].coverage_pct, true)
                  << "\n";
    }
  }

  const double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  if (json_out) {
    // One object per run; a tracking script appends/compares them across
    // PRs. 17 significant digits round-trip doubles exactly, so the rows
    // double as a byte-identity witness for --threads sweeps.
    json::JsonWriter rows(json::JsonWriter::Kind::Array);
    for (const auto& row : json_rows) {
      json::JsonWriter r;
      r.field("circuit", row.circuit)
          .field("gates", static_cast<std::uint64_t>(row.gates))
          .field("modules",
                 static_cast<std::uint64_t>(row.evolution.module_count))
          .field("sensor_area_evolution", row.evolution.sensor_area)
          .field("sensor_area_standard", row.standard.sensor_area)
          .field("std_area_overhead_pct", row.overhead_pct)
          .field("delay_overhead_evolution", row.evolution.delay_overhead)
          .field("delay_overhead_standard", row.standard.delay_overhead)
          .field("test_overhead_evolution", row.evolution.test_overhead)
          .field("test_overhead_standard", row.standard.test_overhead)
          .field("cost_evolution", row.evolution.fitness.cost)
          .field("evaluations",
                 static_cast<std::uint64_t>(row.evolution.evaluations))
          .field("seconds", row.seconds);
      // Coverage fields only with --coverage: the committed
      // BENCH_table1.json must stay drift-free for default runs.
      if (coverage) {
        r.field("fault_coverage_pct_evolution",
                row.evolution.fault_coverage_pct)
            .field("fault_coverage_pct_standard",
                   row.standard.fault_coverage_pct)
            .field("faults_total",
                   static_cast<std::uint64_t>(row.evolution.faults_total))
            .field("patterns_minimized_evolution",
                   static_cast<std::uint64_t>(
                       row.evolution.patterns_minimized))
            .field("patterns_minimized_standard",
                   static_cast<std::uint64_t>(
                       row.standard.patterns_minimized));
      }
      rows.element_raw(std::move(r).str());
    }
    const char* fast = std::getenv("IDDQSYN_BENCH_FAST");
    json::JsonWriter doc;
    doc.field("bench", "table1");
    // Only emitted off the default tier so pre-tier BENCH_table1.json
    // baselines stay comparable (bench_compare: absent == "table1").
    if (big_tier) doc.field("tier", tier);
    doc.field("fast", fast != nullptr && std::string(fast) == "1")
        // Row "seconds" semantics differ per mode — only compare files
        // with matching seconds_kind (and fast/threads) across PRs.
        .field("seconds_kind", service_workers > 0
                                   ? "sweep_offset"   // overlapping jobs
                                   : "per_circuit")   // true per-run time
        .field("threads", static_cast<std::uint64_t>(threads));
    // Only emitted when grading: keeps default-run docs byte-compatible
    // with pre-coverage baselines (bench_compare treats the absent field
    // and a default run as the same population).
    if (coverage) doc.field("coverage", true);
    doc.field("service_workers",
               static_cast<std::uint64_t>(service_workers))
        .field("cached", cache.has_value())
        .field("total_seconds", total_seconds)
        .field_raw("rows", std::move(rows).str());
    *json_out << std::move(doc).str() << "\n";
    json_out->flush();
    if (!*json_out) {
      std::cerr << "bench_table1: write to " << *json_path << " failed\n";
      return 1;
    }
    std::cout << "\n(json rows written to " << *json_path << ")\n";
  }

  if (cache)
    std::cout << "\ncache: " << cache->hits() << " hits, " << cache->misses()
              << " misses (" << cache->size() << " entries)\n";

  if (big_tier) {
    std::cout <<
        "\nnotes:\n"
        "  * ladder circuits are deterministic generator builtins\n"
        "    (big_dag<N>k: NAND-heavy random DAGs, ila64x32: AND/EXOR\n"
        "    iterative logic array, mult64: 64x64 NOR-cell array\n"
        "    multiplier); `iddqsyn <name>` runs the identical netlists.\n"
        "  * rows are byte-identical at any --threads, same as table1;\n"
        "    the committed BENCH_big.json is the drift gate.\n";
    return 0;
  }
  std::cout <<
      "\nnotes:\n"
      "  * circuits are statistical ISCAS85 stand-ins (c6288: real 16x16\n"
      "    array multiplier); see DESIGN.md section 2 for the substitution.\n"
      "  * c6288 shows ~0% area gap: on a homogeneous NOR array the\n"
      "    pessimistic current estimator makes the sensor-area sum\n"
      "    provably partition-invariant (EXPERIMENTS.md discusses this\n"
      "    deviation from the paper's 25.9%).\n"
      "  * delay (c2) and test-time (c4) overheads are method-independent,\n"
      "    matching the paper's observation that standard partitioning\n"
      "    shows no performance advantage.\n";
  return 0;
}
