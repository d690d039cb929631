// iddqsyn — command-line driver for the BIC-sensor partitioning flow.
//
//   iddqsyn [options] <circuit> [<circuit> ...]
//
// A circuit is an ISCAS85 .bench path or a built-in generator name (README,
// "Built-in circuits"). `iddqsyn --help` lists every option; the flags
// shared with iddqsyn_server are declared once in core/tool_flags.hpp.
//
// One summary row is printed per (circuit, method) pair, in argument order.
// Exit code 0 on success, 1 on bad usage, 2 on flow errors.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/flow_engine.hpp"
#include "core/job_service.hpp"
#include "core/result_cache.hpp"
#include "core/resynth.hpp"
#include "core/tool_flags.hpp"
#include "library/cell_library.hpp"
#include "library/lib_io.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/stats.hpp"
#include "partition/partition_io.hpp"
#include "report/pareto.hpp"
#include "report/table.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/transport.hpp"

namespace {

using namespace iddq;

struct CliOptions {
  std::vector<std::string> circuits;
  std::vector<std::string> methods{"evolution", "standard"};
  std::size_t jobs = 1;
  core::EngineFlags engine;
  core::FlowEngineConfig flow;
  bool no_cache = false;
  std::optional<std::string> cache_stats_dir;
  std::optional<std::string> cache_compact_dir;
  bool pareto = false;
  std::optional<std::string> submit_socket;
  std::size_t stall_ms = 0;  // test hook: delay before draining events
  std::size_t deadline_ms = 0;  // per-job deadline shipped with the submit
  bool progress = false;
  bool list_methods = false;
  std::optional<std::string> output_path;
  std::size_t seed = 42;
  bool retime = false;
  bool quiet = false;
};

void print_methods(std::ostream& os) {
  os << "registered optimizers:";
  for (const auto& name : core::OptimizerRegistry::global().names())
    os << ' ' << name;
  os << "\ncompose polish stages with '+', e.g. evolution+greedy\n"
        "race methods on a shared budget with 'portfolio:', e.g. "
        "portfolio:evolution,annealing\n";
}

// Portfolio specs contain commas, so ';' separates methods when present;
// a ';'-free value containing a portfolio is one spec. Specs are checked
// against the registry here, so a typo reports the registry's names
// instead of failing mid-batch.
std::optional<std::string> set_methods(std::vector<std::string>& methods,
                                       const std::string& value) {
  std::vector<std::string_view> pieces;
  if (value.find(';') != std::string::npos)
    pieces = str::split(value, ';');
  else if (value.find("portfolio:") != std::string::npos)
    pieces.push_back(str::trim(value));
  else
    pieces = str::split(value, ',');
  methods.clear();
  for (const auto piece : pieces)
    if (!piece.empty()) methods.emplace_back(piece);
  if (methods.empty()) return "needs at least one name";
  for (const auto& spec : methods) {
    try {
      (void)core::OptimizerRegistry::global().make(spec);
    } catch (const Error& e) {
      return e.what();
    }
  }
  return std::nullopt;
}

support::FlagTable cli_flags(CliOptions& opts) {
  using namespace support::flags;
  support::FlagTable flags(
      "iddqsyn",
      "usage: iddqsyn [options] <circuit.bench | c17 | c1908 | c2670 | "
      "c3540 | c5315 | c6288 | c7552 | ila<R>x<C> | big_dag<N>k | "
      "mult<N>> [<circuit> ...]");
  flags.positionals(append(opts.circuits));
  flags
      .add("--method", "NAMES",
           "comma-separated optimizer specs (default: evolution,standard); "
           "separate with ';' when a portfolio: spec is present",
           [&opts](const std::string& v) {
             return set_methods(opts.methods, v);
           })
      .add("--jobs", "N", "worker threads over circuits (default 1)",
           positive_count(opts.jobs))
      .add("--seed", "N",
           "base seed (default 42); per-circuit/method seeds derive from it",
           size_at_least(opts.seed, 0));
  core::add_flow_flags(flags, opts.flow);
  core::add_engine_flags(flags, opts.engine);
  flags
      .add("--no-cache", "", "disable the cache even with --cache-dir",
           switch_on(opts.no_cache))
      .add("--cache-stats", "DIR",
           "inspect DIR/results.jsonl and exit (with --submit: the "
           "server's cache counters)",
           optional_text(opts.cache_stats_dir))
      .add("--cache-compact", "DIR", "drop shadowed cache rows and exit",
           optional_text(opts.cache_compact_dir))
      .add("--pareto", "",
           "print each circuit's (area overhead, fault coverage) Pareto "
           "frontier; needs --coverage",
           switch_on(opts.pareto))
      .add("--submit", "ENDPOINT",
           "send the job to an iddqsyn_server (unix socket path, or "
           "host:port for TCP)",
           optional_text(opts.submit_socket))
      .add("--stall-ms", "N",
           "(--submit only) sleep N ms before reading events — a "
           "deliberately slow reader for stress tests",
           size_at_least(opts.stall_ms, 0))
      .add("--deadline-ms", "N",
           "(--submit only) per-job deadline: jobs past N ms of wall clock "
           "fail with reason \"timeout\"",
           size_at_least(opts.deadline_ms, 1))
      .add("--progress", "", "stream optimizer progress to stderr",
           switch_on(opts.progress))
      .add("--list-methods", "", "print registered optimizer names and exit",
           switch_on(opts.list_methods))
      .add("-o", "FILE",
           "write the first method's partition to FILE (one circuit only)",
           optional_text(opts.output_path))
      .add("--retime", "", "partition-aware wave retiming (one circuit only)",
           switch_on(opts.retime))
      .add("--quiet", "", "summary rows only", switch_on(opts.quiet));
  return flags;
}

// The cross-flag rules a single flag's setter cannot check; returns the
// usage error, if any.
std::optional<std::string> validate(const CliOptions& opts,
                                    const support::FlagTable& flags) {
  // Cache-maintenance commands run without circuits and skip the rest of
  // the validation. (--cache-stats with --submit inspects a remote
  // server's cache over the protocol instead of a local directory.)
  if (opts.cache_stats_dir || opts.cache_compact_dir) return std::nullopt;
  if (opts.circuits.empty()) return "at least one circuit argument expected";
  if (opts.circuits.size() > 1 && (opts.output_path || opts.retime))
    return "-o/--retime need exactly one circuit";
  if (opts.submit_socket && (opts.output_path || opts.retime))
    return "-o/--retime do not work in --submit mode";
  if (opts.deadline_ms > 0 && !opts.submit_socket)
    return "--deadline-ms only works in --submit mode";
  if (opts.stall_ms > 0 && !opts.submit_socket)
    return "--stall-ms only works in --submit mode";
  if (opts.submit_socket && opts.engine.threads > 0)
    return "--threads has no effect in --submit mode (set --threads on the "
           "server)";
  if (!opts.flow.coverage.enabled &&
      (flags.seen("--fault-model") || flags.seen("--patterns") ||
       flags.seen("--minimize-patterns")))
    return "--fault-model/--patterns/--minimize-patterns need --coverage";
  if (opts.submit_socket && opts.flow.coverage.enabled)
    return "--coverage has no effect in --submit mode (enable coverage on "
           "the server)";
  if (opts.pareto && opts.submit_socket)
    return "--pareto does not work in --submit mode (run it on locally "
           "printed rows)";
  if (opts.pareto && !opts.flow.coverage.enabled)
    return "--pareto needs --coverage (the frontier's coverage axis comes "
           "from fault grading)";
  return std::nullopt;
}

void print_method_row(std::ostream& os, const std::string& circuit,
                      const core::MethodResult& r) {
  os << circuit << ": method=" << r.method << " K=" << r.module_count
     << " cost=" << report::format_fixed(r.fitness.cost, 1)
     << " sensor_area=" << report::format_eng(r.sensor_area)
     << " delay_ovh=" << report::format_pct(r.delay_overhead)
     << " test_ovh=" << report::format_pct(r.test_overhead)
     << " evals=" << r.evaluations
     << " feasible=" << (r.fitness.feasible() ? "yes" : "NO");
  if (r.has_coverage)
    os << " cov=" << report::format_pct(r.fault_coverage_pct,
                                        /*already_pct=*/true)
       << " faults=" << r.faults_detected << "/" << r.faults_total
       << " patterns=" << r.patterns_minimized << "/" << r.patterns_used;
  os << "\n";
}

// --pareto: one frontier per circuit over (relative sensor-area overhead,
// measured fault coverage). Overhead is relative to the cheapest graded
// row of the SAME circuit — the frontier compares methods against each
// other, not against an absolute area scale that differs per circuit.
void print_pareto_front(std::ostream& os, const std::string& circuit,
                        const std::vector<core::MethodResult>& rows) {
  std::vector<report::ParetoPoint> points;
  double min_area = 0.0;
  for (const auto& r : rows) {
    if (!r.has_coverage || r.sensor_area <= 0.0) continue;
    if (points.empty() || r.sensor_area < min_area)
      min_area = r.sensor_area;
    points.push_back({r.method, r.sensor_area, r.fault_coverage_pct});
  }
  if (points.empty()) return;
  for (auto& p : points)
    p.area_overhead_pct = (p.area_overhead_pct / min_area - 1.0) * 100.0;
  for (const std::size_t i : report::pareto_front(points)) {
    os << circuit << ": pareto method=" << points[i].label << " area_ovh="
       << report::format_pct(points[i].area_overhead_pct,
                             /*already_pct=*/true)
       << " cov="
       << report::format_pct(points[i].coverage_pct, /*already_pct=*/true)
       << "\n";
  }
}

// Retiming + partition writing only apply to single-circuit runs; they act
// on the first method's partition, matching the historical CLI.
int finish_single_circuit(const CliOptions& opts,
                          const core::JobResult& result,
                          const lib::CellLibrary& library) {
  if (!opts.output_path && !opts.retime) return 0;  // nothing left to do
  const auto nl = netlist::load_circuit(opts.circuits.front());
  auto partition = result.rows.front().partition;
  const netlist::Netlist* final_nl = &nl;
  netlist::Netlist retimed_nl;  // populated only with --retime
  if (opts.retime) {
    std::vector<std::vector<netlist::GateId>> groups(
        partition.module_count());
    for (std::uint32_t m = 0; m < partition.module_count(); ++m) {
      const auto gates = partition.module(m);
      groups[m].assign(gates.begin(), gates.end());
    }
    auto rt = core::retime_for_iddq_partitioned(nl, library, groups);
    retimed_nl = std::move(rt.netlist);
    partition = part::Partition::from_groups(retimed_nl, rt.groups);
    final_nl = &retimed_nl;
    if (!opts.quiet)
      std::cout << "retiming: " << rt.buffers_added
                << " buffers, sum-of-peaks "
                << report::format_fixed(rt.sum_peak_before_ua / 1000.0, 1)
                << " -> "
                << report::format_fixed(rt.sum_peak_after_ua / 1000.0, 1)
                << " mA\n";
  }
  if (opts.output_path) {
    std::ofstream out(*opts.output_path);
    if (!out) throw Error("cannot open '" + *opts.output_path + "'");
    part::write_partition(out, *final_nl, partition);
    if (!opts.quiet)
      std::cout << "partition written to " << *opts.output_path << "\n";
  }
  return 0;
}

// --cache-stats / --cache-compact: maintenance over a sweep directory's
// results.jsonl, no circuits involved.
int run_cache_maintenance(const CliOptions& opts) {
  if (opts.cache_compact_dir) {
    const auto r = core::compact_cache_file(*opts.cache_compact_dir);
    std::cout << "cache-compact: kept " << r.kept << " rows, dropped "
              << r.dropped_duplicates << " shadowed + " << r.dropped_corrupt
              << " corrupt\n";
  }
  if (opts.cache_stats_dir) {
    const auto s = core::inspect_cache_file(*opts.cache_stats_dir);
    std::cout << "cache-stats: " << s.unique_keys << " entries in "
              << s.total_lines << " rows (" << s.duplicate_lines
              << " shadowed, " << s.corrupt_lines << " corrupt)\n";
    for (std::size_t b = 0; b < s.age_histogram.size(); ++b) {
      if (s.age_histogram[b] == 0) continue;
      std::cout << "  last write " << (std::size_t{1} << b) << ".."
                << ((std::size_t{2} << b) - 1)
                << " rows from end: " << s.age_histogram[b] << " entries\n";
    }
  }
  return 0;
}

// --cache-stats - --submit ENDPOINT: fetch a remote server's (or cluster
// front-end's) cache counters over the protocol's stats op. The local
// variant reads a directory this process can see; a --listen server's
// cache lives on another host, where only the protocol reaches it.
int run_remote_cache_stats(const CliOptions& opts) {
  const auto channel = support::connect_endpoint(*opts.submit_socket);
  if (!channel->write_line(json::JsonWriter().field("op", "stats").str()))
    throw Error("server connection lost during stats request");
  std::string line;
  while (channel->read_line(line)) {
    const auto event = json::JsonValue::parse(line);
    if (!event || !event->is_object()) continue;
    if (event->get_string("event") != "stats") continue;  // hello etc.
    std::cout << "cache-stats: " << *opts.submit_socket << ": ";
    if (event->find("cache_entries") == nullptr) {
      std::cout << "no cache configured (server runs without "
                   "--cache-dir)\n";
      return 0;
    }
    std::cout << event->get_u64("cache_entries") << " entries, "
              << event->get_u64("cache_hits") << " hits, "
              << event->get_u64("cache_misses") << " misses";
    // Cluster front-ends aggregate across their ring; surface the scope.
    if (const json::JsonValue* backends = event->find("backends"))
      if (std::uint64_t n = 0; backends->as_u64(n))
        std::cout << " across " << event->get_u64("backends_alive") << "/"
                  << n << " backends";
    std::cout << "\n";
    return 0;
  }
  throw Error("server connection ended before answering stats");
}

// --submit: client mode against an iddqsyn_server. Rows stream back (and
// print) in completion order, interleaved across circuits — that, not
// argument order, is the point of the server path. The endpoint is a TCP
// host:port when its last ':'-suffix parses as a port, a unix socket path
// otherwise; the protocol bytes are identical either way.
int run_submit_client(const CliOptions& opts) {
  const auto channel = support::connect_endpoint(*opts.submit_socket);

  json::JsonWriter circuits(json::JsonWriter::Kind::Array);
  for (const auto& c : opts.circuits) circuits.element(std::string_view(c));
  json::JsonWriter methods(json::JsonWriter::Kind::Array);
  for (const auto& m : opts.methods) methods.element(std::string_view(m));
  json::JsonWriter submit;
  submit.field("op", "submit")
      .field("id", "cli")
      .field_raw("circuits", circuits.str())
      .field_raw("methods", methods.str())
      .field("seed", opts.seed)
      .field("cache", !opts.no_cache);
  if (opts.deadline_ms > 0)
    submit.field("deadline_ms",
                 static_cast<std::uint64_t>(opts.deadline_ms));
  if (!channel->write_line(submit.str()))
    throw Error("server connection lost during submit");

  // Deliberately stop draining: events pile up in the server's bounded
  // per-session queue, exercising its backpressure policy.
  if (opts.stall_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.stall_ms));

  bool failed = false;
  bool sweep_complete = false;
  std::string line;
  while (channel->read_line(line)) {
    const auto event = json::JsonValue::parse(line);
    if (!event || !event->is_object()) continue;
    const std::string kind = event->get_string("event");
    if (kind == "row") {
      std::cout << event->get_string("circuit")
                << ": method=" << event->get_string("method")
                << " K=" << event->get_u64("modules")
                << " cost="
                << report::format_fixed(event->get_double("cost"), 1)
                << " sensor_area="
                << report::format_eng(event->get_double("sensor_area"))
                << " delay_ovh="
                << report::format_pct(event->get_double("delay_overhead"))
                << " test_ovh="
                << report::format_pct(event->get_double("test_overhead"))
                << " evals=" << event->get_u64("evaluations") << " feasible="
                << (event->get_bool("feasible", false) ? "yes" : "NO");
      // Coverage columns appear only when the server grades them; the
      // printed row then matches the direct CLI's byte for byte.
      if (event->find("fault_coverage_pct") != nullptr)
        std::cout << " cov="
                  << report::format_pct(
                         event->get_double("fault_coverage_pct"),
                         /*already_pct=*/true)
                  << " faults=" << event->get_u64("faults_detected") << "/"
                  << event->get_u64("faults_total")
                  << " patterns=" << event->get_u64("patterns_minimized")
                  << "/" << event->get_u64("patterns_used");
      std::cout << "\n";
    } else if (kind == "failed") {
      failed = true;
      std::cerr << "iddqsyn: " << event->get_string("circuit") << ": "
                << event->get_string("error") << "\n";
    } else if (kind == "error") {
      failed = true;
      std::cerr << "iddqsyn: server: " << event->get_string("message")
                << "\n";
    } else if (kind == "progress" && opts.progress) {
      std::cerr << "[progress] " << event->get_string("circuit") << " "
                << event->get_string("method")
                << ": iter=" << event->get_u64("iteration")
                << " evals=" << event->get_u64("evaluations") << " cost="
                << report::format_fixed(event->get_double("cost"), 1)
                << "\n";
    } else if (kind == "sweep_done") {
      sweep_complete = true;
      break;  // closing the connection ends the session, not the server
    }
  }
  if (!sweep_complete) {
    // A dead/restarted server must not look like a successful sweep.
    std::cerr << "iddqsyn: server connection ended before the sweep "
                 "completed\n";
    failed = true;
  }
  return failed ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  auto flags = cli_flags(opts);
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
  if (opts.list_methods) {
    print_methods(std::cout);
    return 0;
  }
  if (const auto problem = validate(opts, flags))
    return flags.usage_error(*problem);
  try {
    if (opts.cache_stats_dir && opts.submit_socket)
      return run_remote_cache_stats(opts);
    if (opts.cache_stats_dir || opts.cache_compact_dir)
      return run_cache_maintenance(opts);
    if (opts.submit_socket) return run_submit_client(opts);

    const auto library = opts.engine.lib_path
                             ? lib::read_library_file(*opts.engine.lib_path)
                             : lib::default_library();
    core::FlowEngineConfig& config = opts.flow;

    // One pool shared by all --jobs workers (bounded fan-out); declared
    // before the service so it outlives every optimizer run.
    support::ExecutorPool pool(
        support::ExecutorPool::from_option(opts.engine.threads));
    config.pool = &pool;

    std::optional<core::ResultCache> cache;
    if (opts.engine.cache_dir && !opts.no_cache) {
      cache.emplace(*opts.engine.cache_dir);
      if (opts.engine.cache_resident > 0)
        cache->set_max_resident(opts.engine.cache_resident);
      config.cache = &*cache;
    }
    if (opts.progress) {
      // Worker threads report concurrently; serialize the ticker lines.
      static std::mutex progress_mutex;
      config.on_progress = [](const core::OptimizerProgress& p) {
        const std::scoped_lock lock(progress_mutex);
        std::cerr << "[progress] " << p.method << ": iter=" << p.iteration
                  << " evals=" << p.evaluations
                  << " cost=" << report::format_fixed(p.best.cost, 1)
                  << (p.best.feasible() ? "" : " (infeasible)") << "\n";
      };
    }

    // One job per circuit on min(--jobs, #circuits) workers. Shard seeds
    // depend on the circuit's position alone, so the rows are byte-
    // identical for any --jobs.
    core::SubmitRequest sweep;
    sweep.circuits = opts.circuits;
    sweep.methods = opts.methods;
    sweep.seed = opts.seed;
    core::JobServiceConfig service_config;
    service_config.workers = std::min(opts.jobs, sweep.circuits.size());
    service_config.flow = config;
    core::JobService service(library, std::move(service_config));
    std::vector<core::JobHandle> handles;
    for (std::size_t i = 0; i < sweep.circuits.size(); ++i)
      handles.push_back(service.submit(core::shard_spec(sweep, i)));

    bool failed = false;
    for (const auto& handle : handles) {
      const core::JobResult& result = handle.wait();
      if (!result.ok()) {
        failed = true;
        std::cerr << "iddqsyn: " << result.circuit << ": " << result.error
                  << "\n";
        continue;
      }
      if (!opts.quiet)
        std::cout << result.circuit << ": K=" << result.plan.module_count
                  << " planned (leakage bound " << result.plan.k_min_leakage
                  << ", target module size "
                  << result.plan.target_module_size << ")\n";
      for (const auto& r : result.rows)
        print_method_row(std::cout, result.circuit, r);
      if (opts.pareto)
        print_pareto_front(std::cout, result.circuit, result.rows);
    }
    if (cache) {
      const auto hits = cache->hits();
      const auto misses = cache->misses();
      const auto total = hits + misses;
      std::cerr << "cache: " << hits << " hits, " << misses << " misses";
      if (total > 0)
        std::cerr << " ("
                  << report::format_pct(
                         static_cast<double>(hits) /
                             static_cast<double>(total) * 100.0,
                         /*already_pct=*/true)
                  << " hit rate, " << cache->size() << " entries, "
                  << cache->resident_size() << " resident)";
      if (cache->disk_hits() > 0 || cache->evictions() > 0)
        std::cerr << " [residency: " << cache->evictions() << " evictions, "
                  << cache->disk_hits() << " disk reloads]";
      // A silently-degraded cache file (truncated writes, foreign
      // content) would otherwise only show up as a slow sweep.
      if (cache->corrupt_lines() > 0)
        std::cerr << " [" << cache->corrupt_lines()
                  << " corrupt lines ignored; run --cache-compact]";
      std::cerr << "\n";
    }
    if (failed) return 2;

    if (opts.circuits.size() == 1)
      return finish_single_circuit(opts, handles.front().wait(), library);
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn: " << e.what() << "\n";
    return 2;
  }
}
