// iddqsyn — command-line driver for the BIC-sensor partitioning flow.
//
// Usage:
//   iddqsyn [options] <circuit> [<circuit> ...]
//
//   <circuit>             path to an ISCAS85 .bench file, or one of the
//                         built-in generators: c17, c1908, c2670, c3540,
//                         c5315, c6288, c7552, or a parametric family: an
//                         AND-EXOR iterative logic array ila<R>x<C> (2..256
//                         rows, 1..256 columns, e.g. ila8x8), a layered
//                         random DAG big_dag<N>k (1..128 thousand gates,
//                         e.g. big_dag10k), or an array multiplier mult<N>
//                         (width 2..64, e.g. mult64)
//
// Options:
//   --method NAMES        comma-separated optimizer specs from the registry
//                         (default: evolution,standard). Specs may compose
//                         stages with '+', e.g. evolution+greedy, or race a
//                         list on a shared budget with portfolio:, e.g.
//                         portfolio:evolution,annealing. Because portfolio
//                         specs contain commas, use ';' to separate methods
//                         when mixing them: --method "evolution;portfolio:
//                         evolution,annealing".
//   --jobs N              run circuits on N worker threads (default 1);
//                         results are identical for any N
//   --threads N           intra-run parallelism (default 1, or the
//                         IDDQ_THREADS environment variable): evaluate ES
//                         descendants and tabu candidate sets, and race
//                         portfolio members, on a shared N-thread pool;
//                         results are byte-identical for any N
//   --cache-dir DIR       content-addressed result cache: look up every
//                         (circuit, method, seed, budget) point in DIR
//                         before running it and store new results there
//                         (see docs/caching.md); prints hit/miss stats to
//                         stderr at the end (including corrupt-line counts
//                         when the cache file has degraded)
//   --no-cache            disable the cache even when --cache-dir is given
//   --cache-stats DIR     inspect DIR/results.jsonl (entries, duplicate
//                         keys, corrupt lines, hit-age histogram) and exit.
//                         With --submit ENDPOINT the DIR is ignored (pass
//                         "-"): the cache counters of the remote server —
//                         or the aggregate of an iddqsyn_cluster front-end
//                         — are fetched over the protocol's stats op
//   --cache-compact DIR   rewrite DIR/results.jsonl keeping only the last
//                         row per key, and exit
//   --pareto              after the summary rows, print each circuit's
//                         Pareto frontier over (relative sensor-area
//                         overhead, measured fault coverage) across the
//                         requested methods; needs --coverage
//                         (docs/coverage.md)
//   --submit ENDPOINT     client mode: send the job to an iddqsyn_server
//                         instead of running locally; ENDPOINT is a unix
//                         socket path, or host:port for a --listen TCP
//                         server (anything whose last ':'-suffix is a
//                         valid port parses as TCP). Rows stream back as
//                         they complete (docs/server.md)
//   --stall-ms N          (--submit only) sleep N ms after submitting
//                         before reading any events — a deliberately slow
//                         reader for backpressure tests and the stress
//                         harness (tools/ci.sh stress)
//   --progress            stream optimizer progress to stderr (live per-
//                         generation/per-step ticks)
//   --list-methods        print the registered optimizer names and exit
//   -o FILE               write the first method's partition to FILE
//                         (single-circuit runs only)
//   --lib FILE            load a cell library (default: built-in 5V CMOS)
//   --rail MV             virtual-rail perturbation limit r (default 200)
//   --disc D              required discriminability d (default 10)
//   --seed N              base seed (default 42); per-circuit/method seeds
//                         are derived deterministically from it
//   --generations N       ES generation cap (default 350, must be >= 1)
//   --retime              run partition-aware wave retiming afterwards
//                         (single-circuit runs only)
//   --quiet               only print the summary rows
//   --help                this text
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
#include "library/cell_library.hpp"
#include "library/lib_io.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/stats.hpp"
#include "partition/partition_io.hpp"
#include "report/pareto.hpp"
#include "report/table.hpp"
#include "sim/coverage.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
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
  std::size_t threads = 0;  // 0 = IDDQ_THREADS default (1 when unset)
  std::optional<std::string> cache_dir;
  bool no_cache = false;
  std::size_t cache_resident = 0;  // 0 = unbounded residency
  std::optional<std::string> cache_stats_dir;
  std::optional<std::string> cache_compact_dir;
  bool coverage = false;
  std::string fault_model = "mixed";
  std::size_t patterns = 256;
  bool minimize_patterns = false;
  bool pareto = false;
  std::optional<std::string> submit_socket;
  std::size_t stall_ms = 0;  // test hook: delay before draining events
  std::size_t deadline_ms = 0;  // per-job deadline shipped with the submit
  bool progress = false;
  std::optional<std::string> output_path;
  std::optional<std::string> lib_path;
  double rail_mv = 200.0;
  double disc = 10.0;
  std::uint64_t seed = 42;
  std::size_t generations = 350;
  bool retime = false;
  bool quiet = false;
};

void print_usage(std::ostream& os) {
  os << "usage: iddqsyn [options] <circuit.bench | c17 | c1908 | c2670 | "
        "c3540 | c5315 | c6288 | c7552 | ila<R>x<C> | big_dag<N>k | "
        "mult<N>> [<circuit> ...]\n"
        "  --method NAMES   comma-separated optimizer specs "
        "(default: evolution,standard)\n"
        "  --jobs N         worker threads over circuits (default 1)\n"
        "  --threads N      intra-run thread pool (default 1 or "
        "IDDQ_THREADS; identical results for any N)\n"
        "  --cache-dir DIR  content-addressed result cache (docs/caching.md)\n"
        "  --no-cache       disable the cache even with --cache-dir\n"
        "  --cache-resident N   cap in-memory cache entries (LRU eviction "
        "to disk; default 0 = unbounded)\n"
        "  --cache-stats DIR    inspect DIR/results.jsonl and exit\n"
        "  --cache-compact DIR  drop shadowed cache rows and exit\n"
        "  --coverage       grade each row's partition by measured IDDQ "
        "fault coverage (docs/coverage.md)\n"
        "  --fault-model M  coverage fault model: mixed | bridges | shorts "
        "| bridges=N[,shorts=M] (default mixed)\n"
        "  --patterns N     coverage test patterns (default 256)\n"
        "  --minimize-patterns  greedy set-cover pattern minimization\n"
        "  --pareto         print each circuit's (area overhead, fault "
        "coverage) Pareto frontier; needs --coverage\n"
        "  --submit ENDPOINT  send the job to an iddqsyn_server (unix "
        "socket path, or host:port for TCP)\n"
        "  --stall-ms N     (--submit only) sleep N ms before reading "
        "events — a deliberately slow reader for stress tests\n"
        "  --deadline-ms N  (--submit only) per-job deadline: jobs past N "
        "ms of wall clock fail with reason \"timeout\"\n"
        "  --progress       stream optimizer progress to stderr\n"
        "  --list-methods   print registered optimizer names and exit\n"
        "  -o FILE          write the first method's partition to FILE "
        "(one circuit only)\n"
        "  --lib FILE       cell library file (default: built-in 5V CMOS)\n"
        "  --rail MV        rail perturbation limit r in mV (default 200, "
        "> 0)\n"
        "  --disc D         required discriminability d (default 10, > 0)\n"
        "  --seed N         base seed (default 42)\n"
        "  --generations N  ES generation cap (default 350, >= 1)\n"
        "  --retime         partition-aware wave retiming (one circuit "
        "only)\n"
        "  --quiet          summary rows only\n";
}

void print_methods(std::ostream& os) {
  os << "registered optimizers:";
  for (const auto& name : core::OptimizerRegistry::global().names())
    os << ' ' << name;
  os << "\ncompose polish stages with '+', e.g. evolution+greedy\n"
        "race methods on a shared budget with 'portfolio:', e.g. "
        "portfolio:evolution,annealing\n";
}

std::optional<CliOptions> parse(int argc, char** argv) {
  CliOptions opts;
  bool fault_model_set = false;
  bool patterns_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "iddqsyn: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--list-methods") {
      print_methods(std::cout);
      std::exit(0);
    } else if (arg == "--method") {
      const auto v = need_value("--method");
      if (!v) return std::nullopt;
      opts.methods.clear();
      // Portfolio specs contain commas, so ';' separates methods when
      // present; a ';'-free value containing a portfolio is one spec.
      std::vector<std::string_view> pieces;
      if (v->find(';') != std::string::npos)
        pieces = str::split(*v, ';');
      else if (v->find("portfolio:") != std::string::npos)
        pieces.push_back(str::trim(*v));
      else
        pieces = str::split(*v, ',');
      for (const auto piece : pieces)
        if (!piece.empty()) opts.methods.emplace_back(piece);
      if (opts.methods.empty()) {
        std::cerr << "iddqsyn: --method needs at least one name\n";
        return std::nullopt;
      }
    } else if (arg == "--jobs") {
      const auto v = need_value("--jobs");
      if (!v || !str::parse_size(*v, opts.jobs) || opts.jobs == 0) {
        std::cerr << "iddqsyn: --jobs must be a positive integer\n";
        return std::nullopt;
      }
    } else if (arg == "--threads") {
      const auto v = need_value("--threads");
      if (!v || !str::parse_size(*v, opts.threads) || opts.threads == 0) {
        std::cerr << "iddqsyn: --threads must be a positive integer\n";
        return std::nullopt;
      }
    } else if (arg == "--cache-dir") {
      const auto v = need_value("--cache-dir");
      if (!v) return std::nullopt;
      opts.cache_dir = *v;
    } else if (arg == "--no-cache") {
      opts.no_cache = true;
    } else if (arg == "--cache-resident") {
      const auto v = need_value("--cache-resident");
      if (!v || !str::parse_size(*v, opts.cache_resident) ||
          opts.cache_resident == 0) {
        std::cerr << "iddqsyn: --cache-resident must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--coverage") {
      opts.coverage = true;
    } else if (arg == "--fault-model") {
      const auto v = need_value("--fault-model");
      if (!v) return std::nullopt;
      opts.fault_model = *v;
      fault_model_set = true;
    } else if (arg == "--patterns") {
      const auto v = need_value("--patterns");
      if (!v || !str::parse_size(*v, opts.patterns) || opts.patterns == 0) {
        std::cerr << "iddqsyn: --patterns must be >= 1\n";
        return std::nullopt;
      }
      patterns_set = true;
    } else if (arg == "--minimize-patterns") {
      opts.minimize_patterns = true;
    } else if (arg == "--pareto") {
      opts.pareto = true;
    } else if (arg == "--cache-stats") {
      const auto v = need_value("--cache-stats");
      if (!v) return std::nullopt;
      opts.cache_stats_dir = *v;
    } else if (arg == "--cache-compact") {
      const auto v = need_value("--cache-compact");
      if (!v) return std::nullopt;
      opts.cache_compact_dir = *v;
    } else if (arg == "--submit") {
      const auto v = need_value("--submit");
      if (!v) return std::nullopt;
      opts.submit_socket = *v;
    } else if (arg == "--stall-ms") {
      const auto v = need_value("--stall-ms");
      if (!v || !str::parse_size(*v, opts.stall_ms)) {
        std::cerr << "iddqsyn: --stall-ms must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--deadline-ms") {
      const auto v = need_value("--deadline-ms");
      if (!v || !str::parse_size(*v, opts.deadline_ms) ||
          opts.deadline_ms == 0) {
        std::cerr << "iddqsyn: --deadline-ms must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--progress") {
      opts.progress = true;
    } else if (arg == "-o") {
      const auto v = need_value("-o");
      if (!v) return std::nullopt;
      opts.output_path = *v;
    } else if (arg == "--lib") {
      const auto v = need_value("--lib");
      if (!v) return std::nullopt;
      opts.lib_path = *v;
    } else if (arg == "--rail") {
      const auto v = need_value("--rail");
      if (!v || !str::parse_double(*v, opts.rail_mv)) return std::nullopt;
      if (opts.rail_mv <= 0.0) {
        std::cerr << "iddqsyn: --rail must be > 0 mV (got " << *v << ")\n";
        return std::nullopt;
      }
    } else if (arg == "--disc") {
      const auto v = need_value("--disc");
      if (!v || !str::parse_double(*v, opts.disc)) return std::nullopt;
      if (opts.disc <= 0.0) {
        std::cerr << "iddqsyn: --disc must be > 0 (got " << *v << ")\n";
        return std::nullopt;
      }
    } else if (arg == "--seed") {
      const auto v = need_value("--seed");
      std::size_t seed = 0;
      if (!v || !str::parse_size(*v, seed)) return std::nullopt;
      opts.seed = seed;
    } else if (arg == "--generations") {
      const auto v = need_value("--generations");
      if (!v || !str::parse_size(*v, opts.generations) ||
          opts.generations == 0) {
        std::cerr << "iddqsyn: --generations must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--retime") {
      opts.retime = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "iddqsyn: unknown option '" << arg << "'\n";
      return std::nullopt;
    } else {
      opts.circuits.push_back(arg);
    }
  }
  // Cache-maintenance commands run without circuits and skip the rest of
  // the validation. (--cache-stats with --submit inspects a remote
  // server's cache over the protocol instead of a local directory.)
  if (opts.cache_stats_dir || opts.cache_compact_dir) return opts;
  if (opts.circuits.empty()) {
    std::cerr << "iddqsyn: at least one circuit argument expected\n";
    return std::nullopt;
  }
  if (opts.circuits.size() > 1 && (opts.output_path || opts.retime)) {
    std::cerr << "iddqsyn: -o/--retime need exactly one circuit\n";
    return std::nullopt;
  }
  if (opts.submit_socket && (opts.output_path || opts.retime)) {
    std::cerr << "iddqsyn: -o/--retime do not work in --submit mode\n";
    return std::nullopt;
  }
  if (opts.deadline_ms > 0 && !opts.submit_socket) {
    std::cerr << "iddqsyn: --deadline-ms only works in --submit mode\n";
    return std::nullopt;
  }
  if (opts.stall_ms > 0 && !opts.submit_socket) {
    std::cerr << "iddqsyn: --stall-ms only works in --submit mode\n";
    return std::nullopt;
  }
  if (opts.submit_socket && opts.threads > 0) {
    std::cerr << "iddqsyn: --threads has no effect in --submit mode "
                 "(set --threads on the server)\n";
    return std::nullopt;
  }
  if (!opts.coverage &&
      (fault_model_set || patterns_set || opts.minimize_patterns)) {
    std::cerr << "iddqsyn: --fault-model/--patterns/--minimize-patterns "
                 "need --coverage\n";
    return std::nullopt;
  }
  if (opts.submit_socket && opts.coverage) {
    std::cerr << "iddqsyn: --coverage has no effect in --submit mode "
                 "(enable coverage on the server)\n";
    return std::nullopt;
  }
  if (opts.pareto && opts.submit_socket) {
    std::cerr << "iddqsyn: --pareto does not work in --submit mode (run "
                 "it on locally printed rows)\n";
    return std::nullopt;
  }
  if (opts.pareto && !opts.coverage) {
    std::cerr << "iddqsyn: --pareto needs --coverage (the frontier's "
                 "coverage axis comes from fault grading)\n";
    return std::nullopt;
  }
  if (opts.coverage) {
    // Validate the spec grammar up front, like the method specs below.
    try {
      (void)sim::FaultModelSpec::parse(opts.fault_model);
    } catch (const Error& e) {
      std::cerr << "iddqsyn: " << e.what() << "\n";
      return std::nullopt;
    }
  }
  // Validate method specs up front so typos report the registry's names
  // instead of failing mid-batch.
  for (const auto& spec : opts.methods) {
    try {
      (void)core::OptimizerRegistry::global().make(spec);
    } catch (const Error& e) {
      std::cerr << "iddqsyn: " << e.what() << "\n";
      return std::nullopt;
    }
  }
  return opts;
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
  const auto tcp = support::parse_host_port(*opts.submit_socket);
  const auto channel = tcp ? support::connect_tcp(tcp->first, tcp->second)
                           : support::connect_unix_socket(*opts.submit_socket);

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
  const auto opts = parse(argc, argv);
  if (!opts) {
    print_usage(std::cerr);
    return 1;
  }
  try {
    if (opts->cache_stats_dir && opts->submit_socket)
      return run_remote_cache_stats(*opts);
    if (opts->cache_stats_dir || opts->cache_compact_dir)
      return run_cache_maintenance(*opts);
    if (opts->submit_socket) return run_submit_client(*opts);

    const auto library = opts->lib_path
                             ? lib::read_library_file(*opts->lib_path)
                             : lib::default_library();

    core::FlowEngineConfig config;
    config.sensor.r_max_mv = opts->rail_mv;
    config.sensor.d_min = opts->disc;
    config.optimizers.es.max_generations = opts->generations;
    config.coverage.enabled = opts->coverage;
    config.coverage.fault_model = opts->fault_model;
    config.coverage.patterns = opts->patterns;
    config.coverage.minimize = opts->minimize_patterns;

    // One pool shared by all --jobs workers (bounded fan-out); declared
    // before the service so it outlives every optimizer run.
    support::ExecutorPool pool(
        support::ExecutorPool::from_option(opts->threads));
    config.pool = &pool;

    std::optional<core::ResultCache> cache;
    if (opts->cache_dir && !opts->no_cache) {
      cache.emplace(*opts->cache_dir);
      if (opts->cache_resident > 0)
        cache->set_max_resident(opts->cache_resident);
      config.cache = &*cache;
    }
    if (opts->progress) {
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
    sweep.circuits = opts->circuits;
    sweep.methods = opts->methods;
    sweep.seed = opts->seed;
    core::JobServiceConfig service_config;
    service_config.workers = std::min(opts->jobs, sweep.circuits.size());
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
      if (!opts->quiet)
        std::cout << result.circuit << ": K=" << result.plan.module_count
                  << " planned (leakage bound " << result.plan.k_min_leakage
                  << ", target module size "
                  << result.plan.target_module_size << ")\n";
      for (const auto& r : result.rows)
        print_method_row(std::cout, result.circuit, r);
      if (opts->pareto)
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

    if (opts->circuits.size() == 1)
      return finish_single_circuit(*opts, handles.front().wait(), library);
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn: " << e.what() << "\n";
    return 2;
  }
}
