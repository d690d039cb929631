// iddqsyn_server — long-running job server for the BIC-sensor flow.
//
// Speaks the line-delimited JSON job protocol (docs/server.md) and fans
// submitted (circuit, method-set) sweeps out over a JobService worker
// pool, streaming MethodResult rows back as they complete. Repeated jobs
// are served from the shared content-addressed ResultCache when
// --cache-dir is given, so a sweep server amortizes every run it has ever
// done.
//
// Usage:
//   iddqsyn_server [options]
//
// Options:
//   --pipe            serve exactly one session on stdin/stdout (default;
//                     handy under a test harness or an ssh pipe)
//   --socket PATH     listen on a unix-domain socket instead; one session
//                     per connection, concurrently
//   --listen H:P      listen on a TCP host:port instead (port 0 picks an
//                     ephemeral port, announced on stderr); same protocol
//                     bytes as the unix-socket path
//   --workers N       JobService worker threads (default: hardware
//                     concurrency)
//   --threads N       intra-job parallelism: one shared ExecutorPool for
//                     ES/tabu candidate evaluation and portfolio racing
//                     across ALL workers (default 1 = serial; results are
//                     byte-identical for any N)
//   --max-queue N     reject submits once N jobs are queued (protocol
//                     `error` event; default 0 = unbounded)
//   --session-queue N  per-session outbound event-queue bound (default
//                     1024; 0 = unbounded). Overflow drops oldest progress
//                     ticks; a must-deliver overflow disconnects the
//                     session with a protocol `error` (docs/server.md)
//   --max-jobs-per-session N  reject submits that would put more than N of
//                     one session's jobs in flight (default 0 = unlimited)
//   --cache-idle-evict SEC  evict in-memory cache entries idle for SEC
//                     seconds (disk entries reload transparently)
//   --cache-dir DIR   content-addressed result cache (docs/caching.md)
//   --cache-resident N  cap the cache's in-memory map at N entries; older
//                     entries spill to disk and reload on demand
//   --coverage        grade every result row by measured IDDQ fault
//                     coverage (docs/coverage.md); rows gain coverage
//                     fields in the protocol stream
//   --fault-model SPEC  injected fault population: mixed | bridges |
//                     shorts | bridges=N[,shorts=M] (default mixed)
//   --patterns N      test patterns per coverage run (default 256)
//   --minimize-patterns  greedy set-cover pattern minimization
//   --lib FILE        cell library (default: built-in 5V CMOS)
//   --rail MV         virtual-rail perturbation limit r (default 200)
//   --disc D          required discriminability d (default 10)
//   --generations N   ES generation cap (default 350)
//   --help            this text
//
// A client "shutdown" op or SIGTERM drains and stops the whole server
// (core::serve_listener; pipe mode: ends the session); EOF on a
// connection ends only that session. Determinism: a sweep submitted with
// seed S is byte-identical to `iddqsyn --jobs N --seed S` over the same
// circuits/methods — per-shard seeds derive from the shard index, never
// from scheduling.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/job_protocol.hpp"
#include "core/job_service.hpp"
#include "core/result_cache.hpp"
#include "library/cell_library.hpp"
#include "library/lib_io.hpp"
#include "sim/coverage.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/fault_plan.hpp"
#include "support/strings.hpp"
#include "support/transport.hpp"

namespace {

using namespace iddq;

struct ServerOptions {
  std::optional<std::string> socket_path;  // nullopt = pipe mode
  /// TCP endpoint (--listen host:port); wins over --socket when both are
  /// given last.
  std::optional<std::pair<std::string, std::uint16_t>> listen;
  std::size_t workers = 0;       // 0 = hardware concurrency
  std::size_t threads = 0;       // 0 = IDDQ_THREADS default
  std::size_t max_queue = 0;     // 0 = unbounded
  std::size_t session_queue = 1024;      // 0 = unbounded
  std::size_t max_jobs_per_session = 0;  // 0 = unlimited
  std::size_t job_timeout_ms = 0;        // 0 = no default deadline
  std::size_t drain_timeout_ms = 0;      // 0 = drain waits unbounded
  std::size_t cache_idle_evict_sec = 0;  // 0 = disabled
  std::optional<std::string> cache_dir;
  std::size_t cache_resident = 0;          // 0 = unbounded residency
  bool coverage = false;
  std::string fault_model = "mixed";
  std::size_t patterns = 256;
  bool minimize_patterns = false;
  std::optional<std::string> lib_path;
  double rail_mv = 200.0;
  double disc = 10.0;
  std::size_t generations = 350;
};

void print_usage(std::ostream& os) {
  os << "usage: iddqsyn_server [options]\n"
        "  --pipe           one session on stdin/stdout (default)\n"
        "  --socket PATH    listen on a unix-domain socket\n"
        "  --listen H:P     listen on a TCP host:port (port 0 = ephemeral, "
        "announced on stderr)\n"
        "  --workers N      worker threads (default: hardware concurrency)\n"
        "  --threads N      shared intra-job thread pool (default 1; "
        "results identical for any N)\n"
        "  --max-queue N    reject submits past N queued jobs (default 0 = "
        "unbounded)\n"
        "  --session-queue N  per-session event-queue bound (default 1024; "
        "0 = unbounded)\n"
        "  --max-jobs-per-session N  per-session in-flight job quota "
        "(default 0 = unlimited)\n"
        "  --job-timeout-ms N  default per-job deadline: a job past N ms of "
        "wall clock fails with reason \"timeout\" (submit deadline_ms "
        "overrides; default 0 = none)\n"
        "  --drain-timeout-ms N  graceful-drain bound: on shutdown/SIGTERM "
        "finish in-flight jobs for up to N ms, then cancel the rest "
        "(default 0 = wait for them)\n"
        "  --cache-idle-evict SEC  evict in-memory cache entries idle for "
        "SEC seconds\n"
        "  --cache-dir DIR  content-addressed result cache "
        "(docs/caching.md)\n"
        "  --cache-resident N  cap in-memory cache entries at N (older "
        "entries spill to disk)\n"
        "  --coverage       grade rows by measured IDDQ fault coverage "
        "(docs/coverage.md)\n"
        "  --fault-model SPEC  mixed | bridges | shorts | "
        "bridges=N[,shorts=M] (default mixed)\n"
        "  --patterns N     test patterns per coverage run (default 256)\n"
        "  --minimize-patterns  greedy set-cover pattern minimization\n"
        "  --lib FILE       cell library file (default: built-in 5V CMOS)\n"
        "  --rail MV        rail perturbation limit r in mV (default 200)\n"
        "  --disc D         required discriminability d (default 10)\n"
        "  --generations N  ES generation cap (default 350)\n"
        "protocol: docs/server.md (line-delimited JSON; submit/cancel/"
        "stats/shutdown)\n";
}

std::optional<ServerOptions> parse(int argc, char** argv) {
  ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value =
        [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "iddqsyn_server: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--pipe") {
      opts.socket_path.reset();
      opts.listen.reset();
    } else if (arg == "--socket") {
      const auto v = need_value("--socket");
      if (!v) return std::nullopt;
      opts.socket_path = *v;
      opts.listen.reset();
    } else if (arg == "--listen") {
      const auto v = need_value("--listen");
      if (!v) return std::nullopt;
      // Unlike --submit, --listen is TCP-only, so port 0 (ephemeral) is
      // meaningful here and parsed by hand.
      const auto colon = v->rfind(':');
      std::size_t port = 65536;
      if (colon == std::string::npos || colon == 0 ||
          !str::parse_size(v->substr(colon + 1), port) || port > 65535) {
        std::cerr << "iddqsyn_server: --listen needs host:port (port 0 = "
                     "ephemeral)\n";
        return std::nullopt;
      }
      opts.listen = {v->substr(0, colon), static_cast<std::uint16_t>(port)};
      opts.socket_path.reset();
    } else if (arg == "--workers") {
      const auto v = need_value("--workers");
      if (!v || !str::parse_size(*v, opts.workers) || opts.workers == 0) {
        std::cerr << "iddqsyn_server: --workers must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--threads") {
      const auto v = need_value("--threads");
      if (!v || !str::parse_size(*v, opts.threads) || opts.threads == 0) {
        std::cerr << "iddqsyn_server: --threads must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--max-queue") {
      const auto v = need_value("--max-queue");
      // 0 is the documented default: unbounded.
      if (!v || !str::parse_size(*v, opts.max_queue)) {
        std::cerr << "iddqsyn_server: --max-queue must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--session-queue") {
      const auto v = need_value("--session-queue");
      // 0 = unbounded (the pre-queue semantics).
      if (!v || !str::parse_size(*v, opts.session_queue)) {
        std::cerr
            << "iddqsyn_server: --session-queue must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--max-jobs-per-session") {
      const auto v = need_value("--max-jobs-per-session");
      // 0 = unlimited.
      if (!v || !str::parse_size(*v, opts.max_jobs_per_session)) {
        std::cerr << "iddqsyn_server: --max-jobs-per-session must be an "
                     "integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--job-timeout-ms") {
      const auto v = need_value("--job-timeout-ms");
      // 0 = no default deadline (per-submit deadline_ms still honored).
      if (!v || !str::parse_size(*v, opts.job_timeout_ms)) {
        std::cerr
            << "iddqsyn_server: --job-timeout-ms must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--drain-timeout-ms") {
      const auto v = need_value("--drain-timeout-ms");
      // 0 = unbounded drain (wait for every in-flight job).
      if (!v || !str::parse_size(*v, opts.drain_timeout_ms)) {
        std::cerr
            << "iddqsyn_server: --drain-timeout-ms must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--cache-idle-evict") {
      const auto v = need_value("--cache-idle-evict");
      if (!v || !str::parse_size(*v, opts.cache_idle_evict_sec) ||
          opts.cache_idle_evict_sec == 0) {
        std::cerr << "iddqsyn_server: --cache-idle-evict must be >= 1 "
                     "second\n";
        return std::nullopt;
      }
    } else if (arg == "--cache-dir") {
      const auto v = need_value("--cache-dir");
      if (!v) return std::nullopt;
      opts.cache_dir = *v;
    } else if (arg == "--cache-resident") {
      const auto v = need_value("--cache-resident");
      if (!v || !str::parse_size(*v, opts.cache_resident) ||
          opts.cache_resident == 0) {
        std::cerr << "iddqsyn_server: --cache-resident must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--coverage") {
      opts.coverage = true;
    } else if (arg == "--fault-model") {
      const auto v = need_value("--fault-model");
      if (!v) return std::nullopt;
      opts.fault_model = *v;
    } else if (arg == "--patterns") {
      const auto v = need_value("--patterns");
      if (!v || !str::parse_size(*v, opts.patterns) || opts.patterns == 0) {
        std::cerr << "iddqsyn_server: --patterns must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--minimize-patterns") {
      opts.minimize_patterns = true;
    } else if (arg == "--lib") {
      const auto v = need_value("--lib");
      if (!v) return std::nullopt;
      opts.lib_path = *v;
    } else if (arg == "--rail") {
      const auto v = need_value("--rail");
      if (!v || !str::parse_double(*v, opts.rail_mv) || opts.rail_mv <= 0) {
        std::cerr << "iddqsyn_server: --rail must be > 0 mV\n";
        return std::nullopt;
      }
    } else if (arg == "--disc") {
      const auto v = need_value("--disc");
      if (!v || !str::parse_double(*v, opts.disc) || opts.disc <= 0) {
        std::cerr << "iddqsyn_server: --disc must be > 0\n";
        return std::nullopt;
      }
    } else if (arg == "--generations") {
      const auto v = need_value("--generations");
      if (!v || !str::parse_size(*v, opts.generations) ||
          opts.generations == 0) {
        std::cerr << "iddqsyn_server: --generations must be >= 1\n";
        return std::nullopt;
      }
    } else {
      std::cerr << "iddqsyn_server: unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (opts.coverage) {
    try {
      (void)sim::FaultModelSpec::parse(opts.fault_model);
    } catch (const Error& e) {
      std::cerr << "iddqsyn_server: " << e.what() << "\n";
      return std::nullopt;
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  // Settle the IDDQ_FAULT_PLAN env check up front: a malformed plan must
  // abort at startup, not at the first transport or cache hook.
  (void)support::FaultPlan::active();
  const auto opts = parse(argc, argv);
  if (!opts) {
    print_usage(std::cerr);
    return 1;
  }
  try {
    const auto library = opts->lib_path
                             ? lib::read_library_file(*opts->lib_path)
                             : lib::default_library();

    core::JobServiceConfig config;
    config.workers = opts->workers > 0
                         ? opts->workers
                         : std::max(1u, std::thread::hardware_concurrency());
    config.flow.sensor.r_max_mv = opts->rail_mv;
    config.flow.sensor.d_min = opts->disc;
    config.flow.optimizers.es.max_generations = opts->generations;
    config.flow.coverage.enabled = opts->coverage;
    config.flow.coverage.fault_model = opts->fault_model;
    config.flow.coverage.patterns = opts->patterns;
    config.flow.coverage.minimize = opts->minimize_patterns;

    // One ExecutorPool shared by every worker's optimizer runs: total
    // fan-out stays bounded by workers + threads - 1 instead of
    // multiplying, and results are byte-identical for any --threads.
    support::ExecutorPool pool(
        support::ExecutorPool::from_option(opts->threads));
    config.flow.pool = &pool;

    std::optional<core::ResultCache> cache;
    if (opts->cache_dir) {
      cache.emplace(*opts->cache_dir);
      if (opts->cache_resident > 0)
        cache->set_max_resident(opts->cache_resident);
      if (opts->cache_idle_evict_sec > 0)
        cache->set_idle_deadline(
            std::chrono::seconds(opts->cache_idle_evict_sec));
      config.flow.cache = &*cache;
      std::cerr << "iddqsyn_server: cache " << *opts->cache_dir << " ("
                << cache->size() << " entries";
      if (cache->corrupt_lines() > 0)
        std::cerr << ", " << cache->corrupt_lines() << " corrupt lines";
      std::cerr << ")\n";
    }

    core::JobService service(library, std::move(config));
    core::JobServiceBackend backend(service, opts->max_queue);

    core::SessionTrafficStats traffic;
    core::JobProtocolOptions protocol_options;
    protocol_options.session_queue = opts->session_queue;
    protocol_options.max_jobs_per_session = opts->max_jobs_per_session;
    protocol_options.traffic = &traffic;
    protocol_options.default_deadline_ms = opts->job_timeout_ms;
    protocol_options.drain_timeout_ms = opts->drain_timeout_ms;
    if (opts->listen) {
      support::TcpSocketListener listener(opts->listen->first,
                                          opts->listen->second);
      core::serve_listener(backend, listener, protocol_options,
                           "iddqsyn_server");
      return 0;
    }
    if (opts->socket_path) {
      support::UnixSocketListener listener(*opts->socket_path);
      core::serve_listener(backend, listener, protocol_options,
                           "iddqsyn_server");
      return 0;
    }

    // Pipe mode: a shutdown op drains the one session the same way.
    std::atomic<bool> draining{false};
    protocol_options.draining = &draining;
    support::StreamChannel channel(std::cin, std::cout);
    core::JobProtocolSession session(backend, channel, protocol_options);
    (void)session.run();
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn_server: " << e.what() << "\n";
    return 2;
  }
}
