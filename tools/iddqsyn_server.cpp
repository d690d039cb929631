// iddqsyn_server — long-running job server for the BIC-sensor flow.
//
// Speaks the line-delimited JSON job protocol (docs/server.md) and fans
// submitted (circuit, method-set) sweeps out over a JobService worker
// pool, streaming MethodResult rows back as they complete. Repeated jobs
// are served from the shared content-addressed ResultCache when
// --cache-dir is given, so a sweep server amortizes every run it has ever
// done.
//
//   iddqsyn_server [options]      (`iddqsyn_server --help` lists them)
//
// A client "shutdown" op or SIGTERM drains and stops the whole server
// (core::serve_endpoint; pipe mode: ends the session); EOF on a
// connection ends only that session. Determinism: a sweep submitted with
// seed S is byte-identical to `iddqsyn --jobs N --seed S` over the same
// circuits/methods — per-shard seeds derive from the shard index, never
// from scheduling.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/job_protocol.hpp"
#include "core/job_service.hpp"
#include "core/result_cache.hpp"
#include "core/tool_flags.hpp"
#include "library/cell_library.hpp"
#include "library/lib_io.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/fault_plan.hpp"
#include "support/flags.hpp"

namespace {

using namespace iddq;

struct ServerOptions {
  core::ServeEndpoint endpoint;
  core::EngineFlags engine;
  core::JobServiceConfig service;
  core::JobProtocolOptions protocol;
  std::size_t max_queue = 0;             // 0 = unbounded
  std::size_t cache_idle_evict_sec = 0;  // 0 = disabled
};

support::FlagTable server_flags(ServerOptions& opts) {
  using namespace support::flags;
  support::FlagTable flags("iddqsyn_server", "usage: iddqsyn_server [options]");
  opts.service.workers = std::max(1u, std::thread::hardware_concurrency());
  core::add_serve_flags(flags, opts.endpoint, opts.protocol);
  flags
      .add("--workers", "N", "worker threads (default: hardware concurrency)",
           positive_count(opts.service.workers))
      .add("--max-queue", "N",
           "reject submits past N queued jobs (default 0 = unbounded)",
           size_at_least(opts.max_queue, 0))
      .add("--max-jobs-per-session", "N",
           "per-session in-flight job quota (default 0 = unlimited)",
           size_at_least(opts.protocol.max_jobs_per_session, 0))
      .add("--job-timeout-ms", "N",
           "default per-job deadline: a job past N ms of wall clock fails "
           "with reason \"timeout\" (submit deadline_ms overrides; default "
           "0 = none)",
           size_at_least(opts.protocol.default_deadline_ms, 0))
      .add("--drain-timeout-ms", "N",
           "graceful-drain bound: on shutdown/SIGTERM finish in-flight jobs "
           "for up to N ms, then cancel the rest (default 0 = wait for them)",
           size_at_least(opts.protocol.drain_timeout_ms, 0))
      .add("--cache-idle-evict", "SEC",
           "evict in-memory cache entries idle for SEC seconds",
           size_at_least(opts.cache_idle_evict_sec, 1));
  core::add_engine_flags(flags, opts.engine);
  core::add_flow_flags(flags, opts.service.flow);
  flags.epilogue(
      "protocol: docs/server.md (line-delimited JSON; submit/cancel/"
      "stats/shutdown)");
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  // Settle the IDDQ_FAULT_PLAN env check up front: a malformed plan must
  // abort at startup, not at the first transport or cache hook.
  (void)support::FaultPlan::active();
  ServerOptions opts;
  if (const auto exit_code = server_flags(opts).parse(argc, argv))
    return *exit_code;
  try {
    const auto library = opts.engine.lib_path
                             ? lib::read_library_file(*opts.engine.lib_path)
                             : lib::default_library();

    // One ExecutorPool shared by every worker's optimizer runs: total
    // fan-out stays bounded by workers + threads - 1 instead of
    // multiplying, and results are byte-identical for any --threads.
    support::ExecutorPool pool(
        support::ExecutorPool::from_option(opts.engine.threads));
    opts.service.flow.pool = &pool;

    std::optional<core::ResultCache> cache;
    if (opts.engine.cache_dir) {
      cache.emplace(*opts.engine.cache_dir);
      if (opts.engine.cache_resident > 0)
        cache->set_max_resident(opts.engine.cache_resident);
      if (opts.cache_idle_evict_sec > 0)
        cache->set_idle_deadline(
            std::chrono::seconds(opts.cache_idle_evict_sec));
      opts.service.flow.cache = &*cache;
      std::cerr << "iddqsyn_server: cache " << *opts.engine.cache_dir << " ("
                << cache->size() << " entries";
      if (cache->corrupt_lines() > 0)
        std::cerr << ", " << cache->corrupt_lines() << " corrupt lines";
      std::cerr << ")\n";
    }

    core::JobService service(library, std::move(opts.service));
    core::JobServiceBackend backend(service, opts.max_queue);

    core::SessionTrafficStats traffic;
    opts.protocol.traffic = &traffic;
    core::serve_endpoint(backend, opts.endpoint, opts.protocol,
                         "iddqsyn_server");
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn_server: " << e.what() << "\n";
    return 2;
  }
}
