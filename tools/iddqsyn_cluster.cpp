// iddqsyn_cluster — cluster front-end for the BIC-sensor job protocol
// (docs/cluster.md).
//
// Speaks the same line-delimited JSON session protocol as iddqsyn_server
// (docs/server.md) on its client side, but runs no flow itself: every
// submitted sweep is split into per-circuit shards, consistent-hashed over
// the configured `--backend` servers (cache affinity: the routing key is
// the run-key fingerprint, so repeat traffic lands on warm ResultCaches),
// and the per-backend event streams are merged back into one session
// stream that is byte-identical to what a single direct server — or
// `iddqsyn --jobs N` — would have produced. Backends that die mid-sweep
// are failed over: their shards retry on ring successors with bounded
// backoff, and rows stay identical because each shard's base seed is
// shipped with it as data.
//
//   iddqsyn_cluster --backend ENDPOINT [--backend ENDPOINT ...] [options]
//   (`iddqsyn_cluster --help` lists the options)
//
// The sessions are the server's own (core::JobProtocolSession over the
// ClusterClient backend): `stats` and `ping` fan out to every backend and
// return an aggregate (summed counters + per_backend array). A client
// "shutdown" op or SIGTERM drains the front-end — every session finishes
// its sweeps and says bye — and stops it; backends keep running.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "core/job_protocol.hpp"
#include "core/tool_flags.hpp"
#include "library/cell_library.hpp"
#include "library/fingerprint.hpp"
#include "library/lib_io.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/flags.hpp"

namespace {

using namespace iddq;

struct ClusterToolOptions {
  std::vector<std::string> backends;
  core::ServeEndpoint endpoint;
  cluster::ClusterOptions cluster;
  core::JobProtocolOptions protocol;
  std::optional<std::string> lib_path;
};

support::FlagTable cluster_flags(ClusterToolOptions& opts) {
  using namespace support::flags;
  cluster::ClusterOptions& c = opts.cluster;
  support::FlagTable flags(
      "iddqsyn_cluster",
      "usage: iddqsyn_cluster --backend ENDPOINT [--backend ...] [options]");
  flags.add("--backend", "E",
            "backend endpoint (host:port or unix socket path); repeatable",
            append(opts.backends));
  core::add_serve_flags(flags, opts.endpoint, opts.protocol);
  flags
      .add("--replicas", "N",
           "virtual nodes per backend on the hash ring (default " +
               std::to_string(c.ring_replicas) + ")",
           size_at_least(c.ring_replicas, 1))
      .add("--retry", "N",
           "dispatch attempts per shard (default " +
               std::to_string(c.max_attempts) + ")",
           size_at_least(c.max_attempts, 1))
      .add("--backoff-ms", "MS",
           "base retry backoff in ms (default " +
               std::to_string(c.backoff_ms) +
               "; actual sleeps use deterministic decorrelated jitter)",
           size_at_least(c.backoff_ms, 0))
      .add("--heartbeat-ms", "MS",
           "probe every backend each MS ms and run the per-backend circuit "
           "breaker (default 0 = off; docs/robustness.md)",
           size_at_least(c.heartbeat_ms, 0))
      .add("--breaker-threshold", "N",
           "consecutive probe failures that open a backend's breaker "
           "(default " + std::to_string(c.breaker_threshold) + ")",
           size_at_least(c.breaker_threshold, 1))
      .add("--breaker-cooldown-ms", "MS",
           "open-breaker cooldown before a half-open re-probe (default " +
               std::to_string(c.breaker_cooldown_ms) + ")",
           size_at_least(c.breaker_cooldown_ms, 1));
  core::add_library_flag(flags, opts.lib_path);
  flags.epilogue(
      "protocol: docs/cluster.md and docs/server.md (line-delimited JSON)");
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  // Settle the IDDQ_FAULT_PLAN env check up front: a malformed plan must
  // abort at startup, not at the first transport or cache hook.
  (void)support::FaultPlan::active();
  ClusterToolOptions opts;
  auto flags = cluster_flags(opts);
  if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
  if (opts.backends.empty())
    return flags.usage_error("at least one --backend is required");
  try {
    const auto library = opts.lib_path
                             ? lib::read_library_file(*opts.lib_path)
                             : lib::default_library();
    cluster::ClusterClient client(opts.backends,
                                  lib::library_fingerprint(library),
                                  opts.cluster);
    std::cerr << "iddqsyn_cluster: " << client.backend_count()
              << " backend(s) on the ring\n";

    core::SessionTrafficStats traffic;
    opts.protocol.traffic = &traffic;
    core::serve_endpoint(client, opts.endpoint, opts.protocol,
                         "iddqsyn_cluster");
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn_cluster: " << e.what() << "\n";
    return 2;
  }
}
