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
// Usage:
//   iddqsyn_cluster --backend ENDPOINT [--backend ENDPOINT ...] [options]
//
// Options:
//   --backend E      backend endpoint (host:port or unix socket path);
//                    repeat once per backend — at least one required
//   --pipe           serve exactly one session on stdin/stdout (default)
//   --socket PATH    listen on a unix-domain socket instead
//   --listen H:P     listen on a TCP host:port (port 0 = ephemeral,
//                    announced on stderr)
//   --replicas N     virtual nodes per backend on the hash ring
//                    (default 64)
//   --retry N        dispatch attempts per shard before it fails
//                    (default 3)
//   --backoff-ms MS  base retry backoff (default 200); retries sleep a
//                    deterministic decorrelated jitter in [MS, 16 MS]
//   --heartbeat-ms MS  probe every backend each MS ms and run the
//                    per-backend circuit breaker (default 0 = off)
//   --breaker-threshold N  consecutive failed probes that open a
//                    backend's breaker (default 3)
//   --breaker-cooldown-ms MS  open-breaker cooldown before a half-open
//                    re-probe (default 1000)
//   --session-queue N  per-session outbound event-queue bound
//                    (default 1024; 0 = unbounded), same overflow policy
//                    as the server (docs/server.md, "Backpressure")
//   --lib FILE       cell library (default: built-in 5V CMOS) — feeds the
//                    routing fingerprint; must match the backends' library
//                    for cache affinity (results never depend on it)
//   --help           this text
//
// The sessions are the server's own (core::JobProtocolSession over the
// ClusterClient backend): `stats` and `ping` fan out to every backend and
// return an aggregate (summed counters + per_backend array). A client
// "shutdown" op or SIGTERM drains the front-end — every session finishes
// its sweeps and says bye — and stops it; backends keep running.
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "core/job_protocol.hpp"
#include "library/cell_library.hpp"
#include "library/fingerprint.hpp"
#include "library/lib_io.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/strings.hpp"
#include "support/transport.hpp"

namespace {

using namespace iddq;

struct ClusterToolOptions {
  std::vector<std::string> backends;
  std::optional<std::string> socket_path;  // nullopt = pipe mode
  std::optional<std::pair<std::string, std::uint16_t>> listen;
  cluster::ClusterOptions cluster;
  std::size_t session_queue = 1024;  // 0 = unbounded
  std::optional<std::string> lib_path;
};

void print_usage(std::ostream& os) {
  os << "usage: iddqsyn_cluster --backend ENDPOINT [--backend ...] "
        "[options]\n"
        "  --backend E      backend endpoint (host:port or unix socket "
        "path); repeatable\n"
        "  --pipe           one session on stdin/stdout (default)\n"
        "  --socket PATH    listen on a unix-domain socket\n"
        "  --listen H:P     listen on a TCP host:port (port 0 = ephemeral, "
        "announced on stderr)\n"
        "  --replicas N     virtual nodes per backend on the hash ring "
        "(default 64)\n"
        "  --retry N        dispatch attempts per shard (default 3)\n"
        "  --backoff-ms MS  base retry backoff in ms (default 200; actual "
        "sleeps use deterministic decorrelated jitter)\n"
        "  --heartbeat-ms MS  probe every backend each MS ms and run the "
        "per-backend circuit breaker (default 0 = off; "
        "docs/robustness.md)\n"
        "  --breaker-threshold N  consecutive probe failures that open a "
        "backend's breaker (default 3)\n"
        "  --breaker-cooldown-ms MS  open-breaker cooldown before a "
        "half-open re-probe (default 1000)\n"
        "  --session-queue N  per-session event-queue bound (default 1024; "
        "0 = unbounded)\n"
        "  --lib FILE       cell library for the routing fingerprint "
        "(default: built-in)\n"
        "protocol: docs/cluster.md and docs/server.md (line-delimited "
        "JSON)\n";
}

std::optional<ClusterToolOptions> parse(int argc, char** argv) {
  ClusterToolOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value =
        [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "iddqsyn_cluster: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--backend") {
      const auto v = need_value("--backend");
      if (!v) return std::nullopt;
      opts.backends.push_back(*v);
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
      const auto colon = v->rfind(':');
      std::size_t port = 65536;
      if (colon == std::string::npos || colon == 0 ||
          !str::parse_size(v->substr(colon + 1), port) || port > 65535) {
        std::cerr << "iddqsyn_cluster: --listen needs host:port (port 0 = "
                     "ephemeral)\n";
        return std::nullopt;
      }
      opts.listen = {v->substr(0, colon), static_cast<std::uint16_t>(port)};
      opts.socket_path.reset();
    } else if (arg == "--replicas") {
      const auto v = need_value("--replicas");
      if (!v || !str::parse_size(*v, opts.cluster.ring_replicas) ||
          opts.cluster.ring_replicas == 0) {
        std::cerr << "iddqsyn_cluster: --replicas must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--retry") {
      const auto v = need_value("--retry");
      if (!v || !str::parse_size(*v, opts.cluster.max_attempts) ||
          opts.cluster.max_attempts == 0) {
        std::cerr << "iddqsyn_cluster: --retry must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--backoff-ms") {
      const auto v = need_value("--backoff-ms");
      if (!v || !str::parse_size(*v, opts.cluster.backoff_ms)) {
        std::cerr
            << "iddqsyn_cluster: --backoff-ms must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--heartbeat-ms") {
      const auto v = need_value("--heartbeat-ms");
      // 0 = no heartbeat thread (breaker never trips).
      if (!v || !str::parse_size(*v, opts.cluster.heartbeat_ms)) {
        std::cerr
            << "iddqsyn_cluster: --heartbeat-ms must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--breaker-threshold") {
      const auto v = need_value("--breaker-threshold");
      if (!v || !str::parse_size(*v, opts.cluster.breaker_threshold) ||
          opts.cluster.breaker_threshold == 0) {
        std::cerr << "iddqsyn_cluster: --breaker-threshold must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--breaker-cooldown-ms") {
      const auto v = need_value("--breaker-cooldown-ms");
      if (!v || !str::parse_size(*v, opts.cluster.breaker_cooldown_ms) ||
          opts.cluster.breaker_cooldown_ms == 0) {
        std::cerr
            << "iddqsyn_cluster: --breaker-cooldown-ms must be >= 1\n";
        return std::nullopt;
      }
    } else if (arg == "--session-queue") {
      const auto v = need_value("--session-queue");
      if (!v || !str::parse_size(*v, opts.session_queue)) {
        std::cerr
            << "iddqsyn_cluster: --session-queue must be an integer >= 0\n";
        return std::nullopt;
      }
    } else if (arg == "--lib") {
      const auto v = need_value("--lib");
      if (!v) return std::nullopt;
      opts.lib_path = *v;
    } else {
      std::cerr << "iddqsyn_cluster: unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (opts.backends.empty()) {
    std::cerr << "iddqsyn_cluster: at least one --backend is required\n";
    return std::nullopt;
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
    cluster::ClusterClient client(opts->backends,
                                  lib::library_fingerprint(library),
                                  opts->cluster);
    std::cerr << "iddqsyn_cluster: " << client.backend_count()
              << " backend(s) on the ring\n";

    core::SessionTrafficStats traffic;
    core::JobProtocolOptions protocol_options;
    protocol_options.session_queue = opts->session_queue;
    protocol_options.traffic = &traffic;
    if (opts->listen) {
      support::TcpSocketListener listener(opts->listen->first,
                                          opts->listen->second);
      core::serve_listener(client, listener, protocol_options,
                           "iddqsyn_cluster");
      return 0;
    }
    if (opts->socket_path) {
      support::UnixSocketListener listener(*opts->socket_path);
      core::serve_listener(client, listener, protocol_options,
                           "iddqsyn_cluster");
      return 0;
    }

    support::StreamChannel channel(std::cin, std::cout);
    core::JobProtocolSession session(client, channel, protocol_options);
    (void)session.run();
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn_cluster: " << e.what() << "\n";
    return 2;
  }
}
