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
//   --backoff-ms MS  base retry backoff, doubled per attempt, 16x cap
//                    (default 200)
//   --session-queue N  per-session outbound event-queue bound
//                    (default 1024; 0 = unbounded), same overflow policy
//                    as the server (docs/server.md, "Backpressure")
//   --lib FILE       cell library (default: built-in 5V CMOS) — feeds the
//                    routing fingerprint; must match the backends' library
//                    for cache affinity (results never depend on it)
//   --help           this text
//
// The front-end holds no result state: `stats` and `ping` fan out to every
// backend and return an aggregate (summed counters + per_backend array).
// A client "shutdown" op stops the front-end only — backends keep running.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "core/event_writer.hpp"
#include "core/job_event.hpp"
#include "core/job_protocol.hpp"
#include "library/cell_library.hpp"
#include "library/fingerprint.hpp"
#include "library/lib_io.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/transport.hpp"

namespace {

using namespace iddq;
using json::JsonWriter;

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

/// One client connection: reads ops, relays sweeps through the shared
/// ClusterClient, and streams merged events back through a non-blocking
/// SessionEventWriter — the same backpressure contract as a direct server
/// session (docs/server.md, "Backpressure").
class ClusterSession {
 public:
  ClusterSession(cluster::ClusterClient& client,
                 support::LineChannel& channel, std::size_t session_queue)
      : client_(&client), channel_(&channel), session_queue_(session_queue) {}

  /// Serves until EOF or a shutdown op; drains in-flight sweeps before
  /// returning. Returns true on a client-requested shutdown.
  bool run() {
    bool shutdown_requested = false;
    core::SessionEventWriter writer(
        *channel_, session_queue_, [this] { on_overflow_disconnect(); },
        JsonWriter()
            .field("event", "error")
            .field("message",
                   "event queue overflow: client not reading; session "
                   "disconnected")
            .str());
    writer_ = &writer;

    writer.post(JsonWriter()
                    .field("event", "hello")
                    .field("protocol", std::uint64_t{1})
                    .field("backends", client_->backend_count())
                    .str(),
                core::EventDeliveryClass::must_deliver);

    std::string line;
    while (!writer.disconnected() && channel_->read_line(line)) {
      if (str::trim(line).empty()) continue;
      if (handle_line(line)) {
        shutdown_requested = true;
        break;
      }
    }
    drain();
    if (shutdown_requested && !writer.disconnected())
      send(JsonWriter().field("event", "bye").str());
    writer.flush();
    writer_ = nullptr;
    return shutdown_requested;
  }

 private:
  bool handle_line(const std::string& line) {
    const auto request = json::JsonValue::parse(line);
    if (!request || !request->is_object()) {
      send_error("malformed request: not a JSON object");
      return false;
    }
    const std::string op = request->get_string("op");
    if (op == "shutdown") return true;
    if (op == "stats") {
      // Aggregated across backends; blocks this session's read loop (not
      // the event stream) for at most the stats timeout.
      send(client_->stats_line());
      return false;
    }
    if (op == "ping") {
      send(client_->ping_line());
      return false;
    }
    if (op == "cancel") {
      const std::string id = request->get_string("id");
      std::shared_ptr<cluster::ClusterSweep> sweep;
      {
        const std::scoped_lock lock(mutex_);
        const auto it = sweeps_.find(id);
        if (it != sweeps_.end()) sweep = it->second;
      }
      if (sweep == nullptr || sweep->finished()) {
        send_error("cancel: unknown sweep id '" + id + "'");
        return false;
      }
      client_->cancel(sweep);
      return false;
    }
    if (op == "submit") {
      handle_submit(*request);
      return false;
    }
    send_error("unknown op '" + op + "'");
    return false;
  }

  void handle_submit(const json::JsonValue& request) {
    cluster::SweepRequest sweep_request;
    sweep_request.id = request.get_string("id");
    if (sweep_request.id.empty())
      sweep_request.id = "job-" + std::to_string(++auto_id_);
    if (const json::JsonValue* circuits = request.find("circuits")) {
      for (const auto& c : circuits->items())
        if (c.is_string()) sweep_request.circuits.push_back(c.as_string());
    } else if (const json::JsonValue* one = request.find("circuit")) {
      if (one->is_string())
        sweep_request.circuits.push_back(one->as_string());
    }
    if (const json::JsonValue* methods = request.find("methods")) {
      sweep_request.methods.clear();
      for (const auto& m : methods->items())
        if (m.is_string()) sweep_request.methods.push_back(m.as_string());
    }
    sweep_request.seed = request.get_u64("seed", 1);
    if (const json::JsonValue* seeds = request.find("seeds")) {
      for (const auto& s : seeds->items()) {
        std::uint64_t value = 0;
        if (!s.as_u64(value)) {
          send_error("submit: \"seeds\" must be an array of unsigned "
                     "64-bit integers",
                     sweep_request.id);
          return;
        }
        sweep_request.seeds.push_back(value);
      }
    }
    sweep_request.budget =
        static_cast<std::size_t>(request.get_u64("budget", 0));
    sweep_request.use_cache = request.get_bool("cache", true);
    sweep_request.priority =
        core::submit_priority(request.get_double("priority", 0.0));
    sweep_request.deadline_ms =
        static_cast<std::size_t>(request.get_u64("deadline_ms", 0));
    if (sweep_request.circuits.empty()) {
      send_error("submit: needs \"circuits\" (or \"circuit\")",
                 sweep_request.id);
      return;
    }
    if (sweep_request.methods.empty()) {
      send_error("submit: needs at least one method", sweep_request.id);
      return;
    }
    if (!sweep_request.seeds.empty() &&
        sweep_request.seeds.size() != sweep_request.circuits.size()) {
      send_error("submit: \"seeds\" must have one entry per circuit (" +
                     std::to_string(sweep_request.seeds.size()) +
                     " seeds for " +
                     std::to_string(sweep_request.circuits.size()) +
                     " circuits)",
                 sweep_request.id);
      return;
    }
    {
      const std::scoped_lock lock(mutex_);
      const auto it = sweeps_.find(sweep_request.id);
      if (it != sweeps_.end() && !it->second->finished()) {
        send_error("submit: sweep id '" + sweep_request.id +
                       "' is still active",
                   sweep_request.id);
        return;
      }
    }
    // The same accepted bytes a direct server answers with; emitted
    // before dispatch so the client sees it ahead of any backend event.
    send(JsonWriter()
             .field("event", "accepted")
             .field("id", sweep_request.id)
             .field("jobs", sweep_request.circuits.size())
             .str());
    auto sweep = client_->submit_sweep(
        sweep_request, [this](const std::string& event_line, bool droppable) {
          send(event_line, droppable
                               ? core::EventDeliveryClass::droppable
                               : core::EventDeliveryClass::must_deliver);
        });
    const std::scoped_lock lock(mutex_);
    sweeps_[sweep->id()] = std::move(sweep);
  }

  void send(const std::string& json_line,
            core::EventDeliveryClass cls =
                core::EventDeliveryClass::must_deliver) {
    if (writer_ != nullptr) (void)writer_->post(json_line, cls);
  }

  void send_error(const std::string& message, const std::string& id = "") {
    JsonWriter w;
    w.field("event", "error");
    if (!id.empty()) w.field("id", id);
    w.field("message", message);
    send(std::move(w).str());
  }

  void on_overflow_disconnect() {
    channel_->shutdown_read();
    // A disconnected client never sees the remaining results; cancelling
    // the sweeps propagates to the backends and frees their workers.
    std::vector<std::shared_ptr<cluster::ClusterSweep>> active;
    {
      const std::scoped_lock lock(mutex_);
      for (const auto& [id, sweep] : sweeps_) active.push_back(sweep);
    }
    for (const auto& sweep : active) client_->cancel(sweep);
  }

  /// EOF and shutdown both drain, mirroring the direct server: every
  /// sweep reaches sweep_done (failover and attempt bounds guarantee
  /// termination even with dead backends) before the session ends.
  void drain() {
    std::vector<std::shared_ptr<cluster::ClusterSweep>> active;
    {
      const std::scoped_lock lock(mutex_);
      for (const auto& [id, sweep] : sweeps_) active.push_back(sweep);
    }
    for (const auto& sweep : active) sweep->wait();
  }

  cluster::ClusterClient* client_;
  support::LineChannel* channel_;
  std::size_t session_queue_;
  std::mutex mutex_;  // guards sweeps_
  std::unordered_map<std::string, std::shared_ptr<cluster::ClusterSweep>>
      sweeps_;
  std::uint64_t auto_id_ = 0;
  core::SessionEventWriter* writer_ = nullptr;
};

int serve_listener(cluster::ClusterClient& client,
                   support::SocketListener& listener,
                   std::size_t session_queue) {
  // Tests (and `--listen host:0` deployments) parse the endpoint — which
  // carries the kernel-assigned port — from this line.
  std::cerr << "iddqsyn_cluster: listening on " << listener.endpoint()
            << "\n";

  std::atomic<bool> shutdown_requested{false};
  std::mutex threads_mutex;
  std::vector<std::thread> sessions;

  while (auto channel = listener.accept()) {
    std::shared_ptr<support::FdChannel> conn = std::move(channel);
    std::thread session(
        [&client, &listener, &shutdown_requested, conn, session_queue] {
          ClusterSession protocol(client, *conn, session_queue);
          if (protocol.run()) {
            shutdown_requested.store(true);
            listener.close();
          }
        });
    const std::scoped_lock lock(threads_mutex);
    sessions.push_back(std::move(session));
  }
  {
    const std::scoped_lock lock(threads_mutex);
    for (auto& t : sessions)
      if (t.joinable()) t.join();
  }
  std::cerr << "iddqsyn_cluster: "
            << (shutdown_requested.load() ? "shutdown requested by client"
                                          : "listener closed")
            << "\n";
  return 0;
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

    if (opts->listen) {
      support::TcpSocketListener listener(opts->listen->first,
                                          opts->listen->second);
      return serve_listener(client, listener, opts->session_queue);
    }
    if (opts->socket_path) {
      support::UnixSocketListener listener(*opts->socket_path);
      return serve_listener(client, listener, opts->session_queue);
    }

    support::StreamChannel channel(std::cin, std::cout);
    ClusterSession session(client, channel, opts->session_queue);
    (void)session.run();
    return 0;
  } catch (const Error& e) {
    std::cerr << "iddqsyn_cluster: " << e.what() << "\n";
    return 2;
  }
}
