// Line-delimited JSON job protocol — the wire format of iddqsyn_server and
// iddqsyn_cluster (docs/server.md has the full spec and a worked session).
//
// One JobProtocolSession serves one client connection: it reads request
// objects line by line from a support::LineChannel, parses and validates
// them, and hands each submit to a SweepBackend, which runs the sweep and
// streams its events back through the session's non-blocking event
// writer. Two backends exist: JobServiceBackend (below) shards a submit
// across a local JobService — iddqsyn_server — and cluster::ClusterClient
// routes the shards over remote servers — iddqsyn_cluster. Either way the
// per-shard seeds are shard_seed(request, shard), so results are byte-
// identical to `iddqsyn --jobs N` at the same base seed.
//
// Requests (one JSON object per line):
//   {"op":"submit","id":"t1","circuits":["c17","c1908"],
//    "methods":["evolution","standard"],"seed":42,"budget":0,"cache":true,
//    "priority":0}
// "priority" (optional, may be negative) only reorders the queue —
// higher pops sooner, FIFO within a level, aging prevents starvation;
// results are independent of it. An optional "seeds" array (one entry per
// circuit) replaces the mix_seed derivation with explicit per-shard base
// seeds — the cluster front-end ships seeds as data so shard placement
// cannot change rows (docs/cluster.md).
//   {"op":"cancel","id":"t1"}
//   {"op":"stats"}
//   {"op":"ping"}      -> {"event":"pong","protocol":1,"workers":N}
//   {"op":"shutdown"}
//
// Responses/events: hello, accepted, queued, running, progress, row, done,
// failed, cancelled, sweep_done, stats, error, bye. Every job event
// carries the client-chosen sweep "id" plus the shard's "circuit".
//
// End of session: a shutdown op or channel EOF. Both drain — every
// submitted sweep reaches sweep_done and its events are flushed before
// run() returns (shutdown additionally answers "bye").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/event_writer.hpp"
#include "core/job_service.hpp"
#include "support/json.hpp"
#include "support/transport.hpp"

namespace iddq::core {

/// Server-wide traffic counters, shared by every session of one process
/// (serve_listener wires a single instance into all sessions).
struct SessionTrafficStats {
  /// Sessions torn down by the overflow policy (must-deliver event could
  /// not be queued — the client stopped reading).
  std::atomic<std::uint64_t> overflow_disconnects{0};
  /// Submits rejected by the per-session in-flight quota.
  std::atomic<std::uint64_t> quota_rejections{0};
  /// Sessions that completed while the server was draining (their
  /// in-flight jobs finished or were cancelled at the drain deadline).
  std::atomic<std::uint64_t> drained_sessions{0};
};

/// One accepted sweep, as its session tracks it. Thread-safe: the
/// session's overflow hook may cancel it from another thread.
class BackendSweep {
 public:
  virtual ~BackendSweep() = default;
  /// Fans the shards out and starts streaming their events (the session
  /// has already sent `accepted`). Called once, on the session thread.
  virtual void start() = 0;
  /// Cooperatively cancels every shard; a no-op once they are terminal.
  virtual void cancel() = 0;
  /// Blocks until the sweep's sweep_done has been emitted.
  virtual void wait() = 0;
  /// Bounded wait(); true when sweep_done was emitted in time.
  virtual bool wait_for(std::chrono::milliseconds timeout) = 0;
  /// Shards not yet terminal: what the per-session quota counts; while
  /// any is left, the sweep's id stays taken.
  [[nodiscard]] virtual std::size_t unfinished() const = 0;
};

/// What a session runs sweeps on. The session owns the protocol (parsing,
/// op dispatch, cancel, drain, backpressure, hello/pong/stats envelopes);
/// a backend supplies admission, execution and its own report fields.
class SweepBackend {
 public:
  virtual ~SweepBackend() = default;
  /// Fields of the `hello` event after "protocol".
  virtual void hello_fields(json::JsonWriter& w) = 0;
  /// Fields of a `pong` after "protocol" (the session appends the echoed
  /// probe "id").
  virtual void pong_fields(json::JsonWriter& w) = 0;
  /// Fields of a `stats` event after "event" (the session appends its
  /// "queue_stats"); `traffic` is the sessions' shared counters (may be
  /// null).
  virtual void stats_fields(json::JsonWriter& w,
                            const SessionTrafficStats* traffic) = 0;
  /// Admits a validated submit: returns the sweep, not yet started, with
  /// its events bound for `out`; or null with the reason in `rejection`
  /// (the session reports it as an id-tagged error).
  virtual std::shared_ptr<BackendSweep> admit(const SubmitRequest& request,
                                              SessionEventWriter& out,
                                              std::string& rejection) = 0;
};

/// The iddqsyn_server backend: every shard is one job on a (shared)
/// JobService.
class JobServiceBackend final : public SweepBackend {
 public:
  /// `service` must outlive the backend and every session over it.
  /// `max_queue` is the admission bound (iddqsyn_server --max-queue): a
  /// submit whose shard fan-out would push the queue depth past it is
  /// rejected whole — nothing of it is queued. 0 = unbounded.
  explicit JobServiceBackend(JobService& service, std::size_t max_queue = 0)
      : service_(&service), max_queue_(max_queue) {}

  void hello_fields(json::JsonWriter& w) override;
  void pong_fields(json::JsonWriter& w) override;
  void stats_fields(json::JsonWriter& w,
                    const SessionTrafficStats* traffic) override;
  std::shared_ptr<BackendSweep> admit(const SubmitRequest& request,
                                      SessionEventWriter& out,
                                      std::string& rejection) override;

 private:
  JobService* service_;
  std::size_t max_queue_;
};

/// Session knobs; namespace-scope so it can be a default argument.
struct JobProtocolOptions {
  bool emit_hello = true;  // announce protocol/backend on session start
  /// Outbound event-queue bound (--session-queue): the most lines the
  /// session's event writer buffers for a slow client before the overflow
  /// policy (docs/server.md, "Backpressure") fires. 0 = unbounded (events
  /// are never dropped and a stalled client can buffer without limit —
  /// the default for embedders and unit tests).
  std::size_t session_queue = 0;
  /// Per-session in-flight job quota (iddqsyn_server
  /// --max-jobs-per-session): a submit whose fan-out would push this
  /// session's unfinished-job count past the bound is rejected whole
  /// with a protocol `error`. 0 = unlimited.
  std::size_t max_jobs_per_session = 0;
  /// Optional process-wide counters; sessions bump them when the overflow
  /// policy or the quota fires. May be nullptr (standalone sessions).
  SessionTrafficStats* traffic = nullptr;
  /// Process-wide drain flag (docs/robustness.md). When set — by any
  /// session's shutdown op or serve_listener's SIGTERM handling — every
  /// session rejects new submits with a protocol `error`, finishes its
  /// in-flight sweeps bounded by `drain_timeout_ms`, and answers `bye`.
  /// May be nullptr (standalone sessions: only their own shutdown op
  /// drains them, unbounded).
  std::atomic<bool>* draining = nullptr;
  /// Budget for in-flight sweeps once draining (iddqsyn_server
  /// --drain-timeout-ms): sweeps still running at the deadline are
  /// cancelled (cooperative — they land within one progress tick).
  /// 0 = wait for them without bound.
  std::size_t drain_timeout_ms = 0;
  /// Default deadline_ms for submits that do not carry their own
  /// (iddqsyn_server --job-timeout-ms). 0 = none.
  std::size_t default_deadline_ms = 0;
};

class JobProtocolSession {
 public:
  using Options = JobProtocolOptions;

  /// `backend` and `channel` must outlive the session. The backend is
  /// shared: several sessions (connections) may submit to it concurrently.
  JobProtocolSession(SweepBackend& backend, support::LineChannel& channel,
                     Options options = {});

  /// Serves the connection until EOF or a shutdown op; drains outstanding
  /// sweeps before returning. Returns true when the client asked the
  /// whole server to shut down (the caller decides what that means).
  bool run();

 private:
  /// Returns true when the line was a shutdown op.
  bool handle_line(const std::string& line);
  void handle_submit(const json::JsonValue& request);
  /// Everything except progress ticks is must_deliver. Only called
  /// inside run(), where the event writer exists.
  void send(const std::string& json,
            EventDeliveryClass cls = EventDeliveryClass::must_deliver);
  /// `id` (when non-empty) tags the error with the submit it rejects, so
  /// relaying clients can attribute it to a sweep.
  void send_error(const std::string& message, const std::string& id = "");
  void send_stats();
  [[nodiscard]] bool draining() const;
  void drain();
  /// The writer's overflow hook: aborts the read loop and cancels every
  /// sweep this session still owns, so a disconnected session's work
  /// stops consuming the backend.
  void on_overflow_disconnect();

  SweepBackend* backend_;
  support::LineChannel* channel_;
  Options options_;

  std::mutex state_mutex_;  // guards sweeps_
  /// Every sweep this session submitted, by id; a finished sweep stays
  /// until a later submit reuses its id, so a late cancel is not an error.
  std::unordered_map<std::string, std::shared_ptr<BackendSweep>> sweeps_;
  std::uint64_t auto_id_ = 0;  // for submits without an "id"
  SessionEventWriter* writer_ = nullptr;  // run()-scoped
};

/// Serves every connection `listener` accepts — one JobProtocolSession per
/// connection, each on its own thread, all over `backend` — until a
/// session's shutdown op or SIGTERM closes the listener. Then it drains:
/// the drain flag turns new submits away, every session's blocked read is
/// stopped, and each session finishes its in-flight sweeps (bounded by
/// options.drain_timeout_ms), says bye and is joined. `options.draining`
/// is replaced by the loop's own flag. On stderr, prefixed by `tool`, it
/// logs "listening on ENDPOINT" (tests and `--listen host:0` deployments
/// parse the port from it) and why the loop ended.
void serve_listener(SweepBackend& backend, support::SocketListener& listener,
                    JobProtocolOptions options, std::string_view tool);

/// Where a front-end serves sessions (--pipe / --socket / --listen).
struct ServeEndpoint {
  enum class Kind { pipe, unix_socket, tcp };
  Kind kind = Kind::pipe;
  std::string address;     // socket path, or TCP host
  std::uint16_t port = 0;  // TCP only; 0 = ephemeral
};

/// Serves `backend` on `endpoint`: one session on stdin/stdout for pipe
/// mode (its shutdown op drains it through a local drain flag), else
/// serve_listener on a unix-domain or TCP listener.
void serve_endpoint(SweepBackend& backend, const ServeEndpoint& endpoint,
                    JobProtocolOptions options, std::string_view tool);

}  // namespace iddq::core
