// Line-delimited JSON job protocol — the wire format of iddqsyn_server
// (docs/server.md has the full spec and a worked session).
//
// One JobProtocolSession serves one client connection: it reads request
// objects line by line from a support::LineChannel, shards submits across
// the shared JobService (per-shard seeds mix_seed(seed, shard) — the same
// derivation as BatchRunner, so server results are byte-identical to
// `iddqsyn --jobs N` at the same base seed), and streams every JobEvent
// back as it happens. Worker threads emit concurrently; the session
// serializes channel writes internally.
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
// submitted job reaches a terminal state and its events are flushed
// before run() returns (shutdown additionally answers "bye").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event_writer.hpp"
#include "core/job_service.hpp"
#include "support/transport.hpp"

namespace iddq::core {

/// Server-wide traffic counters, shared by every session of one server
/// process (iddqsyn_server wires a single instance into all sessions).
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

/// The queue priority a submit's "priority" field asks for. The field is
/// untrusted input: finite values are clamped to [-1e6, 1e6] before the
/// int cast (an out-of-range or NaN cast is undefined behavior) and the
/// rest read as 0; 1e6 dwarfs any real priority scheme. The server session
/// and the cluster front-end both parse "priority" through this.
[[nodiscard]] int submit_priority(double requested);

/// Session knobs; namespace-scope so it can be a default argument.
struct JobProtocolOptions {
  bool emit_hello = true;  // announce protocol/workers on session start
  /// Admission bound (iddqsyn_server --max-queue): a submit whose shard
  /// fan-out would push the service's queue depth past this is rejected
  /// whole with a protocol `error` event — nothing of it is queued. 0 =
  /// unbounded.
  std::size_t max_queue = 0;
  /// Outbound event-queue bound (iddqsyn_server --session-queue): the
  /// most lines the session's event writer buffers for a slow client
  /// before the overflow policy (docs/server.md, "Backpressure") fires.
  /// 0 = unbounded (events are never dropped and a stalled client can
  /// buffer without limit — the pre-queue semantics, kept as the default
  /// for embedders and unit tests).
  std::size_t session_queue = 0;
  /// Per-session in-flight job quota (iddqsyn_server
  /// --max-jobs-per-session): a submit whose fan-out would push this
  /// session's unfinished-job count past the bound is rejected whole
  /// with a protocol `error`. 0 = unlimited.
  std::size_t max_jobs_per_session = 0;
  /// Optional server-wide counters; sessions bump them when the overflow
  /// policy or the quota fires. May be nullptr (standalone sessions).
  SessionTrafficStats* traffic = nullptr;
  /// Server-wide drain flag (docs/robustness.md). When set — by any
  /// session's shutdown op or the server's SIGTERM handler — every
  /// session rejects new submits with a protocol `error`, finishes its
  /// in-flight jobs bounded by `drain_timeout_ms`, and answers `bye`.
  /// May be nullptr (standalone sessions: only their own shutdown op
  /// drains them, unbounded — the pre-drain semantics).
  std::atomic<bool>* draining = nullptr;
  /// Budget for in-flight jobs once draining (iddqsyn_server
  /// --drain-timeout-ms): jobs still running at the deadline are
  /// cancelled (cooperative — they land within one progress tick).
  /// 0 = wait for them without bound.
  std::size_t drain_timeout_ms = 0;
  /// Default JobSpec::deadline_ms for submits that do not carry their own
  /// "deadline_ms" (iddqsyn_server --job-timeout-ms). 0 = none.
  std::size_t default_deadline_ms = 0;
};

class JobProtocolSession {
 public:
  using Options = JobProtocolOptions;

  /// `service` and `channel` must outlive the session. The service is
  /// shared: several sessions (server connections) may submit to it
  /// concurrently.
  JobProtocolSession(JobService& service, support::LineChannel& channel,
                     Options options = {});

  /// Serves the connection until EOF or a shutdown op; drains outstanding
  /// jobs before returning. Returns true when the client asked the whole
  /// server to shut down (the caller decides what that means).
  bool run();

 private:
  /// One submit's fan-out state; counters guarded by state_mutex_.
  struct Sweep {
    std::string id;
    std::size_t remaining = 0;
    std::size_t announced = 0;  // shards whose `queued` event was seen
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::vector<JobHandle> handles;
  };

  /// Returns true when the line was a shutdown op.
  bool handle_line(const std::string& line);
  void handle_submit(const struct SubmitRequest& request);
  void on_event(const std::shared_ptr<Sweep>& sweep, const JobEvent& event);
  void send_sweep_done(const std::string& id, std::size_t ok,
                       std::size_t failed, std::size_t cancelled);
  /// Routes through the session's event writer (non-blocking; overflow
  /// policy applies per `cls`). Everything except progress ticks is
  /// must_deliver.
  void send(const std::string& json,
            EventDeliveryClass cls = EventDeliveryClass::must_deliver);
  /// `id` (when non-empty) tags the error with the submit it rejects, so
  /// relaying clients can attribute it to a sweep.
  void send_error(const std::string& message, const std::string& id = "");
  void send_stats();
  void drain();
  /// The writer's overflow hook: aborts the read loop and cancels every
  /// job this session still owns, so a disconnected session's work stops
  /// consuming workers.
  void on_overflow_disconnect();

  JobService* service_;
  support::LineChannel* channel_;
  Options options_;

  std::mutex write_mutex_;  // serializes the no-writer fallback path
  std::mutex state_mutex_;  // guards sweeps_ / handles_ / in_flight_
  std::unordered_map<std::string, std::shared_ptr<Sweep>> sweeps_;
  std::vector<JobHandle> handles_;  // every job this session submitted
  std::size_t in_flight_ = 0;  // submitted shards not yet terminal
  std::uint64_t auto_id_ = 0;  // for submits without an "id"
  /// The run()-scoped event writer; null outside run() (send() then
  /// falls back to a direct locked write).
  SessionEventWriter* writer_ = nullptr;
};

}  // namespace iddq::core
