#include "core/job_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace iddq::core {

/// A parsed submit op (declared in the header as an opaque parameter).
struct SubmitRequest {
  std::string id;
  std::vector<std::string> circuits;
  std::vector<std::string> methods{"evolution", "standard"};
  std::uint64_t seed = 1;
  /// Explicit per-shard base seeds (same length as circuits). When present
  /// they bypass the mix_seed(seed, shard) derivation entirely — this is
  /// how a cluster front-end makes seeds travel WITH a shard instead of
  /// depending on its position inside some backend's submit, so retrying a
  /// shard on another host cannot change its rows (docs/cluster.md).
  std::vector<std::uint64_t> seeds;
  std::size_t budget = 0;
  bool use_cache = true;
  int priority = 0;
  /// Per-job wall-clock budget (JobSpec::deadline_ms); 0 falls back to
  /// the server's --job-timeout-ms default.
  std::size_t deadline_ms = 0;
};

int submit_priority(double requested) {
  return std::isfinite(requested)
             ? static_cast<int>(std::clamp(requested, -1.0e6, 1.0e6))
             : 0;
}

namespace {

using json::JsonWriter;

const char* event_name(JobEvent::Kind kind) {
  switch (kind) {
    case JobEvent::Kind::queued: return "queued";
    case JobEvent::Kind::running: return "running";
    case JobEvent::Kind::progress: return "progress";
    case JobEvent::Kind::row: return "row";
    case JobEvent::Kind::done: return "done";
    case JobEvent::Kind::failed: return "failed";
    case JobEvent::Kind::cancelled: return "cancelled";
  }
  return "?";
}

std::string event_json(const std::string& sweep_id, const JobEvent& e) {
  JsonWriter w;
  w.field("event", event_name(e.kind))
      .field("id", sweep_id)
      .field("circuit", e.circuit)
      .field("job", e.job);
  switch (e.kind) {
    case JobEvent::Kind::progress:
      w.field("method", e.method)
          .field("iteration", e.iteration)
          .field("evaluations", e.evaluations)
          .field("violation", e.best.violation)
          .field("cost", e.best.cost);
      break;
    case JobEvent::Kind::row: {
      const MethodResult& row = *e.row;
      JsonWriter costs(JsonWriter::Kind::Array);
      for (const double c : row.costs.as_array()) costs.element(c);
      w.field("index", e.row_index)
          .field("method", row.method)
          .field("modules", row.module_count)
          .field("violation", row.fitness.violation)
          .field("cost", row.fitness.cost)
          .field_raw("c", std::move(costs).str())
          .field("sensor_area", row.sensor_area)
          .field("delay_overhead", row.delay_overhead)
          .field("test_overhead", row.test_overhead)
          .field("iterations", row.iterations)
          .field("evaluations", row.evaluations)
          .field("feasible", row.fitness.feasible());
      // Measured-coverage columns ride along only when the server's flow
      // grades them: absent fields keep coverage-off streams byte-
      // identical to the previous protocol revision.
      if (row.has_coverage) {
        w.field("fault_coverage_pct", row.fault_coverage_pct)
            .field("faults_detected", row.faults_detected)
            .field("faults_total", row.faults_total)
            .field("patterns_used", row.patterns_used)
            .field("patterns_minimized", row.patterns_minimized);
      }
      break;
    }
    case JobEvent::Kind::failed:
      w.field("error", e.error);
      // Machine-readable failure class ("timeout"). Absent for plain
      // errors, keeping pre-deadline streams byte-identical.
      if (!e.reason.empty()) w.field("reason", e.reason);
      break;
    default:
      break;
  }
  return std::move(w).str();
}

}  // namespace

JobProtocolSession::JobProtocolSession(JobService& service,
                                       support::LineChannel& channel,
                                       Options options)
    : service_(&service), channel_(&channel), options_(options) {}

bool JobProtocolSession::run() {
  bool shutdown_requested = false;
  {
    // All channel writes of this session funnel through one writer
    // thread; emitting workers enqueue and return immediately, so a
    // client that stops reading can stall only this session.
    SessionEventWriter writer(
        *channel_, options_.session_queue, [this] { on_overflow_disconnect(); },
        JsonWriter()
            .field("event", "error")
            .field("message",
                   "event queue overflow: client not reading; session "
                   "disconnected")
            .str());
    writer_ = &writer;

    if (options_.emit_hello)
      send(JsonWriter()
               .field("event", "hello")
               .field("protocol", std::uint64_t{1})
               .field("workers", service_->worker_count())
               .str());

    std::string line;
    while (!writer.disconnected() && channel_->read_line(line)) {
      if (str::trim(line).empty()) continue;
      if (handle_line(line)) {
        shutdown_requested = true;
        break;
      }
    }
    // EOF and shutdown both drain: every submitted job reaches a terminal
    // state and has streamed its events before the session ends. (After
    // an overflow disconnect the jobs were cancelled and their events are
    // rejected at the queue, so this stays prompt.) In server-wide drain
    // mode the wait is bounded by --drain-timeout-ms and the session says
    // bye even when it was ended by the accept loop's shutdown_read — the
    // client sees an orderly close, not a silent EOF.
    drain();
    const bool server_draining =
        options_.draining != nullptr &&
        options_.draining->load(std::memory_order_acquire);
    if ((shutdown_requested || server_draining) && !writer.disconnected())
      send(JsonWriter().field("event", "bye").str());
    if (server_draining && options_.traffic != nullptr)
      options_.traffic->drained_sessions.fetch_add(1,
                                                   std::memory_order_relaxed);
    // Everything queued is on the wire before run() returns — callers
    // (and tests) may read the channel's other end immediately after.
    writer.flush();
    writer_ = nullptr;
  }
  return shutdown_requested;
}

bool JobProtocolSession::handle_line(const std::string& line) {
  const auto request = json::JsonValue::parse(line);
  if (!request || !request->is_object()) {
    send_error("malformed request: not a JSON object");
    return false;
  }
  const std::string op = request->get_string("op");
  if (op == "shutdown") {
    // Flip the server-wide drain flag here, not in the caller: every
    // OTHER session must start rejecting submits before this one's bye,
    // or a submit racing the shutdown could be half-admitted.
    if (options_.draining != nullptr)
      options_.draining->store(true, std::memory_order_release);
    return true;
  }
  if (op == "stats") {
    send_stats();
    return false;
  }
  if (op == "ping") {
    // Liveness probe: answered inline by the session thread, no service
    // interaction — a wedged worker pool still answers, a dead transport
    // does not, which is exactly the health signal a cluster front-end
    // needs before routing shards here.
    JsonWriter pong;
    pong.field("event", "pong")
        .field("protocol", std::uint64_t{1})
        .field("workers", service_->worker_count());
    // Echo the probe id (the heartbeat prober tags its pings "hb" so its
    // pongs never collide with a stats/ping rendezvous). Absent when the
    // request had none — plain pings keep their old bytes.
    const std::string ping_id = request->get_string("id");
    if (!ping_id.empty()) pong.field("id", ping_id);
    send(std::move(pong).str());
    return false;
  }
  if (op == "cancel") {
    const std::string id = request->get_string("id");
    std::vector<JobHandle> to_cancel;
    {
      const std::scoped_lock lock(state_mutex_);
      const auto it = sweeps_.find(id);
      if (it != sweeps_.end()) to_cancel = it->second->handles;
    }
    if (to_cancel.empty()) {
      send_error("cancel: unknown sweep id '" + id + "'");
      return false;
    }
    for (auto& handle : to_cancel) handle.cancel();
    return false;
  }
  if (op == "submit") {
    SubmitRequest submit;
    submit.id = request->get_string("id");
    if (submit.id.empty()) submit.id = "job-" + std::to_string(++auto_id_);
    // Drain mode (docs/robustness.md): the server is shutting down —
    // in-flight work finishes, new work is turned away.
    if (options_.draining != nullptr &&
        options_.draining->load(std::memory_order_acquire)) {
      send_error("submit: server is draining; resubmit elsewhere",
                 submit.id);
      return false;
    }
    if (const json::JsonValue* circuits = request->find("circuits")) {
      for (const auto& c : circuits->items())
        if (c.is_string()) submit.circuits.push_back(c.as_string());
    } else if (const json::JsonValue* one = request->find("circuit")) {
      if (one->is_string()) submit.circuits.push_back(one->as_string());
    }
    if (const json::JsonValue* methods = request->find("methods")) {
      submit.methods.clear();
      for (const auto& m : methods->items())
        if (m.is_string()) submit.methods.push_back(m.as_string());
    }
    submit.seed = request->get_u64("seed", 1);
    if (const json::JsonValue* seeds = request->find("seeds")) {
      for (const auto& s : seeds->items()) {
        std::uint64_t value = 0;
        if (!s.as_u64(value)) {
          send_error("submit: \"seeds\" must be an array of unsigned "
                     "64-bit integers",
                     submit.id);
          return false;
        }
        submit.seeds.push_back(value);
      }
    }
    submit.budget = static_cast<std::size_t>(request->get_u64("budget", 0));
    submit.use_cache = request->get_bool("cache", true);
    submit.deadline_ms = static_cast<std::size_t>(
        request->get_u64("deadline_ms", options_.default_deadline_ms));
    // Doubles carry the sign ("priority":-2 is valid — background work).
    submit.priority = submit_priority(request->get_double("priority", 0.0));
    if (submit.circuits.empty()) {
      send_error("submit: needs \"circuits\" (or \"circuit\")", submit.id);
      return false;
    }
    if (submit.methods.empty()) {
      send_error("submit: needs at least one method", submit.id);
      return false;
    }
    if (!submit.seeds.empty() &&
        submit.seeds.size() != submit.circuits.size()) {
      send_error("submit: \"seeds\" must have one entry per circuit (" +
                     std::to_string(submit.seeds.size()) + " seeds for " +
                     std::to_string(submit.circuits.size()) + " circuits)",
                 submit.id);
      return false;
    }
    handle_submit(submit);
    return false;
  }
  send_error("unknown op '" + op + "'");
  return false;
}

void JobProtocolSession::handle_submit(const SubmitRequest& request) {
  // Per-session quota: one greedy client cannot monopolize the shared
  // worker pool. Checked before the global admission bound so the error
  // names the narrower limit. The session reads requests serially, so
  // check-then-admit cannot race with another submit of this session;
  // concurrent terminal events only shrink in_flight_.
  if (options_.max_jobs_per_session > 0) {
    std::size_t in_flight = 0;
    {
      const std::scoped_lock lock(state_mutex_);
      in_flight = in_flight_;
    }
    if (in_flight + request.circuits.size() >
        options_.max_jobs_per_session) {
      if (options_.traffic != nullptr)
        options_.traffic->quota_rejections.fetch_add(
            1, std::memory_order_relaxed);
      send_error("submit: session quota exceeded (" +
                     std::to_string(in_flight) + " in flight + " +
                     std::to_string(request.circuits.size()) +
                     " requested > quota " +
                     std::to_string(options_.max_jobs_per_session) +
                     "); wait for running jobs to finish",
                 request.id);
      return;
    }
  }
  // Admission control: reject the whole sweep up front when its fan-out
  // would overflow the queue bound — a partially admitted sweep would be
  // worse than a clean retry-later signal. The reservation is atomic
  // across sessions: concurrent submits cannot jointly overshoot the
  // bound (it is released below, once every shard is queued).
  if (options_.max_queue > 0 &&
      request.circuits.size() > options_.max_queue) {
    // Not transient: a sweep wider than the bound can never be admitted.
    send_error("submit: sweep of " + std::to_string(request.circuits.size()) +
                   " jobs exceeds the queue bound " +
                   std::to_string(options_.max_queue) + "; split the sweep",
               request.id);
    return;
  }
  if (!service_->try_reserve(request.circuits.size(), options_.max_queue)) {
    send_error("submit: queue full (" +
                   std::to_string(service_->queue_depth()) +
                   " queued, bound " + std::to_string(options_.max_queue) +
                   "); retry later",
               request.id);
    return;
  }
  // RAII over the reserved slots: whatever is still held when this frame
  // unwinds — early return, contained error, even an unexpected throw —
  // is handed back, so admission can never leak.
  struct ReservationGuard {
    JobService* service;
    std::size_t held;
    ~ReservationGuard() {
      if (held > 0) service->release_reservation(held);
    }
  } reservation{service_,
                // No bound -> try_reserve took nothing; hold (and later
                // release) nothing, or we would erode reservations other
                // sessions hold on the shared service.
                options_.max_queue > 0 ? request.circuits.size() : 0};

  std::string error;
  std::shared_ptr<Sweep> sweep;
  bool accepted = false;
  try {
    sweep = std::make_shared<Sweep>();
    sweep->id = request.id;
    sweep->remaining = request.circuits.size();
    {
      const std::scoped_lock lock(state_mutex_);
      const auto it = sweeps_.find(request.id);
      if (it != sweeps_.end() && it->second->remaining > 0) {
        send_error("submit: sweep id '" + request.id + "' is still active",
                   request.id);
        return;
      }
      sweeps_[request.id] = sweep;
      // Quota accounting mirrors sweep->remaining exactly: charged whole
      // here, refunded per terminal event (announced shards) or by the
      // write-off below (shards that never reached the queue).
      in_flight_ += request.circuits.size();
    }
    accepted = true;
    send(JsonWriter()
             .field("event", "accepted")
             .field("id", request.id)
             .field("jobs", request.circuits.size())
             .str());

    for (std::size_t shard = 0; shard < request.circuits.size(); ++shard) {
      // A session the backpressure policy disconnected will never deliver
      // results: stop admitting shards. The write-off below retires the
      // ones that never reached the queue (they produced no events).
      if (writer_ != nullptr && writer_->disconnected())
        throw iddq::Error("session disconnected (event queue overflow)");
      JobSpec spec;
      spec.circuit = request.circuits[shard];
      spec.methods = request.methods;
      // Same derivation as BatchRunner: shard-index seeds keep a server
      // sweep byte-identical to `iddqsyn --jobs N` at the same base seed.
      // An explicit "seeds" array overrides it — the seed is then DATA the
      // submitter shipped with the shard, independent of its index here.
      spec.base_seed = request.seeds.empty()
                           ? Rng::mix_seed(request.seed, shard)
                           : request.seeds[shard];
      spec.max_evaluations = request.budget;
      spec.priority = request.priority;
      spec.deadline_ms = request.deadline_ms;
      spec.cache_policy = request.use_cache ? JobSpec::CachePolicy::use
                                            : JobSpec::CachePolicy::bypass;
      JobHandle handle = service_->submit(
          std::move(spec),
          [this, sweep](const JobEvent& event) { on_event(sweep, event); });
      // This shard is on the real queue now: release its promised slot
      // immediately, so a client slow to drain the event stream (send
      // blocks on a full socket) does not pin admission slots that other
      // sessions could use.
      if (reservation.held > 0) {
        service_->release_reservation(1);
        --reservation.held;
      }
      {
        const std::scoped_lock lock(state_mutex_);
        sweep->handles.push_back(handle);
        handles_.push_back(handle);
      }
      // The overflow hook can fire inside submit() above (this shard's
      // own `queued` event posts synchronously) — before the handle was
      // registered, so the hook could not cancel it. Re-check here so no
      // shard of a disconnected session outlives the policy.
      if (writer_ != nullptr && writer_->disconnected()) handle.cancel();
    }
    return;
  } catch (const std::exception& e) {
    // A concurrent shutdown closed intake mid-sweep (iddq::Error), or
    // something like bad_alloc hit: either way the exception must not
    // unwind the session thread — serve_socket runs sessions on bare
    // std::threads.
    error = e.what();
  }
  // Account for the shards that will never run so the sweep still
  // completes, then tell the client. A shard whose `queued` event was
  // seen self-accounts through its sink (JobService::submit finalizes on
  // any post-announce failure); every other shard produced no events and
  // is written off here. The queued events fire synchronously on this
  // thread, so sweep->announced is final by now.
  bool finished = false;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  if (accepted) {
    const std::scoped_lock lock(state_mutex_);
    const std::size_t unaccounted =
        request.circuits.size() - sweep->announced;
    if (unaccounted > 0 && sweep->remaining >= unaccounted) {
      sweep->remaining -= unaccounted;
      in_flight_ -= std::min(in_flight_, unaccounted);
      if (sweep->remaining == 0) {
        finished = true;
        ok = sweep->ok;
        failed = sweep->failed;
        cancelled = sweep->cancelled;
      }
    }
  }
  send_error("submit: " + error, request.id);
  if (finished) send_sweep_done(request.id, ok, failed, cancelled);
}

void JobProtocolSession::send_sweep_done(const std::string& id,
                                         std::size_t ok, std::size_t failed,
                                         std::size_t cancelled) {
  send(JsonWriter()
           .field("event", "sweep_done")
           .field("id", id)
           .field("ok", ok)
           .field("failed", failed)
           .field("cancelled", cancelled)
           .str());
}

void JobProtocolSession::on_event(const std::shared_ptr<Sweep>& sweep,
                                  const JobEvent& event) {
  // Progress ticks are the only droppable class; rows and lifecycle
  // transitions must reach the client in order or not at all.
  send(event_json(sweep->id, event), delivery_class(event.kind));
  if (event.kind == JobEvent::Kind::queued) {
    // Ground truth for the error accounting in handle_submit: an
    // announced shard is guaranteed a terminal event (JobService::submit
    // finalizes on any post-announce failure), an unannounced one never
    // produces any.
    const std::scoped_lock lock(state_mutex_);
    ++sweep->announced;
    return;
  }
  if (event.kind != JobEvent::Kind::done &&
      event.kind != JobEvent::Kind::failed &&
      event.kind != JobEvent::Kind::cancelled)
    return;

  bool sweep_finished = false;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  {
    const std::scoped_lock lock(state_mutex_);
    if (event.kind == JobEvent::Kind::done) ++sweep->ok;
    if (event.kind == JobEvent::Kind::failed) ++sweep->failed;
    if (event.kind == JobEvent::Kind::cancelled) ++sweep->cancelled;
    if (in_flight_ > 0) --in_flight_;
    if (--sweep->remaining == 0) {
      sweep_finished = true;
      ok = sweep->ok;
      failed = sweep->failed;
      cancelled = sweep->cancelled;
    }
  }
  if (sweep_finished) send_sweep_done(sweep->id, ok, failed, cancelled);
}

void JobProtocolSession::send(const std::string& json,
                              EventDeliveryClass cls) {
  if (writer_ != nullptr) {
    // Non-blocking: a rejected post means the session is disconnected or
    // the peer is gone — either way the stream is over.
    (void)writer_->post(json, cls);
    return;
  }
  const std::scoped_lock lock(write_mutex_);
  (void)channel_->write_line(json);  // a gone peer just stops the stream
}

void JobProtocolSession::send_error(const std::string& message,
                                    const std::string& id) {
  // Errors caused by a specific submit echo its sweep "id" so a relaying
  // front-end (tools/iddqsyn_cluster) can attribute the rejection to a
  // shard and retry it elsewhere; session-level errors carry no id.
  JsonWriter w;
  w.field("event", "error");
  if (!id.empty()) w.field("id", id);
  w.field("message", message);
  send(std::move(w).str());
}

void JobProtocolSession::send_stats() {
  JsonWriter w;
  w.field("event", "stats")
      .field("workers", service_->worker_count())
      .field("submitted", service_->submitted())
      .field("completed", service_->completed())
      .field("failed", service_->failed())
      .field("cancelled", service_->cancelled())
      .field("timeouts", service_->timeouts())
      .field("drained_sessions",
             options_.traffic != nullptr
                 ? options_.traffic->drained_sessions.load(
                       std::memory_order_relaxed)
                 : std::uint64_t{0});
  if (const ResultCache* cache = service_->flow_config().cache;
      cache != nullptr) {
    w.field("cache_hits", cache->hits())
        .field("cache_misses", cache->misses())
        .field("cache_entries", cache->size())
        .field("cache_corrupt_lines", cache->corrupt_lines())
        .field("cache_resident", cache->resident_size())
        .field("cache_evictions", cache->evictions())
        .field("cache_disk_hits", cache->disk_hits());
  }
  if (writer_ != nullptr) {
    const SessionEventWriter::Stats q = writer_->stats();
    JsonWriter qs;
    qs.field("depth", q.depth)
        .field("high_water", q.depth_high_water)
        .field("enqueued", q.enqueued)
        .field("dropped_progress", q.dropped_progress)
        .field("disconnects",
               options_.traffic != nullptr
                   ? options_.traffic->overflow_disconnects.load(
                         std::memory_order_relaxed)
                   : static_cast<std::uint64_t>(q.disconnected ? 1 : 0));
    w.field_raw("queue_stats", std::move(qs).str());
  }
  send(std::move(w).str());
}

void JobProtocolSession::on_overflow_disconnect() {
  if (options_.traffic != nullptr)
    options_.traffic->overflow_disconnects.fetch_add(
        1, std::memory_order_relaxed);
  // Stop consuming requests: the read loop's blocking read aborts (where
  // the channel supports it) and its loop condition re-checks
  // writer_->disconnected() either way.
  channel_->shutdown_read();
  // The client will never see this session's remaining results; cancel
  // its jobs so they stop consuming shared workers. Their terminal events
  // are rejected at the (disconnected) queue, and drain() stays prompt.
  std::vector<JobHandle> to_cancel;
  {
    const std::scoped_lock lock(state_mutex_);
    to_cancel = handles_;
  }
  for (auto& handle : to_cancel) handle.cancel();
}

void JobProtocolSession::drain() {
  std::vector<JobHandle> handles;
  {
    const std::scoped_lock lock(state_mutex_);
    handles = handles_;
  }
  // Bounded drain (docs/robustness.md): once the server is draining, in-
  // flight jobs get --drain-timeout-ms collectively; whatever is still
  // running at the deadline is cancelled (cooperative — it lands within
  // one progress tick, so the unconditional wait below stays prompt).
  if (options_.drain_timeout_ms > 0 && options_.draining != nullptr &&
      options_.draining->load(std::memory_order_acquire)) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_timeout_ms);
    for (const auto& handle : handles) {
      const auto now = std::chrono::steady_clock::now();
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now);
      if (left.count() <= 0 || !handle.wait_for(left)) {
        for (auto& rest : handles) rest.cancel();
        break;
      }
    }
  }
  for (const auto& handle : handles) (void)handle.wait();
}

}  // namespace iddq::core
