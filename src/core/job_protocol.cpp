#include "core/job_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace iddq::core {

namespace {

using json::JsonWriter;

/// The queue priority a submit's "priority" field asks for. The field is
/// untrusted input: finite values are clamped to [-1e6, 1e6] before the
/// int cast (an out-of-range or NaN cast is undefined behavior) and the
/// rest read as 0; 1e6 dwarfs any real priority scheme.
int submit_priority(double requested) {
  return std::isfinite(requested)
             ? static_cast<int>(std::clamp(requested, -1.0e6, 1.0e6))
             : 0;
}

/// A protocol `error` event. Errors caused by a specific submit carry its
/// sweep "id" so a relaying front-end (iddqsyn_cluster) can attribute the
/// rejection to a shard and retry it elsewhere; session-level errors
/// carry none.
std::string error_line(const std::string& message, const std::string& id) {
  JsonWriter w;
  w.field("event", "error");
  if (!id.empty()) w.field("id", id);
  w.field("message", message);
  return std::move(w).str();
}

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

/// One sweep on a JobService: a job per shard, and the sweep_done
/// accounting over their terminal events.
class JobServiceSweep final
    : public BackendSweep,
      public std::enable_shared_from_this<JobServiceSweep> {
 public:
  JobServiceSweep(JobService& service, const SubmitRequest& request,
                  SessionEventWriter& out, std::size_t reserved)
      : service_(&service),
        request_(request),
        out_(&out),
        reserved_(reserved),
        remaining_(request.circuits.size()) {}

  ~JobServiceSweep() override {
    // Admission slots never handed to a queued shard — the session turned
    // the sweep away after admit(), or the fan-out unwound — go back, so
    // admission can never leak.
    if (reserved_ > 0) service_->release_reservation(reserved_);
  }

  void start() override;

  void cancel() override {
    std::vector<JobHandle> handles;
    {
      const std::scoped_lock lock(mutex_);
      handles = handles_;
    }
    for (auto& handle : handles) handle.cancel();
  }

  void wait() override {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [this] { return done_; });
  }

  bool wait_for(std::chrono::milliseconds timeout) override {
    std::unique_lock lock(mutex_);
    return done_cv_.wait_for(lock, timeout, [this] { return done_; });
  }

  [[nodiscard]] std::size_t unfinished() const override {
    const std::scoped_lock lock(mutex_);
    return remaining_;
  }

 private:
  void on_event(const JobEvent& event);
  /// Emits sweep_done, then releases wait(): nothing of this sweep
  /// touches the writer afterwards.
  void send_sweep_done(std::size_t ok, std::size_t failed,
                       std::size_t cancelled);

  JobService* service_;
  const SubmitRequest request_;
  SessionEventWriter* out_;
  std::size_t reserved_;  // admission slots still held (start() thread)

  mutable std::mutex mutex_;  // guards everything below
  std::condition_variable done_cv_;
  std::vector<JobHandle> handles_;
  std::size_t remaining_;      // shards not yet terminal
  std::size_t announced_ = 0;  // shards whose `queued` event was seen
  std::size_t ok_ = 0;
  std::size_t failed_ = 0;
  std::size_t cancelled_ = 0;
  bool done_ = false;  // sweep_done emitted
};

void JobServiceSweep::start() {
  std::string error;
  try {
    for (std::size_t shard = 0; shard < request_.circuits.size(); ++shard) {
      // A session the backpressure policy disconnected will never deliver
      // results: stop admitting shards. The write-off below retires the
      // ones that never reached the queue (they produced no events).
      if (out_->disconnected())
        throw iddq::Error("session disconnected (event queue overflow)");
      // The sink holds the sweep weakly: the sweep owns this shard's
      // handle, which owns the sink, so a strong capture would be a
      // reference cycle. The session keeps the sweep alive until its
      // sweep_done, the last event it emits.
      JobHandle handle = service_->submit(
          shard_spec(request_, shard),
          [weak = weak_from_this()](const JobEvent& event) {
            if (const auto live = weak.lock()) live->on_event(event);
          });
      // This shard is on the real queue now: release its promised slot
      // immediately, so a client slow to drain the event stream does not
      // pin admission slots that other sessions could use.
      if (reserved_ > 0) {
        service_->release_reservation(1);
        --reserved_;
      }
      {
        const std::scoped_lock lock(mutex_);
        handles_.push_back(handle);
      }
      // The overflow hook can fire inside submit() above (this shard's
      // own `queued` event posts synchronously) — before the handle was
      // registered, so the hook's cancel() could not reach it. Re-check
      // here so no shard of a disconnected session outlives the policy.
      if (out_->disconnected()) handle.cancel();
    }
    return;
  } catch (const std::exception& e) {
    // A concurrent shutdown closed intake mid-sweep (iddq::Error), or
    // something like bad_alloc hit: either way the exception must not
    // unwind the session thread — serve_listener runs sessions on bare
    // std::threads.
    error = e.what();
  }
  // Slots of the shards that will never queue go back now, not when the
  // session ends.
  service_->release_reservation(reserved_);
  reserved_ = 0;
  // Account for the shards that will never run so the sweep still
  // completes, then tell the client. A shard whose `queued` event was
  // seen self-accounts through its sink (JobService::submit finalizes on
  // any post-announce failure); every other shard produced no events and
  // is written off here. The queued events fire synchronously on this
  // thread, so announced_ is final by now.
  bool finished = false;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  {
    const std::scoped_lock lock(mutex_);
    const std::size_t unaccounted = request_.circuits.size() - announced_;
    if (unaccounted > 0 && remaining_ >= unaccounted) {
      remaining_ -= unaccounted;
      finished = remaining_ == 0;
      ok = ok_;
      failed = failed_;
      cancelled = cancelled_;
    }
  }
  (void)out_->post(error_line("submit: " + error, request_.id),
                   EventDeliveryClass::must_deliver);
  if (finished) send_sweep_done(ok, failed, cancelled);
}

void JobServiceSweep::on_event(const JobEvent& event) {
  // Progress ticks are the only droppable class; rows and lifecycle
  // transitions must reach the client in order or not at all.
  (void)out_->post(event_json(request_.id, event), delivery_class(event.kind));
  if (event.kind == JobEvent::Kind::queued) {
    // Ground truth for the write-off in start(): an announced shard is
    // guaranteed a terminal event (JobService::submit finalizes on any
    // post-announce failure), an unannounced one never produces any.
    const std::scoped_lock lock(mutex_);
    ++announced_;
    return;
  }
  if (event.kind != JobEvent::Kind::done &&
      event.kind != JobEvent::Kind::failed &&
      event.kind != JobEvent::Kind::cancelled)
    return;

  bool finished = false;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  {
    const std::scoped_lock lock(mutex_);
    if (event.kind == JobEvent::Kind::done) ++ok_;
    if (event.kind == JobEvent::Kind::failed) ++failed_;
    if (event.kind == JobEvent::Kind::cancelled) ++cancelled_;
    finished = --remaining_ == 0;
    ok = ok_;
    failed = failed_;
    cancelled = cancelled_;
  }
  if (finished) send_sweep_done(ok, failed, cancelled);
}

void JobServiceSweep::send_sweep_done(std::size_t ok, std::size_t failed,
                                      std::size_t cancelled) {
  (void)out_->post(JsonWriter()
                       .field("event", "sweep_done")
                       .field("id", request_.id)
                       .field("ok", ok)
                       .field("failed", failed)
                       .field("cancelled", cancelled)
                       .str(),
                   EventDeliveryClass::must_deliver);
  {
    const std::scoped_lock lock(mutex_);
    done_ = true;
  }
  done_cv_.notify_all();
}

// SIGTERM -> graceful drain (docs/robustness.md): the handler may only
// touch async-signal-safe state, so it closes the listener (atomic
// exchange + shutdown/close), which unblocks the accept loop; everything
// else happens on normal threads.
std::atomic<support::SocketListener*> g_signal_listener{nullptr};

extern "C" void handle_sigterm(int /*signum*/) {
  if (auto* listener = g_signal_listener.exchange(nullptr))
    listener->close();
}

}  // namespace

void JobServiceBackend::hello_fields(JsonWriter& w) {
  w.field("workers", service_->worker_count());
}

void JobServiceBackend::pong_fields(JsonWriter& w) {
  // No service interaction: a wedged worker pool still answers, a dead
  // transport does not — the health signal a cluster front-end needs.
  w.field("workers", service_->worker_count());
}

void JobServiceBackend::stats_fields(JsonWriter& w,
                                     const SessionTrafficStats* traffic) {
  w.field("workers", service_->worker_count())
      .field("submitted", service_->submitted())
      .field("completed", service_->completed())
      .field("failed", service_->failed())
      .field("cancelled", service_->cancelled())
      .field("timeouts", service_->timeouts())
      .field("drained_sessions",
             traffic != nullptr
                 ? traffic->drained_sessions.load(std::memory_order_relaxed)
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
}

std::shared_ptr<BackendSweep> JobServiceBackend::admit(
    const SubmitRequest& request, SessionEventWriter& out,
    std::string& rejection) {
  const std::size_t jobs = request.circuits.size();
  // Admission control: reject the whole sweep up front when its fan-out
  // would overflow the queue bound — a partially admitted sweep would be
  // worse than a clean retry-later signal.
  if (max_queue_ > 0 && jobs > max_queue_) {
    // Not transient: a sweep wider than the bound can never be admitted.
    rejection = "sweep of " + std::to_string(jobs) +
                " jobs exceeds the queue bound " +
                std::to_string(max_queue_) + "; split the sweep";
    return nullptr;
  }
  // The reservation is atomic across sessions, so concurrent submits
  // cannot jointly overshoot the bound; the sweep hands it back shard by
  // shard as it queues them.
  if (!service_->try_reserve(jobs, max_queue_)) {
    rejection = "queue full (" + std::to_string(service_->queue_depth()) +
                " queued, bound " + std::to_string(max_queue_) +
                "); retry later";
    return nullptr;
  }
  // No bound -> try_reserve took nothing; hold (and later release)
  // nothing, or we would erode reservations other sessions hold on the
  // shared service.
  return std::make_shared<JobServiceSweep>(*service_, request, out,
                                           max_queue_ > 0 ? jobs : 0);
}

JobProtocolSession::JobProtocolSession(SweepBackend& backend,
                                       support::LineChannel& channel,
                                       Options options)
    : backend_(&backend), channel_(&channel), options_(options) {}

bool JobProtocolSession::run() {
  bool shutdown_requested = false;
  {
    // All channel writes of this session funnel through one writer
    // thread; emitting threads enqueue and return immediately, so a
    // client that stops reading can stall only this session.
    SessionEventWriter writer(
        *channel_, options_.session_queue, [this] { on_overflow_disconnect(); },
        error_line("event queue overflow: client not reading; session "
                   "disconnected",
                   ""));
    writer_ = &writer;

    if (options_.emit_hello) {
      JsonWriter hello;
      hello.field("event", "hello").field("protocol", std::uint64_t{1});
      backend_->hello_fields(hello);
      send(std::move(hello).str());
    }

    std::string line;
    while (!writer.disconnected() && channel_->read_line(line)) {
      if (str::trim(line).empty()) continue;
      if (handle_line(line)) {
        shutdown_requested = true;
        break;
      }
    }
    // EOF and shutdown both drain: every submitted sweep reaches
    // sweep_done and has streamed its events before the session ends.
    // (After an overflow disconnect the sweeps were cancelled and their
    // events are rejected at the queue, so this stays prompt.) In drain
    // mode the wait is bounded by --drain-timeout-ms and the session says
    // bye even when it was ended by serve_listener's shutdown_read — the
    // client sees an orderly close, not a silent EOF.
    drain();
    const bool server_draining = draining();
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
    // Flip the process-wide drain flag here, not in the caller: every
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
    // Liveness probe, answered inline by the session thread.
    JsonWriter pong;
    pong.field("event", "pong").field("protocol", std::uint64_t{1});
    backend_->pong_fields(pong);
    // Echo the probe id (the cluster's heartbeat prober tags its pings
    // "hb" so its pongs never collide with a stats/ping rendezvous).
    // Absent when the request had none — plain pings keep their bytes.
    const std::string ping_id = request->get_string("id");
    if (!ping_id.empty()) pong.field("id", ping_id);
    send(std::move(pong).str());
    return false;
  }
  if (op == "cancel") {
    const std::string id = request->get_string("id");
    std::shared_ptr<BackendSweep> sweep;
    {
      const std::scoped_lock lock(state_mutex_);
      const auto it = sweeps_.find(id);
      if (it != sweeps_.end()) sweep = it->second;
    }
    // A finished sweep is still known: cancelling it is a silent no-op.
    if (sweep == nullptr) {
      send_error("cancel: unknown sweep id '" + id + "'");
      return false;
    }
    sweep->cancel();
    return false;
  }
  if (op == "submit") {
    handle_submit(*request);
    return false;
  }
  send_error("unknown op '" + op + "'");
  return false;
}

void JobProtocolSession::handle_submit(const json::JsonValue& op) {
  SubmitRequest request;
  request.id = op.get_string("id");
  if (request.id.empty()) request.id = "job-" + std::to_string(++auto_id_);
  // Drain mode (docs/robustness.md): the server is shutting down —
  // in-flight work finishes, new work is turned away.
  if (draining()) {
    send_error("submit: server is draining; resubmit elsewhere", request.id);
    return;
  }
  if (const json::JsonValue* circuits = op.find("circuits")) {
    for (const auto& c : circuits->items())
      if (c.is_string()) request.circuits.push_back(c.as_string());
  } else if (const json::JsonValue* one = op.find("circuit")) {
    if (one->is_string()) request.circuits.push_back(one->as_string());
  }
  if (const json::JsonValue* methods = op.find("methods")) {
    request.methods.clear();
    for (const auto& m : methods->items())
      if (m.is_string()) request.methods.push_back(m.as_string());
  }
  request.seed = op.get_u64("seed", 1);
  if (const json::JsonValue* seeds = op.find("seeds")) {
    for (const auto& s : seeds->items()) {
      std::uint64_t value = 0;
      if (!s.as_u64(value)) {
        send_error("submit: \"seeds\" must be an array of unsigned "
                   "64-bit integers",
                   request.id);
        return;
      }
      request.seeds.push_back(value);
    }
  }
  request.budget = static_cast<std::size_t>(op.get_u64("budget", 0));
  request.use_cache = op.get_bool("cache", true);
  request.deadline_ms = static_cast<std::size_t>(
      op.get_u64("deadline_ms", options_.default_deadline_ms));
  // Doubles carry the sign ("priority":-2 is valid — background work).
  request.priority = submit_priority(op.get_double("priority", 0.0));
  if (request.circuits.empty()) {
    send_error("submit: needs \"circuits\" (or \"circuit\")", request.id);
    return;
  }
  if (request.methods.empty()) {
    send_error("submit: needs at least one method", request.id);
    return;
  }
  if (!request.seeds.empty() &&
      request.seeds.size() != request.circuits.size()) {
    send_error("submit: \"seeds\" must have one entry per circuit (" +
                   std::to_string(request.seeds.size()) + " seeds for " +
                   std::to_string(request.circuits.size()) + " circuits)",
               request.id);
    return;
  }
  // Per-session quota: one greedy client cannot monopolize the shared
  // backend. Checked before the backend's admission bound so the error
  // names the narrower limit. The session reads requests serially, so
  // check-then-admit cannot race with another submit of this session;
  // concurrent terminal events only shrink the count.
  if (options_.max_jobs_per_session > 0) {
    std::size_t in_flight = 0;
    {
      const std::scoped_lock lock(state_mutex_);
      for (const auto& entry : sweeps_) in_flight += entry.second->unfinished();
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
  std::string rejection;
  const auto sweep = backend_->admit(request, *writer_, rejection);
  if (sweep == nullptr) {
    send_error("submit: " + rejection, request.id);
    return;
  }
  bool id_taken = false;
  {
    const std::scoped_lock lock(state_mutex_);
    auto& slot = sweeps_[request.id];
    id_taken = slot != nullptr && slot->unfinished() > 0;
    // Registered before it starts, so the overflow hook can cancel it
    // mid-fan-out.
    if (!id_taken) slot = sweep;
  }
  if (id_taken) {
    send_error("submit: sweep id '" + request.id + "' is still active",
               request.id);
    return;
  }
  send(JsonWriter()
           .field("event", "accepted")
           .field("id", request.id)
           .field("jobs", request.circuits.size())
           .str());
  sweep->start();
}

void JobProtocolSession::send(const std::string& json,
                              EventDeliveryClass cls) {
  // Non-blocking: a rejected post means the session is disconnected or
  // the peer is gone — either way the stream is over.
  (void)writer_->post(json, cls);
}

void JobProtocolSession::send_error(const std::string& message,
                                    const std::string& id) {
  send(error_line(message, id));
}

void JobProtocolSession::send_stats() {
  JsonWriter w;
  w.field("event", "stats");
  backend_->stats_fields(w, options_.traffic);
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
  send(std::move(w).str());
}

bool JobProtocolSession::draining() const {
  return options_.draining != nullptr &&
         options_.draining->load(std::memory_order_acquire);
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
  // its sweeps so they stop consuming the backend. Their events are
  // rejected at the (disconnected) queue, and drain() stays prompt.
  std::vector<std::shared_ptr<BackendSweep>> sweeps;
  {
    const std::scoped_lock lock(state_mutex_);
    for (const auto& entry : sweeps_) sweeps.push_back(entry.second);
  }
  for (const auto& sweep : sweeps) sweep->cancel();
}

void JobProtocolSession::drain() {
  std::vector<std::shared_ptr<BackendSweep>> sweeps;
  {
    const std::scoped_lock lock(state_mutex_);
    for (const auto& entry : sweeps_) sweeps.push_back(entry.second);
  }
  // Bounded drain (docs/robustness.md): once the server is draining, in-
  // flight sweeps get --drain-timeout-ms collectively; whatever is still
  // running at the deadline is cancelled (cooperative — it lands within
  // one progress tick, so the unconditional wait below stays prompt).
  if (options_.drain_timeout_ms > 0 && draining()) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_timeout_ms);
    for (const auto& sweep : sweeps) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0 || !sweep->wait_for(left)) {
        for (const auto& rest : sweeps) rest->cancel();
        break;
      }
    }
  }
  for (const auto& sweep : sweeps) sweep->wait();
}

void serve_listener(SweepBackend& backend, support::SocketListener& listener,
                    JobProtocolOptions options, std::string_view tool) {
  std::cerr << tool << ": listening on " << listener.endpoint() << "\n";

  std::atomic<bool> draining{false};
  options.draining = &draining;
  g_signal_listener.store(&listener);
  (void)std::signal(SIGTERM, handle_sigterm);

  std::atomic<bool> shutdown_requested{false};
  std::vector<std::thread> sessions;
  // Live session channels, so the drain can stop their blocked reads.
  std::vector<std::weak_ptr<support::FdChannel>> conns;
  while (auto channel = listener.accept()) {
    std::shared_ptr<support::FdChannel> conn = std::move(channel);
    std::erase_if(conns, [](const auto& weak) { return weak.expired(); });
    conns.push_back(conn);
    sessions.emplace_back(
        [&backend, &listener, &shutdown_requested, conn, options] {
          JobProtocolSession session(backend, *conn, options);
          if (session.run()) {
            // A client-requested shutdown stops the whole server:
            // closing the listener unblocks accept() above.
            shutdown_requested.store(true);
            listener.close();
          }
        });
  }
  // Accept loop over — client shutdown op or SIGTERM. Enter drain mode
  // (every session now rejects new submits) and stop every session's
  // blocked read so each finishes its in-flight sweeps bounded by
  // --drain-timeout-ms, flushes, and says bye.
  support::SocketListener* ours = &listener;
  (void)g_signal_listener.compare_exchange_strong(ours, nullptr);
  draining.store(true);
  for (const auto& weak : conns)
    if (const auto conn = weak.lock()) conn->shutdown_read();
  for (auto& session : sessions) session.join();
  std::cerr << tool << ": "
            << (shutdown_requested.load() ? "shutdown requested by client"
                                          : "drained (signal or listener "
                                            "closed)")
            << "\n";
}

}  // namespace iddq::core
