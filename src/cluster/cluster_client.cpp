#include "cluster/cluster_client.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/rng.hpp"

namespace iddq::cluster {

using json::JsonValue;
using json::JsonWriter;

// ---------------------------------------------------------- ClusterSweep --

ClusterSweep::ClusterSweep(ClusterClient& client,
                           const core::SubmitRequest& request, EmitFn emit)
    : client_(&client),
      request_(request),
      merger_(request.id, request.circuits),
      shards_(request.circuits.size()),
      emit_(std::move(emit)) {}

void ClusterSweep::start() {
  for (std::size_t shard = 0; shard < shards_.size(); ++shard)
    client_->dispatch_shard(shared_from_this(), shard);
}

void ClusterSweep::cancel() { client_->cancel(shared_from_this()); }

void ClusterSweep::wait() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
}

bool ClusterSweep::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  return cv_.wait_for(lock, timeout, [this] { return done_; });
}

bool ClusterSweep::finished() const {
  const std::scoped_lock lock(mutex_);
  return done_;
}

// --------------------------------------------------------- ClusterClient --

ClusterClient::ClusterClient(const std::vector<std::string>& endpoints,
                             std::uint64_t library_fp,
                             ClusterOptions options)
    : options_(options),
      router_(
          [&] {
            HashRing ring(options.ring_replicas);
            for (const auto& e : endpoints) ring.add(e);
            return ring;
          }(),
          library_fp) {
  for (const auto& e : endpoints) {
    if (backend_index_.contains(e)) continue;
    backend_index_.emplace(e, backends_.size());
    backends_.push_back(std::make_unique<Backend>(e));
  }
  if (options_.heartbeat_ms > 0)
    heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

ClusterClient::~ClusterClient() {
  stopping_.store(true);
  {
    // Shut down every live connection under the state lock: a concurrent
    // ensure_connected either installed its channel before this pass (and
    // gets shut down here) or observes stopping_ and aborts — no reader
    // can be left blocked on a channel this pass missed.
    const std::scoped_lock lock(state_mutex_);
    for (const auto& backend : backends_) {
      if (backend->channel != nullptr) {
        backend->channel->shutdown_read();
        backend->channel->shutdown_write();
      }
    }
    reply_cv_.notify_all();
    hb_cv_.notify_all();
  }
  if (heartbeat_.joinable()) heartbeat_.join();
  std::vector<std::thread> readers;
  {
    const std::scoped_lock lock(readers_mutex_);
    readers.swap(readers_);
  }
  for (auto& t : readers)
    if (t.joinable()) t.join();
}

bool ClusterClient::ensure_connected(std::size_t backend) {
  Backend& b = *backends_[backend];
  if (stopping_.load()) return false;
  const std::scoped_lock connect_lock(b.connect_mutex);
  {
    const std::scoped_lock lock(state_mutex_);
    if (b.channel != nullptr) return true;
  }
  std::shared_ptr<support::FdChannel> channel;
  try {
    channel = support::connect_endpoint(b.endpoint);
  } catch (const std::exception&) {
    return false;  // refused/unreachable; the caller walks the ring onward
  }
  {
    const std::scoped_lock lock(state_mutex_);
    if (stopping_.load()) return false;  // destructor already swept
    b.channel = channel;
    b.alive.store(true);
  }
  std::thread reader([this, backend, channel] {
    reader_loop(backend, channel);
  });
  const std::scoped_lock lock(readers_mutex_);
  readers_.push_back(std::move(reader));
  return true;
}

bool ClusterClient::write_to_backend(std::size_t backend,
                                     const std::string& line) {
  Backend& b = *backends_[backend];
  std::shared_ptr<support::FdChannel> channel;
  {
    const std::scoped_lock lock(state_mutex_);
    channel = b.channel;
  }
  if (channel == nullptr) return false;
  const std::scoped_lock write_lock(b.write_mutex);
  return channel->write_line(line);
}

void ClusterClient::reader_loop(std::size_t backend,
                                std::shared_ptr<support::FdChannel> channel) {
  Backend& b = *backends_[backend];
  std::string line;
  while (channel->read_line(line)) {
    const auto event = JsonValue::parse(line);
    if (!event || !event->is_object()) continue;
    const std::string kind = event->get_string("event");
    if (kind == "hello" || kind == "bye" || kind == "accepted" ||
        kind == "sweep_done")
      continue;  // backend-session bookkeeping, not shard state
    if (kind == "stats" || kind == "pong") {
      if (kind == "pong" && event->get_string("id") == "hb") {
        // Heartbeat pong (its ping carried id "hb"): count it for the
        // prober and keep it away from the stats/ping rendezvous, which
        // would otherwise mistake it for a lost broadcast reply.
        b.hb_pongs.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::scoped_lock lock(state_mutex_);
      if (b.reply_pending) {
        b.reply = line;
        b.reply_pending = false;
        reply_cv_.notify_all();
      }
      continue;
    }
    const std::string id = event->get_string("id");
    Route route;
    bool owned = false;
    const bool is_error = kind == "error";
    {
      const std::scoped_lock lock(state_mutex_);
      const auto it = routes_.find(id);
      if (it != routes_.end()) {
        route = it->second;
        // A protocol error aimed at this submit means the backend will
        // never run the shard — the route ends here and the shard goes
        // back to the ring. Whoever erases a route owns its next step.
        if (is_error) {
          route.sweep->shards_[route.shard].last_error =
              b.endpoint + ": " + event->get_string("message");
          routes_.erase(it);
        }
        owned = true;
      }
    }
    if (!owned) continue;  // unattributable (or already failed-over)
    if (is_error) {
      route.sweep->merger_.reopen(route.shard);
      dispatch_shard(route.sweep, route.shard);
      continue;
    }
    const RowMerger::Forward fwd =
        route.sweep->merger_.forward(route.shard, *event, line);
    if (fwd.became_terminal) {
      const std::scoped_lock lock(state_mutex_);
      routes_.erase(id);
    }
    if (fwd.line) route.sweep->emit_(*fwd.line, fwd.droppable);
    if (fwd.became_terminal) finish_if_done(route.sweep);
  }
  handle_backend_down(backend, channel);
}

void ClusterClient::handle_backend_down(
    std::size_t backend, const std::shared_ptr<support::FdChannel>& channel) {
  Backend& b = *backends_[backend];
  std::vector<std::pair<std::shared_ptr<ClusterSweep>, std::size_t>> orphans;
  {
    const std::scoped_lock lock(state_mutex_);
    // Only this connection generation's reader tears the backend down; a
    // reconnect may already have installed a newer channel.
    if (b.channel == channel) {
      b.channel = nullptr;
      b.alive.store(false);
    }
    if (b.reply_pending) {
      b.reply_pending = false;  // a broadcast waiter gets an empty reply
      reply_cv_.notify_all();
    }
    for (auto it = routes_.begin(); it != routes_.end();) {
      if (it->second.backend == backend) {
        orphans.emplace_back(it->second.sweep, it->second.shard);
        it = routes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (stopping_.load()) {
    // Sessions drain their sweeps before the client dies; this is the
    // last-resort path that keeps a waiter from hanging anyway.
    for (const auto& [sweep, shard] : orphans) {
      (void)sweep->merger_.fail_shard(shard, "cluster client stopped");
      finish_if_done(sweep, /*emit_lines=*/false);
    }
    return;
  }
  // This thread's backend is gone and the thread has nothing left to read:
  // re-dispatching the orphans here (backoff sleeps included) costs no one
  // else anything.
  for (const auto& [sweep, shard] : orphans) {
    sweep->merger_.reopen(shard);
    dispatch_shard(sweep, shard);
  }
}

void ClusterClient::dispatch_shard(
    const std::shared_ptr<ClusterSweep>& sweep, std::size_t shard) {
  ClusterSweep::Shard& sh = sweep->shards_[shard];
  while (true) {
    if (stopping_.load()) {
      (void)sweep->merger_.fail_shard(shard, "cluster client stopped");
      finish_if_done(sweep, /*emit_lines=*/false);
      return;
    }
    if (sweep->cancel_requested_.load()) {
      const std::string line = sweep->merger_.cancel_shard(shard);
      if (!line.empty()) {
        sweep->emit_(line, /*droppable=*/false);
        finish_if_done(sweep);
      }
      return;
    }
    std::size_t attempt = 0;
    {
      const std::scoped_lock lock(state_mutex_);
      attempt = sh.attempts++;
    }
    if (attempt >= options_.max_attempts) {
      std::string reason;
      {
        const std::scoped_lock lock(state_mutex_);
        reason = sh.last_error.empty()
                     ? "no reachable backend after " +
                           std::to_string(options_.max_attempts) +
                           " attempts"
                     : sh.last_error;
      }
      const std::string line = sweep->merger_.fail_shard(shard, reason);
      if (!line.empty()) {
        sweep->emit_(line, /*droppable=*/false);
        finish_if_done(sweep);
      }
      return;
    }
    if (attempt > 0 && options_.backoff_ms > 0) {
      // Deterministic decorrelated jitter: attempt k sleeps a value in
      // [base, min(3 * previous sleep, base * 16)] picked by
      // mix_seed(jitter_seed, shard, attempt) — no wall-clock randomness
      // (identical runs back off identically), while shards that failed
      // together spread their retries instead of stampeding the next
      // backend in lockstep. Results never depend on it: only placement
      // timing changes, and rows do not depend on placement.
      const std::size_t base = options_.backoff_ms;
      std::size_t prev = base;
      {
        const std::scoped_lock lock(state_mutex_);
        if (sh.prev_backoff_ms > 0) prev = sh.prev_backoff_ms;
      }
      const std::size_t hi =
          std::min(base * 16, std::max(base, prev * 3));
      const std::uint64_t r = Rng::mix_seed(
          Rng::mix_seed(options_.jitter_seed, shard), attempt);
      const std::size_t sleep_ms =
          base + (hi > base ? static_cast<std::size_t>(r % (hi - base + 1))
                            : 0);
      {
        const std::scoped_lock lock(state_mutex_);
        sh.prev_backoff_ms = sleep_ms;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    bool dispatched = false;
    for (std::size_t k = 0; k < sh.placement.size() && !dispatched; ++k) {
      std::size_t slot = 0;
      {
        const std::scoped_lock lock(state_mutex_);
        slot = sh.next_candidate;
        sh.next_candidate = (sh.next_candidate + 1) % sh.placement.size();
      }
      const std::size_t backend = backend_index_.at(sh.placement[slot]);
      // Skip backends whose breaker is open — except on the final
      // attempt, where any candidate beats a synthesized failure.
      if (attempt + 1 < options_.max_attempts) {
        const std::scoped_lock lock(state_mutex_);
        if (backends_[backend]->breaker_open) continue;
      }
      if (!ensure_connected(backend)) continue;
      std::string route_id;
      {
        const std::scoped_lock lock(state_mutex_);
        route_id = "cx-" + std::to_string(++route_counter_);
        routes_[route_id] = Route{sweep, shard, backend};
      }
      JsonWriter circuits(JsonWriter::Kind::Array);
      circuits.element(std::string_view(sweep->merger_.circuit(shard)));
      JsonWriter seeds(JsonWriter::Kind::Array);
      seeds.element(sh.seed);
      JsonWriter methods(JsonWriter::Kind::Array);
      for (const auto& m : sweep->request_.methods)
        methods.element(std::string_view(m));
      JsonWriter submit;
      submit.field("op", "submit")
          .field("id", route_id)
          .field_raw("circuits", std::move(circuits).str())
          .field_raw("methods", std::move(methods).str())
          // The explicit seeds array IS the determinism carrier; "seed" is
          // never consulted when it is present.
          .field_raw("seeds", std::move(seeds).str())
          .field("budget", static_cast<std::uint64_t>(sweep->request_.budget))
          .field("cache", sweep->request_.use_cache)
          .field("priority", static_cast<double>(sweep->request_.priority));
      // Shipped only when set, so deadline-free submits keep their exact
      // pre-deadline bytes on the wire.
      if (sweep->request_.deadline_ms > 0)
        submit.field("deadline_ms",
                     static_cast<std::uint64_t>(sweep->request_.deadline_ms));
      if (write_to_backend(backend, std::move(submit).str())) {
        dispatched = true;
        break;
      }
      // The write failed: this backend just died. Its reader owns the
      // failover of every route it still holds — including, possibly, the
      // one registered above. Only retry here if this thread erased it
      // first.
      bool still_ours = false;
      {
        const std::scoped_lock lock(state_mutex_);
        still_ours = routes_.erase(route_id) > 0;
      }
      if (!still_ours) return;
    }
    if (dispatched) return;
    // Full ring pass without a reachable backend: burn an attempt and
    // back off before the next pass.
  }
}

void ClusterClient::finish_if_done(const std::shared_ptr<ClusterSweep>& sweep,
                                   bool emit_lines) {
  const auto done_line = sweep->merger_.take_sweep_done();
  if (!done_line) return;
  if (emit_lines) sweep->emit_(*done_line, /*droppable=*/false);
  const std::scoped_lock lock(sweep->mutex_);
  sweep->done_ = true;
  sweep->cv_.notify_all();
}

std::shared_ptr<ClusterSweep> ClusterClient::open_sweep(
    const core::SubmitRequest& request, EmitFn emit) {
  auto sweep = std::shared_ptr<ClusterSweep>(
      new ClusterSweep(*this, request, std::move(emit)));
  for (std::size_t shard = 0; shard < request.circuits.size(); ++shard) {
    ClusterSweep::Shard& sh = sweep->shards_[shard];
    // The one shard-seed rule, computed HERE and shipped as data: the
    // backend applies seeds[0] verbatim, so rows match `iddqsyn --jobs N
    // --seed S` whatever backend (or retry) runs the shard.
    sh.seed = core::shard_seed(request, shard);
    sh.placement = router_.placement(router_.fingerprint(
        request.circuits[shard], request.methods, sh.seed, request.budget));
  }
  return sweep;
}

std::shared_ptr<core::BackendSweep> ClusterClient::admit(
    const core::SubmitRequest& request, core::SessionEventWriter& out,
    std::string& /*rejection*/) {
  return open_sweep(request, [&out](const std::string& line, bool droppable) {
    (void)out.post(line, droppable ? core::EventDeliveryClass::droppable
                                   : core::EventDeliveryClass::must_deliver);
  });
}

void ClusterClient::hello_fields(JsonWriter& w) {
  w.field("backends", static_cast<std::uint64_t>(backends_.size()));
}

void ClusterClient::cancel(const std::shared_ptr<ClusterSweep>& sweep) {
  sweep->cancel_requested_.store(true);
  std::vector<std::pair<std::size_t, std::string>> active;
  {
    const std::scoped_lock lock(state_mutex_);
    for (const auto& [id, route] : routes_)
      if (route.sweep == sweep) active.emplace_back(route.backend, id);
  }
  for (const auto& [backend, id] : active) {
    // Best-effort: a backend that died instead will fail over, and the
    // re-dispatch path turns the shard cancelled locally.
    (void)write_to_backend(
        backend,
        JsonWriter().field("op", "cancel").field("id", id).str());
  }
}

void ClusterClient::heartbeat_loop() {
  std::unique_lock lock(state_mutex_);
  while (!stopping_.load()) {
    hb_cv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeat_ms),
                    [this] { return stopping_.load(); });
    if (stopping_.load()) break;
    lock.unlock();
    for (std::size_t i = 0; i < backends_.size(); ++i) probe_backend(i);
    lock.lock();
  }
}

void ClusterClient::probe_backend(std::size_t backend) {
  Backend& b = *backends_[backend];
  const auto now = std::chrono::steady_clock::now();
  {
    const std::scoped_lock lock(state_mutex_);
    // An open breaker rests out its cooldown; the first probe past
    // breaker_open_until is the half-open trial.
    if (b.breaker_open && now < b.breaker_open_until) return;
  }
  // A probe succeeds when the PREVIOUS heartbeat ping was answered (its
  // pong arrives on the reader thread well within one cycle), the
  // connection (re)opens, and this cycle's ping is writable. hb_pings is
  // heartbeat-thread-private; hb_pongs comes from the reader.
  bool ok = b.hb_pongs.load(std::memory_order_relaxed) >= b.hb_pings;
  if (ok) ok = ensure_connected(backend);
  if (ok) {
    ok = write_to_backend(
        backend,
        JsonWriter().field("op", "ping").field("id", "hb").str());
    if (ok) ++b.hb_pings;
  }
  if (!ok) {
    // Forget the unanswered ping: a reconnected backend must not keep
    // failing probes over a pong the dead connection swallowed.
    b.hb_pings = b.hb_pongs.load(std::memory_order_relaxed);
  }
  const std::scoped_lock lock(state_mutex_);
  if (ok) {
    b.consecutive_failures = 0;
    if (b.breaker_open) {
      // Half-open probe succeeded: close the breaker, re-admit the
      // backend so new shards route to it again.
      b.breaker_open = false;
      router_.set_node_enabled(b.endpoint, true);
      breaker_reopens_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (b.breaker_open) {
    b.breaker_open_until =
        now + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    return;
  }
  if (++b.consecutive_failures >= options_.breaker_threshold) {
    b.breaker_open = true;
    b.breaker_open_until =
        now + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    router_.set_node_enabled(b.endpoint, false);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::string> ClusterClient::broadcast(
    const std::string& op_line, const std::string& reply_kind) {
  std::vector<bool> asked(backends_.size(), false);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!ensure_connected(i)) continue;
    {
      const std::scoped_lock lock(state_mutex_);
      backends_[i]->reply_pending = true;
      backends_[i]->reply.clear();
    }
    if (write_to_backend(i, op_line)) {
      asked[i] = true;
    } else {
      const std::scoped_lock lock(state_mutex_);
      backends_[i]->reply_pending = false;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.stats_timeout_ms);
  std::vector<std::string> replies(backends_.size());
  {
    std::unique_lock lock(state_mutex_);
    reply_cv_.wait_until(lock, deadline, [&] {
      if (stopping_.load()) return true;
      for (std::size_t i = 0; i < backends_.size(); ++i)
        if (asked[i] && backends_[i]->reply_pending) return false;
      return true;
    });
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (!asked[i]) continue;
      backends_[i]->reply_pending = false;  // timeout: stop the deposit
      replies[i] = backends_[i]->reply;
    }
  }
  // Validate the event kind; a mismatched deposit counts as no reply.
  for (auto& reply : replies) {
    if (reply.empty()) continue;
    const auto event = JsonValue::parse(reply);
    if (!event || event->get_string("event") != reply_kind) reply.clear();
  }
  return replies;
}

void ClusterClient::stats_fields(JsonWriter& w,
                                 const core::SessionTrafficStats* /*traffic*/) {
  const auto replies =
      broadcast(JsonWriter().field("op", "stats").str(), "stats");
  std::uint64_t alive = 0;
  std::uint64_t workers = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  bool any_cache = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t drained_sessions = 0;
  JsonWriter per_backend(JsonWriter::Kind::Array);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    JsonWriter entry;
    entry.field("endpoint", std::string_view(backends_[i]->endpoint));
    {
      const std::scoped_lock lock(state_mutex_);
      entry.field("breaker", backends_[i]->breaker_open
                                 ? std::string_view("open")
                                 : std::string_view("closed"));
    }
    if (const auto event = replies[i].empty()
                               ? std::nullopt
                               : JsonValue::parse(replies[i])) {
      ++alive;
      entry.field("alive", true)
          .field("workers", event->get_u64("workers"))
          .field("submitted", event->get_u64("submitted"))
          .field("completed", event->get_u64("completed"))
          .field("failed", event->get_u64("failed"))
          .field("cancelled", event->get_u64("cancelled"))
          .field("timeouts", event->get_u64("timeouts"))
          .field("drained_sessions", event->get_u64("drained_sessions"));
      workers += event->get_u64("workers");
      submitted += event->get_u64("submitted");
      completed += event->get_u64("completed");
      failed += event->get_u64("failed");
      cancelled += event->get_u64("cancelled");
      timeouts += event->get_u64("timeouts");
      drained_sessions += event->get_u64("drained_sessions");
      if (event->find("cache_entries") != nullptr) {
        any_cache = true;
        entry.field("cache_hits", event->get_u64("cache_hits"))
            .field("cache_misses", event->get_u64("cache_misses"))
            .field("cache_entries", event->get_u64("cache_entries"));
        cache_hits += event->get_u64("cache_hits");
        cache_misses += event->get_u64("cache_misses");
        cache_entries += event->get_u64("cache_entries");
      }
    } else {
      entry.field("alive", false);
    }
    per_backend.element_raw(std::move(entry).str());
  }
  w.field("backends", static_cast<std::uint64_t>(backends_.size()))
      .field("backends_alive", alive)
      .field("workers", workers)
      .field("submitted", submitted)
      .field("completed", completed)
      .field("failed", failed)
      .field("cancelled", cancelled)
      .field("timeouts", timeouts)
      .field("drained_sessions", drained_sessions)
      .field("breaker_opens", breaker_opens_.load(std::memory_order_relaxed))
      .field("breaker_reopens",
             breaker_reopens_.load(std::memory_order_relaxed));
  if (any_cache) {
    // Summed across backends: each host's JSONL store is one slice of the
    // logical cluster cache, so the totals describe the whole.
    w.field("cache_hits", cache_hits)
        .field("cache_misses", cache_misses)
        .field("cache_entries", cache_entries);
  }
  w.field_raw("per_backend", std::move(per_backend).str());
}

void ClusterClient::pong_fields(JsonWriter& w) {
  const auto replies =
      broadcast(JsonWriter().field("op", "ping").str(), "pong");
  std::uint64_t alive = 0;
  std::uint64_t workers = 0;
  for (const auto& reply : replies) {
    if (reply.empty()) continue;
    ++alive;
    if (const auto event = JsonValue::parse(reply))
      workers += event->get_u64("workers");
  }
  w.field("backends", static_cast<std::uint64_t>(backends_.size()))
      .field("backends_alive", alive)
      .field("workers", workers);
}

}  // namespace iddq::cluster
