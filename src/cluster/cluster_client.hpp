// ClusterClient — fans sweeps over N iddqsyn_server backends
// (docs/cluster.md).
//
// One client owns one persistent line-JSON connection per backend plus a
// reader thread demultiplexing its event stream. A sweep is split into
// width-1 backend submits (one per circuit): each shard's base seed is
// core::shard_seed(request, shard), computed up front and shipped
// explicitly in the submit's "seeds" array — seeds are DATA attached to
// the shard, so which backend runs it (or re-runs it after a failure)
// cannot change its rows. Placement consistent-hashes the shard's
// run-key fingerprint (ShardRouter) so repeat traffic lands on backends
// whose ResultCaches are already warm.
//
// Failover: when a backend dies (connection drops, connect refused, or a
// submit is rejected with an id-tagged protocol error), its in-flight
// shards are re-dispatched onto live ring successors with bounded
// exponential backoff; RowMerger suppresses the retried lifecycle echoes
// and dedupes re-streamed rows, keeping the merged client stream
// byte-identical to a single direct server. A shard whose attempts are
// exhausted gets a synthesized `failed` terminal — the sweep always
// completes.
//
// The client is the core::SweepBackend of iddqsyn_cluster: a
// core::JobProtocolSession over it speaks the server protocol, and its
// `stats` and `ping` fan out to every backend and report an aggregate
// (docs/cluster.md, "Operating it").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/row_merger.hpp"
#include "cluster/shard_router.hpp"
#include "core/job_protocol.hpp"
#include "support/transport.hpp"

namespace iddq::cluster {

struct ClusterOptions {
  /// Virtual nodes per backend on the hash ring.
  std::size_t ring_replicas = 64;
  /// Dispatch attempts per shard (first try included) before the cluster
  /// synthesizes a `failed` terminal.
  std::size_t max_attempts = 3;
  /// Base retry backoff. Attempt k sleeps a deterministic decorrelated-
  /// jitter value in [backoff_ms, min(3 * previous sleep, backoff_ms *
  /// 16)] — the jitter source is Rng::mix_seed(jitter_seed, shard,
  /// attempt), not wall clock, so retry schedules reproduce exactly while
  /// still de-synchronizing shards that fail together.
  std::size_t backoff_ms = 200;
  /// Seeds the retry jitter (fixed default: identical runs back off
  /// identically).
  std::uint64_t jitter_seed = 0x1DD0BACC;
  /// How long a `stats` or `ping` waits for backend replies.
  std::size_t stats_timeout_ms = 2000;
  /// Health-check cadence (--heartbeat-ms): every heartbeat_ms each
  /// backend gets a `ping` probe (id "hb"); an unanswered or unwritable
  /// probe counts one failure toward the circuit breaker. 0 = off.
  std::size_t heartbeat_ms = 0;
  /// Consecutive probe failures that open a backend's breaker (the
  /// backend is evicted from the active ring; docs/robustness.md).
  std::size_t breaker_threshold = 3;
  /// Cooldown before an open breaker half-opens: the next probe after
  /// breaker_cooldown_ms re-admits the backend on success, re-arms the
  /// cooldown on failure.
  std::size_t breaker_cooldown_ms = 1000;
};

/// Sink for merged event lines; `droppable` marks progress ticks so the
/// caller can apply its backpressure class. Called from backend reader
/// threads and from the submitting thread; must not block indefinitely.
using EmitFn = std::function<void(const std::string& line, bool droppable)>;

class ClusterClient;

/// One cluster sweep; created (unstarted) by ClusterClient::open_sweep.
class ClusterSweep final : public core::BackendSweep,
                           public std::enable_shared_from_this<ClusterSweep> {
 public:
  /// Routes and dispatches every shard (blocking until each is written to
  /// a backend, has exhausted its attempts, or the sweep is cancelled);
  /// events stream to the sweep's emit function as backends produce them.
  void start() override;
  /// Forwards cancel to the backends holding its shards; shards between
  /// dispatches turn cancelled locally.
  void cancel() override;
  void wait() override;
  bool wait_for(std::chrono::milliseconds timeout) override;
  /// True once every shard is terminal and sweep_done was emitted.
  [[nodiscard]] bool finished() const;
  [[nodiscard]] std::size_t unfinished() const override {
    return merger_.open_shards();
  }

 private:
  friend class ClusterClient;
  struct Shard {
    std::uint64_t seed = 0;
    std::vector<std::string> placement;  // ring failover order
    std::size_t next_candidate = 0;      // rotates through placement
    std::size_t attempts = 0;
    std::size_t prev_backoff_ms = 0;  // decorrelated-jitter state
    std::string last_error;  // latest backend rejection, for fail_shard
  };

  ClusterSweep(ClusterClient& client, const core::SubmitRequest& request,
               EmitFn emit);

  ClusterClient* client_;
  const core::SubmitRequest request_;
  RowMerger merger_;
  std::vector<Shard> shards_;
  EmitFn emit_;
  std::atomic<bool> cancel_requested_{false};
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
};

class ClusterClient final : public core::SweepBackend {
 public:
  /// `endpoints` name the backends (--submit convention: host:port or unix
  /// socket path; duplicates ignored); `library_fp` feeds the routing
  /// fingerprint. Connections are opened lazily on first dispatch.
  ClusterClient(const std::vector<std::string>& endpoints,
                std::uint64_t library_fp, ClusterOptions options = {});
  ~ClusterClient();

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Places every shard of `request` on the ring and returns the sweep,
  /// not yet started; its events will stream to `emit`. The client must
  /// outlive the sweep's start() and wait().
  std::shared_ptr<ClusterSweep> open_sweep(const core::SubmitRequest& request,
                                           EmitFn emit);

  // core::SweepBackend. Every sweep is admitted; stats and pong aggregate
  // across the backends, within stats_timeout_ms.
  void hello_fields(json::JsonWriter& w) override;
  /// backends / backends_alive / the summed worker count of the backends
  /// that answered a ping.
  void pong_fields(json::JsonWriter& w) override;
  /// Summed service/cache counters plus a per_backend array
  /// (docs/cluster.md); `traffic` is not reported — drained_sessions is
  /// the backends' sum.
  void stats_fields(json::JsonWriter& w,
                    const core::SessionTrafficStats* traffic) override;
  std::shared_ptr<core::BackendSweep> admit(const core::SubmitRequest& request,
                                            core::SessionEventWriter& out,
                                            std::string& rejection) override;

  [[nodiscard]] std::size_t backend_count() const noexcept {
    return backends_.size();
  }

 private:
  struct Backend {
    explicit Backend(std::string ep) : endpoint(std::move(ep)) {}
    const std::string endpoint;
    std::mutex connect_mutex;  // serializes (re)connect attempts
    std::mutex write_mutex;    // serializes channel writes
    // Current connection, shared with its reader thread; null while down.
    // Guarded by ClusterClient::state_mutex_.
    std::shared_ptr<support::FdChannel> channel;
    std::atomic<bool> alive{false};
    // stats/ping rendezvous (guarded by state_mutex_, signalled through
    // reply_cv_): the reader thread deposits the next matching reply.
    bool reply_pending = false;
    std::string reply;
    // Circuit breaker (docs/robustness.md). All guarded by state_mutex_
    // except hb_pongs, which the reader thread bumps lock-free when a
    // pong tagged "hb" arrives.
    std::size_t consecutive_failures = 0;
    bool breaker_open = false;
    std::chrono::steady_clock::time_point breaker_open_until{};
    std::uint64_t hb_pings = 0;  // heartbeat thread only
    std::atomic<std::uint64_t> hb_pongs{0};
  };

  friend class ClusterSweep;

  /// A dispatched shard: backend submit id -> where its events belong.
  struct Route {
    std::shared_ptr<ClusterSweep> sweep;
    std::size_t shard = 0;
    std::size_t backend = 0;
  };

  bool ensure_connected(std::size_t backend);
  void reader_loop(std::size_t backend,
                   std::shared_ptr<support::FdChannel> channel);
  void handle_backend_down(std::size_t backend,
                           const std::shared_ptr<support::FdChannel>& channel);
  void dispatch_shard(const std::shared_ptr<ClusterSweep>& sweep,
                      std::size_t shard);
  /// Emits sweep_done (exactly once) and wakes waiters when the last
  /// shard turned terminal.
  void finish_if_done(const std::shared_ptr<ClusterSweep>& sweep,
                      bool emit_lines = true);
  bool write_to_backend(std::size_t backend, const std::string& line);
  void cancel(const std::shared_ptr<ClusterSweep>& sweep);
  /// Heartbeat prober (started when options_.heartbeat_ms > 0): probes
  /// every backend each cycle, drives the per-backend circuit breaker,
  /// and evicts/re-admits backends on the router's active ring.
  void heartbeat_loop();
  void probe_backend(std::size_t backend);
  /// Broadcasts `op` to every reachable backend and collects one reply
  /// line per backend whose event matches `reply_kind` (empty string on
  /// timeout/unreachable), within stats_timeout_ms.
  std::vector<std::string> broadcast(const std::string& op_line,
                                     const std::string& reply_kind);

  ClusterOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unordered_map<std::string, std::size_t> backend_index_;

  std::mutex state_mutex_;  // routes_, channels, rendezvous, counters
  std::condition_variable reply_cv_;
  std::unordered_map<std::string, Route> routes_;
  std::uint64_t route_counter_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex readers_mutex_;
  std::vector<std::thread> readers_;  // every reader generation ever spawned

  // Heartbeat thread (empty when heartbeat_ms == 0); hb_cv_ wakes it for
  // shutdown so the destructor never waits out a full cycle.
  std::thread heartbeat_;
  std::condition_variable hb_cv_;
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_reopens_{0};
};

}  // namespace iddq::cluster
