// End-to-end cluster acceptance: a ClusterClient fanning
// sweeps over real in-process TCP backends (TcpSocketListener +
// JobService + JobProtocolSession — the same stack iddqsyn_server runs)
// must produce a merged stream byte-identical to one direct server,
// through healthy runs, connect-refused endpoints, and a backend killed
// after `accepted` but before its first `row`.
#include "cluster/cluster_client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_router.hpp"
#include "cluster_fixture.hpp"
#include "library/fingerprint.hpp"

namespace iddq::cluster {
namespace {

using core::SubmitRequest;

/// Thread-safe sink for the cluster's merged stream.
struct Collector {
  std::mutex mutex;
  std::vector<std::string> lines;
  EmitFn fn() {
    return [this](const std::string& line, bool) {
      const std::scoped_lock lock(mutex);
      lines.push_back(line);
    };
  }
  std::vector<std::string> snapshot() {
    const std::scoped_lock lock(mutex);
    return lines;
  }
};

/// The must-deliver kinds: progress ticks are droppable (and count-
/// nondeterministic), everything else must arrive exactly once.
const std::set<std::string> kAllMustDeliver{
    "queued", "running", "row", "done", "failed", "cancelled", "sweep_done"};
const std::set<std::string> kDataOnly{"row", "done", "failed", "cancelled",
                                      "sweep_done"};

/// Starts a sweep on `client` and returns it (the API a session's
/// admit() + start() drive).
std::shared_ptr<ClusterSweep> submit_sweep(ClusterClient& client,
                                           const SubmitRequest& request,
                                           EmitFn emit) {
  auto sweep = client.open_sweep(request, std::move(emit));
  sweep->start();
  return sweep;
}

/// The client's aggregate `stats` / `pong` event, parsed.
std::optional<json::JsonValue> stats_of(ClusterClient& client) {
  json::JsonWriter w;
  w.field("event", "stats");
  client.stats_fields(w, nullptr);
  return json::JsonValue::parse(std::move(w).str());
}
std::optional<json::JsonValue> pong_of(ClusterClient& client) {
  json::JsonWriter w;
  w.field("event", "pong").field("protocol", std::uint64_t{1});
  client.pong_fields(w);
  return json::JsonValue::parse(std::move(w).str());
}

/// Blocks the victim backend's circuit loader until released, so its
/// shards are provably accepted-but-rowless when the backend dies.
class LoaderGate {
 public:
  void release() {
    {
      const std::scoped_lock lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Picks `count` distinct loadable specs whose ring owner is (or is not,
/// per `owned`) `endpoint`, at the explicit per-shard seed the request
/// will ship. Deterministic given the endpoints (a local ShardRouter
/// replays exactly the client's placement).
std::vector<std::string> specs_owned_by(ShardRouter& router,
                                        const std::string& endpoint,
                                        bool owned, std::size_t count,
                                        const std::vector<std::string>& methods,
                                        std::uint64_t seed) {
  std::vector<std::string> out;
  for (char a = 'a'; a <= 'z' && out.size() < count; ++a) {
    for (char b = 'a'; b <= 'c' && out.size() < count; ++b) {
      const std::string spec = std::string("c") + a + b;
      const auto fp = router.fingerprint(spec, methods, seed, 0);
      if ((router.placement(fp).front() == endpoint) == owned)
        out.push_back(spec);
    }
  }
  EXPECT_EQ(out.size(), count) << "candidate pool exhausted";
  return out;
}

TEST(ClusterClient, MergedStreamIsByteIdenticalToDirectServer) {
  // The determinism contract, healthy path: 6 shards fanned over 3 TCP
  // backends merge to the byte-exact stream one direct server produces
  // for the same submit — envelopes, 17-digit doubles, sweep_done.
  const auto library = lib::default_library();
  TestBackend b1(library, synthetic_circuit);
  TestBackend b2(library, synthetic_circuit);
  TestBackend b3(library, synthetic_circuit);
  const std::vector<std::string> circuits{"ca", "cb", "cc", "cd", "ce", "cf"};
  const std::vector<std::string> methods{"evolution", "standard"};

  Collector merged;
  {
    ClusterClient client({b1.endpoint(), b2.endpoint(), b3.endpoint()},
                         lib::library_fingerprint(library), fast_options());
    SubmitRequest request;
    request.id = "t";
    request.circuits = circuits;
    request.methods = methods;
    request.seed = 42;
    const auto sweep = submit_sweep(client, request, merged.fn());
    sweep->wait();
    EXPECT_TRUE(sweep->finished());
  }

  // Every shard was submitted exactly once, somewhere on the ring.
  EXPECT_EQ(b1.service().submitted() + b2.service().submitted() +
                b3.service().submitted(),
            circuits.size());

  core::JobServiceConfig config;
  config.workers = 2;
  config.flow = quick_config();
  core::JobService direct(library, std::move(config));
  direct.set_circuit_loader(synthetic_circuit);
  const auto golden =
      direct_stream(direct, submit_line("t", circuits, methods, 42, nullptr));

  EXPECT_EQ(lines_of_kinds(merged.snapshot(), kAllMustDeliver),
            lines_of_kinds(golden, kAllMustDeliver));
}

TEST(ClusterClient, ConnectRefusedFailsOverToRingSuccessor) {
  // One configured backend is a dead endpoint (bound once, then closed —
  // guaranteed connect-refused). Shards it owns must retry onto the live
  // successor and the data stream must stay byte-identical to direct.
  const auto library = lib::default_library();
  std::string dead_endpoint;
  {
    support::TcpSocketListener dead("127.0.0.1", 0);
    dead_endpoint = dead.endpoint();
  }
  TestBackend live(library, synthetic_circuit);

  const std::vector<std::string> methods{"evolution", "standard"};
  const std::uint64_t seed = 5;
  ClusterOptions options = fast_options();
  ShardRouter replica(
      [&] {
        HashRing ring(options.ring_replicas);
        ring.add(dead_endpoint);
        ring.add(live.endpoint());
        return ring;
      }(),
      lib::library_fingerprint(library));
  auto circuits = specs_owned_by(replica, dead_endpoint, true, 2, methods,
                                 seed);
  const auto live_owned =
      specs_owned_by(replica, dead_endpoint, false, 1, methods, seed);
  circuits.insert(circuits.end(), live_owned.begin(), live_owned.end());

  Collector merged;
  {
    ClusterClient client({dead_endpoint, live.endpoint()},
                         lib::library_fingerprint(library), options);
    SubmitRequest request;
    request.id = "r";
    request.circuits = circuits;
    request.methods = methods;
    request.seeds.assign(circuits.size(), seed);
    const auto sweep = submit_sweep(client, request, merged.fn());
    sweep->wait();
  }

  core::JobServiceConfig config;
  config.workers = 2;
  config.flow = quick_config();
  core::JobService direct(library, std::move(config));
  direct.set_circuit_loader(synthetic_circuit);
  const auto golden = direct_stream(
      direct, submit_line("r", circuits, methods, 1, &seed));

  EXPECT_EQ(lines_of_kinds(merged.snapshot(), kDataOnly),
            lines_of_kinds(golden, kDataOnly));
  for (const auto& line : merged.snapshot())
    EXPECT_NE(kind_of(line), "failed") << line;
}

TEST(ClusterClient, BackendKilledAfterAcceptedBeforeFirstRowRecovers) {
  // The hard failover edge: the victim backend ACCEPTS its shards (its
  // loader gate guarantees no row was produced), then dies. The shards
  // must re-run on the ring successor and the final data stream must be
  // byte-identical to a direct server — no lost rows, no duplicates.
  const auto library = lib::default_library();
  LoaderGate gate;
  TestBackend healthy(library, synthetic_circuit);
  TestBackend victim(library, [&gate](const std::string& spec) {
    gate.wait();
    return synthetic_circuit(spec);
  });

  const std::vector<std::string> methods{"evolution", "standard"};
  const std::uint64_t seed = 9;
  ClusterOptions options = fast_options();
  ShardRouter replica(
      [&] {
        HashRing ring(options.ring_replicas);
        ring.add(healthy.endpoint());
        ring.add(victim.endpoint());
        return ring;
      }(),
      lib::library_fingerprint(library));
  auto circuits = specs_owned_by(replica, victim.endpoint(), true, 2,
                                 methods, seed);
  const auto healthy_owned =
      specs_owned_by(replica, victim.endpoint(), false, 2, methods, seed);
  circuits.insert(circuits.end(), healthy_owned.begin(), healthy_owned.end());

  Collector merged;
  {
    ClusterClient client({healthy.endpoint(), victim.endpoint()},
                         lib::library_fingerprint(library), options);
    SubmitRequest request;
    request.id = "k";
    request.circuits = circuits;
    request.methods = methods;
    request.seeds.assign(circuits.size(), seed);
    const auto sweep = submit_sweep(client, request, merged.fn());

    // Both victim-owned shards were accepted into the victim's service
    // (they cannot progress past the gated loader, so no row exists yet).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (victim.service().submitted() < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GE(victim.service().submitted(), 2u)
        << "victim never received its shards";

    victim.kill();
    gate.release();  // let the orphaned backend jobs drain harmlessly
    sweep->wait();
  }

  core::JobServiceConfig config;
  config.workers = 2;
  config.flow = quick_config();
  core::JobService direct(library, std::move(config));
  direct.set_circuit_loader(synthetic_circuit);
  const auto golden = direct_stream(
      direct, submit_line("k", circuits, methods, 1, &seed));

  // Rows and terminals: complete, deduplicated, byte-identical. (The
  // queued/running lifecycle of retried shards is intentionally emitted
  // once, on the first attempt — compare the data events only.)
  EXPECT_EQ(lines_of_kinds(merged.snapshot(), kDataOnly),
            lines_of_kinds(golden, kDataOnly));
  for (const auto& line : merged.snapshot())
    EXPECT_NE(kind_of(line), "failed") << line;
}

TEST(ClusterClient, ExhaustedRetriesSynthesizeFailedTerminals) {
  // Nothing listens anywhere: every shard must fail cleanly after
  // max_attempts ring passes — the sweep still completes with a
  // sweep_done, never hangs.
  const auto library = lib::default_library();
  std::string dead1, dead2;
  {
    support::TcpSocketListener a("127.0.0.1", 0);
    support::TcpSocketListener b("127.0.0.1", 0);
    dead1 = a.endpoint();
    dead2 = b.endpoint();
  }
  ClusterOptions options;
  options.max_attempts = 2;
  options.backoff_ms = 1;
  ClusterClient client({dead1, dead2}, 0x1234, options);

  Collector merged;
  SubmitRequest request;
  request.id = "x";
  request.circuits = {"ca", "cb"};
  const auto sweep = submit_sweep(client, request, merged.fn());
  sweep->wait();

  const auto lines = merged.snapshot();
  std::size_t failed = 0;
  for (const auto& line : lines) {
    if (kind_of(line) != "failed") continue;
    ++failed;
    EXPECT_NE(line.find("no reachable backend after 2 attempts"),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(failed, 2u);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(),
            R"({"event":"sweep_done","id":"x","ok":0,"failed":2,)"
            R"("cancelled":0})");
}

TEST(ClusterClient, StatsAndPingAggregateAcrossBackends) {
  const auto library = lib::default_library();
  TestBackend b1(library, synthetic_circuit);
  TestBackend b2(library, synthetic_circuit);
  ClusterClient client({b1.endpoint(), b2.endpoint()},
                       lib::library_fingerprint(library), fast_options());

  Collector merged;
  SubmitRequest request;
  request.id = "s";
  request.circuits = {"ca", "cb", "cc"};
  request.methods = {"standard"};
  submit_sweep(client, request, merged.fn())->wait();

  const auto stats = stats_of(client);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->get_string("event"), "stats");
  EXPECT_EQ(stats->get_u64("backends"), 2u);
  EXPECT_EQ(stats->get_u64("backends_alive"), 2u);
  EXPECT_EQ(stats->get_u64("workers"), 4u);
  EXPECT_EQ(stats->get_u64("submitted"), 3u);
  EXPECT_EQ(stats->get_u64("completed"), 3u);
  // No backend runs a cache: the aggregate must not invent cache fields.
  EXPECT_EQ(stats->find("cache_entries"), nullptr);
  const json::JsonValue* per_backend = stats->find("per_backend");
  ASSERT_NE(per_backend, nullptr);
  ASSERT_EQ(per_backend->items().size(), 2u);
  for (const auto& entry : per_backend->items())
    EXPECT_TRUE(entry.get_bool("alive", false));

  const auto pong = pong_of(client);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->get_string("event"), "pong");
  EXPECT_EQ(pong->get_u64("protocol"), 1u);
  EXPECT_EQ(pong->get_u64("backends"), 2u);
  EXPECT_EQ(pong->get_u64("backends_alive"), 2u);
  EXPECT_EQ(pong->get_u64("workers"), 4u);
}

TEST(ClusterClient, PingReportsDeadBackends) {
  const auto library = lib::default_library();
  std::string dead;
  {
    support::TcpSocketListener listener("127.0.0.1", 0);
    dead = listener.endpoint();
  }
  TestBackend live(library, synthetic_circuit);
  ClusterOptions options = fast_options();
  options.stats_timeout_ms = 500;
  ClusterClient client({dead, live.endpoint()},
                       lib::library_fingerprint(library), options);
  const auto pong = pong_of(client);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->get_u64("backends"), 2u);
  EXPECT_EQ(pong->get_u64("backends_alive"), 1u);
  EXPECT_EQ(pong->get_u64("workers"), 2u);
}

/// Polls `pred` until it holds or `limit` elapses. The breaker test is
/// eventual-consistency by nature (heartbeat cadence), so assertions wait
/// generously and only the final state matters.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

std::string breaker_state(ClusterClient& client, const std::string& endpoint) {
  const auto stats = stats_of(client);
  if (!stats) return "";
  const json::JsonValue* per = stats->find("per_backend");
  if (per == nullptr) return "";
  for (const auto& entry : per->items())
    if (entry.get_string("endpoint") == endpoint)
      return entry.get_string("breaker");
  return "";
}

TEST(ClusterClient, HeartbeatOpensBreakerAndHalfOpenReadmits) {
  // docs/robustness.md, health-checked ring: consecutive failed probes
  // open the victim's breaker (evicting it from the active ring), sweeps
  // keep completing on the survivors, and a restart at the same endpoint
  // is re-admitted through the half-open probe after the cooldown.
  const auto library = lib::default_library();
  TestBackend b1(library, synthetic_circuit);
  auto victim = std::make_unique<TestBackend>(library, synthetic_circuit);
  const std::string victim_endpoint = victim->endpoint();
  const std::uint16_t victim_port = victim->port();

  ClusterOptions options = fast_options();
  options.heartbeat_ms = 25;
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = 50;
  options.stats_timeout_ms = 500;
  ClusterClient client({b1.endpoint(), victim_endpoint},
                       lib::library_fingerprint(library), options);

  ASSERT_EQ(breaker_state(client, victim_endpoint), "closed");

  victim->kill();
  victim.reset();  // releases the port for the restart below
  ASSERT_TRUE(eventually(
      [&] { return breaker_state(client, victim_endpoint) == "open"; },
      std::chrono::seconds(20)));
  const auto opened = stats_of(client);
  ASSERT_TRUE(opened.has_value());
  EXPECT_GE(opened->get_u64("breaker_opens"), 1u);

  // Evicted, not erased: a sweep routed while the victim is down lands
  // entirely on the healthy backend and finishes with zero failures.
  Collector merged;
  SubmitRequest request;
  request.id = "evicted";
  request.circuits = {"ca", "cb", "cc", "cd"};
  request.methods = {"standard"};
  request.seed = 7;
  submit_sweep(client, request, merged.fn())->wait();
  std::size_t verdicts = 0;
  for (const auto& line : merged.snapshot()) {
    const auto event = json::JsonValue::parse(line);
    if (event && event->get_string("event") == "sweep_done") {
      EXPECT_EQ(event->get_u64("ok"), 4u);
      EXPECT_EQ(event->get_u64("failed"), 0u);
      ++verdicts;
    }
  }
  EXPECT_EQ(verdicts, 1u);

  TestBackend reborn(library, synthetic_circuit, quick_config(), victim_port);
  ASSERT_EQ(reborn.endpoint(), victim_endpoint);
  ASSERT_TRUE(eventually(
      [&] { return breaker_state(client, victim_endpoint) == "closed"; },
      std::chrono::seconds(20)));
  const auto readmitted = stats_of(client);
  ASSERT_TRUE(readmitted.has_value());
  EXPECT_GE(readmitted->get_u64("breaker_reopens"), 1u);
}

}  // namespace
}  // namespace iddq::cluster
