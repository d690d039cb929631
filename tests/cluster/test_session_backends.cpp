// One protocol session, two backends: core::JobProtocolSession over the
// JobService backend (iddqsyn_server) and over ClusterClient
// (iddqsyn_cluster) must answer the same requests with the same bytes —
// except the backend's own hello/pong/stats fields — and core::
// serve_listener must drain both the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster_fixture.hpp"
#include "library/fingerprint.hpp"

namespace iddq::cluster {
namespace {

using namespace std::chrono_literals;

/// The two backends a session can run on, over the same synthetic
/// circuits: a direct JobService, and a ClusterClient routing over two
/// in-process servers.
struct Backends {
  const lib::CellLibrary library = lib::default_library();
  TestBackend server1{library, synthetic_circuit};
  TestBackend server2{library, synthetic_circuit};
  std::unique_ptr<core::JobService> service = [this] {
    core::JobServiceConfig config;
    config.workers = 2;
    config.flow = quick_config();
    auto s = std::make_unique<core::JobService>(library, std::move(config));
    s->set_circuit_loader(synthetic_circuit);
    return s;
  }();
  core::JobServiceBackend direct{*service};
  ClusterClient cluster{{server1.endpoint(), server2.endpoint()},
                        lib::library_fingerprint(library),
                        fast_options()};

  std::vector<std::pair<const char*, core::SweepBackend*>> all() {
    return {{"direct", &direct}, {"cluster", &cluster}};
  }
};

/// A client script: each request line reaches the session only once the
/// session's output contains `after` (empty: at once); EOF follows the
/// last line. A wait that times out ends the script early, so a session
/// that never emits the marker fails the test instead of hanging it.
class ScriptedChannel final : public support::LineChannel {
 public:
  struct Step {
    std::string after;
    std::string line;
  };

  explicit ScriptedChannel(std::vector<Step> script)
      : script_(std::move(script)) {}

  bool read_line(std::string& out) override {
    std::unique_lock lock(mutex_);
    if (next_ >= script_.size()) return false;
    const std::string& after = script_[next_].after;
    if (!cv_.wait_for(lock, 60s, [&] {
          if (after.empty()) return true;
          for (const auto& line : lines_)
            if (line.find(after) != std::string::npos) return true;
          return false;
        }))
      return false;
    out = script_[next_++].line;
    return true;
  }

  bool write_line(std::string_view line) override {
    const std::scoped_lock lock(mutex_);
    lines_.emplace_back(line);
    cv_.notify_all();
    return true;
  }

  std::vector<std::string> lines() {
    const std::scoped_lock lock(mutex_);
    return lines_;
  }

 private:
  std::vector<Step> script_;
  std::size_t next_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

/// A TCP client of a served endpoint. A reader thread collects every
/// line, so a test waits for an event with a deadline instead of
/// blocking forever.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : channel_(support::connect_tcp("127.0.0.1", port)),
        reader_([this] {
          std::string line;
          while (channel_->read_line(line)) {
            const std::scoped_lock lock(mutex_);
            lines_.push_back(line);
            cv_.notify_all();
          }
        }) {}

  /// Hangs up: a server session still waiting on this client sees EOF.
  ~Client() {
    channel_->shutdown_read();
    channel_->shutdown_write();
    reader_.join();
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& line) { (void)channel_->write_line(line); }

  bool wait_for_event(const std::string& kind,
                      std::chrono::milliseconds limit) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, limit, [&] {
      for (const auto& line : lines_)
        if (kind_of(line) == kind) return true;
      return false;
    });
  }

 private:
  std::unique_ptr<support::FdChannel> channel_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  std::thread reader_;  // last: starts after everything above
};

TEST(SessionBackends, ClusterStreamIsByteIdenticalToADirectSession) {
  Backends backends;
  const std::string input = submit_line(
      "t", {"ca", "cb", "cc", "cd"}, {"evolution", "standard"}, 42, nullptr);
  const auto direct = session_stream(backends.direct, input);
  const auto clustered = session_stream(backends.cluster, input);

  const std::set<std::string> kinds{"accepted", "queued", "running", "row",
                                    "done",     "sweep_done"};
  EXPECT_EQ(lines_of_kinds(clustered, kinds), lines_of_kinds(direct, kinds));
  EXPECT_EQ(lines_of_kinds(direct, {"row"}).size(), 8u);
  EXPECT_EQ(lines_of_kinds(direct, {"accepted"}),
            std::vector<std::string>{
                R"({"event":"accepted","id":"t","jobs":4})"});
}

TEST(SessionBackends, CancelAfterSweepDoneIsSilentOnBothBackends) {
  Backends backends;
  for (const auto& [name, backend] : backends.all()) {
    SCOPED_TRACE(name);
    ScriptedChannel channel(
        {{"", R"({"op":"submit","id":"t1","circuits":["ca"],)"
              R"("methods":["standard"]})"},
         {R"("event":"sweep_done")", R"({"op":"cancel","id":"t1"})"}});
    core::JobProtocolSession session(*backend, channel, {});
    EXPECT_FALSE(session.run());
    const auto lines = channel.lines();
    EXPECT_EQ(lines_of_kinds(lines, {"sweep_done"}),
              std::vector<std::string>{
                  R"({"event":"sweep_done","id":"t1","ok":1,"failed":0,)"
                  R"("cancelled":0})"});
    EXPECT_TRUE(lines_of_kinds(lines, {"error"}).empty());
  }
}

TEST(SessionBackends, PingEchoesItsIdOnBothBackends) {
  Backends backends;
  for (const auto& [name, backend] : backends.all()) {
    SCOPED_TRACE(name);
    const auto lines = session_stream(*backend, R"({"op":"ping","id":"x"})"
                                                "\n"
                                                R"({"op":"ping"})"
                                                "\n");
    const auto pongs = lines_of_kinds(lines, {"pong"});
    ASSERT_EQ(pongs.size(), 2u);
    std::size_t tagged = 0;
    for (const auto& pong : pongs) {
      const auto event = json::JsonValue::parse(pong);
      ASSERT_TRUE(event.has_value());
      EXPECT_EQ(event->get_u64("protocol"), 1u);
      if (event->find("id") != nullptr) {
        EXPECT_EQ(event->get_string("id"), "x");
        // The id is the pong's last field, after the backend's own.
        EXPECT_NE(pong.find(R"(,"id":"x"})"), std::string::npos) << pong;
        ++tagged;
      }
    }
    EXPECT_EQ(tagged, 1u);
  }
}

TEST(SessionBackends, RequestErrorsAreByteIdenticalOnBothBackends) {
  Backends backends;
  const std::string input =
      R"({"op":"submit","id":"s","circuits":["ca","cb"],"seeds":[1]})"
      "\n"
      R"({"op":"submit","id":"m","circuits":["ca"],"methods":[]})"
      "\n"
      R"({"op":"submit","id":"n","methods":["standard"]})"
      "\n"
      R"({"op":"frobnicate"})"
      "\n"
      "not json\n"
      R"({"op":"cancel","id":"never"})"
      "\n";
  const auto direct = lines_of_kinds(session_stream(backends.direct, input),
                                     {"error"});
  const auto clustered =
      lines_of_kinds(session_stream(backends.cluster, input), {"error"});
  EXPECT_EQ(direct.size(), 6u);
  EXPECT_EQ(clustered, direct);
  EXPECT_NE(std::find(direct.begin(), direct.end(),
                      R"x({"event":"error","id":"s","message":"submit: )x"
                      R"x(\"seeds\" must have one entry per circuit )x"
                      R"x((1 seeds for 2 circuits)"})x"),
            direct.end());
  EXPECT_NE(std::find(direct.begin(), direct.end(),
                      R"({"event":"error","message":"unknown op )"
                      R"('frobnicate'"})"),
            direct.end());
}

/// Serves `backend` on an ephemeral port; one client idles, a second
/// sends `shutdown`. Both must get `bye` well within the bound, and the
/// serve loop must return on its own.
void expect_shutdown_drains_idle_peer(core::SweepBackend& backend) {
  support::TcpSocketListener listener("127.0.0.1", 0);
  std::thread server(
      [&] { core::serve_listener(backend, listener, {}, "test"); });
  {
    Client idle(listener.port());
    EXPECT_TRUE(idle.wait_for_event("hello", 10s));
    Client closer(listener.port());
    EXPECT_TRUE(closer.wait_for_event("hello", 10s));
    closer.send(R"({"op":"shutdown"})");
    EXPECT_TRUE(closer.wait_for_event("bye", 10s));
    EXPECT_TRUE(idle.wait_for_event("bye", 10s))
        << "the idle peer session was not drained";
  }  // the clients hang up: a loop still serving the idle peer ends here
  server.join();
}

TEST(ServeListener, ShutdownOpDrainsIdlePeerOnJobService) {
  Backends backends;
  expect_shutdown_drains_idle_peer(backends.direct);
}

TEST(ServeListener, ShutdownOpDrainsIdlePeerOnCluster) {
  Backends backends;
  expect_shutdown_drains_idle_peer(backends.cluster);
}

}  // namespace
}  // namespace iddq::cluster
