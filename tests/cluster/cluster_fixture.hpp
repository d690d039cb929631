// Shared fixture of the cluster suites: in-process iddqsyn_server backends
// (the exact serving stack, on ephemeral TCP ports) over synthetic
// circuits, plus helpers that run protocol sessions and compare streams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "core/flow_engine.hpp"
#include "core/job_protocol.hpp"
#include "core/job_service.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/json.hpp"
#include "support/transport.hpp"

namespace iddq::cluster {

inline netlist::Netlist synthetic_circuit(const std::string& spec) {
  const std::size_t gates = 120 + 40 * (spec.back() - 'a');
  return netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic(spec, gates, 10, 5));
}

inline core::FlowEngineConfig quick_config() {
  core::FlowEngineConfig config;
  config.optimizers.es.mu = 3;
  config.optimizers.es.lambda = 3;
  config.optimizers.es.chi = 1;
  config.optimizers.es.max_generations = 10;
  config.optimizers.es.stall_generations = 5;
  config.optimizers.random_samples = 50;
  return config;
}

inline ClusterOptions fast_options() {
  ClusterOptions options;
  options.backoff_ms = 5;
  return options;
}

/// One in-process backend: the exact iddqsyn_server serving stack — a TCP
/// listener accepting FdChannel connections, each served by a
/// JobProtocolSession over a shared JobService.
class TestBackend {
 public:
  /// `port` 0 picks an ephemeral port; a fixed port lets a test restart a
  /// killed backend at the same endpoint (breaker half-open re-admission).
  TestBackend(const lib::CellLibrary& library,
              core::JobService::CircuitLoader loader,
              core::FlowEngineConfig flow = quick_config(),
              std::uint16_t port = 0)
      : listener_("127.0.0.1", port), endpoint_(listener_.endpoint()) {
    core::JobServiceConfig config;
    config.workers = 2;
    config.flow = std::move(flow);
    service_ = std::make_unique<core::JobService>(library, std::move(config));
    service_->set_circuit_loader(std::move(loader));
    backend_ = std::make_unique<core::JobServiceBackend>(*service_);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~TestBackend() {
    kill();
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& t : session_threads_)
      if (t.joinable()) t.join();
  }

  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] core::JobService& service() { return *service_; }

  /// Simulates the backend dying: stop accepting and sever every live
  /// session connection (the cluster's readers see EOF).
  void kill() {
    listener_.close();
    const std::scoped_lock lock(mutex_);
    for (const auto& channel : channels_) {
      channel->shutdown_read();
      channel->shutdown_write();
    }
  }

 private:
  void accept_loop() {
    while (auto accepted = listener_.accept()) {
      std::shared_ptr<support::FdChannel> channel = std::move(accepted);
      const std::scoped_lock lock(mutex_);
      channels_.push_back(channel);
      session_threads_.emplace_back([this, channel] {
        core::JobProtocolSession session(*backend_, *channel, {});
        (void)session.run();
      });
    }
  }

  support::TcpSocketListener listener_;
  std::string endpoint_;
  std::unique_ptr<core::JobService> service_;
  std::unique_ptr<core::JobServiceBackend> backend_;
  std::thread accept_thread_;
  std::mutex mutex_;  // channels_ and session_threads_ vs kill()
  std::vector<std::shared_ptr<support::FdChannel>> channels_;
  std::vector<std::thread> session_threads_;
};

inline std::string kind_of(const std::string& line) {
  const auto event = json::JsonValue::parse(line);
  return event ? event->get_string("event") : "";
}

/// The lines of the given kinds, sorted. Sorting removes interleaving:
/// every job line is unique per (circuit, kind, index), so sorted byte-
/// equality IS stream equality up to schedule.
inline std::vector<std::string> lines_of_kinds(
    const std::vector<std::string>& lines,
    const std::set<std::string>& kinds) {
  std::vector<std::string> out;
  for (const auto& line : lines)
    if (kinds.contains(kind_of(line))) out.push_back(line);
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `input` through one pipe-mode session over `backend` (string
/// streams in and out) and returns the raw emitted lines.
inline std::vector<std::string> session_stream(core::SweepBackend& backend,
                                               const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  support::StreamChannel channel(in, out);
  core::JobProtocolSession session(backend, channel, {});
  (void)session.run();
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  return lines;
}

/// The same through a direct (no cluster) session on `service` — the
/// golden stream.
inline std::vector<std::string> direct_stream(core::JobService& service,
                                              const std::string& input) {
  core::JobServiceBackend backend(service);
  return session_stream(backend, input);
}

/// A submit op line; `flat_seed` (when set) ships that explicit seed for
/// every shard.
inline std::string submit_line(const std::string& id,
                               const std::vector<std::string>& circuits,
                               const std::vector<std::string>& methods,
                               std::uint64_t seed,
                               const std::uint64_t* flat_seed) {
  json::JsonWriter cs(json::JsonWriter::Kind::Array);
  for (const auto& c : circuits) cs.element(std::string_view(c));
  json::JsonWriter ms(json::JsonWriter::Kind::Array);
  for (const auto& m : methods) ms.element(std::string_view(m));
  json::JsonWriter w;
  w.field("op", "submit")
      .field("id", id)
      .field_raw("circuits", std::move(cs).str())
      .field_raw("methods", std::move(ms).str())
      .field("seed", seed);
  if (flat_seed != nullptr) {
    json::JsonWriter seeds(json::JsonWriter::Kind::Array);
    for (std::size_t i = 0; i < circuits.size(); ++i)
      seeds.element(*flat_seed);
    w.field_raw("seeds", std::move(seeds).str());
  }
  return std::move(w).str() + "\n";
}

}  // namespace iddq::cluster
