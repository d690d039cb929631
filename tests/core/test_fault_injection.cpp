// Fault-injection layer: one client stalls mid-sweep (connected, but never
// draining its event stream) while healthy clients share the same
// JobService. This pins the PR-4 limitation fix end to end: the stalled
// session is disconnected by the backpressure policy and its jobs are
// cancelled, healthy sessions complete within 1.2x of their no-stall
// wall-clock, and every delivered row stays byte-identical to direct
// FlowEngine::run_methods output.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow_engine.hpp"
#include "core/job_protocol.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/transport.hpp"

namespace iddq::core {
namespace {

netlist::Netlist synthetic_circuit(const std::string& spec) {
  const std::size_t gates = 260 + 60 * (spec.back() - 'a');
  return netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic(spec, gates, 10, 5));
}

FlowEngineConfig stress_config() {
  // Sized so a healthy sweep takes a meaningful fraction of a second:
  // long enough that the 1.2x wall-clock bound below has measurement
  // headroom over scheduler noise (and that a stalled session's jobs are
  // still running when the disconnect policy cancels them), short enough
  // that the whole test stays a few seconds.
  FlowEngineConfig config;
  config.optimizers.es.mu = 4;
  config.optimizers.es.lambda = 6;
  config.optimizers.es.chi = 1;
  config.optimizers.es.max_generations = 4000;
  config.optimizers.es.stall_generations = 4000;
  config.optimizers.random_samples = 1000;
  return config;
}

std::unique_ptr<JobService> make_service(const lib::CellLibrary& library,
                                         FlowEngineConfig config) {
  JobServiceConfig service_config;
  service_config.workers = 2;
  service_config.flow = std::move(config);
  auto service =
      std::make_unique<JobService>(library, std::move(service_config));
  service->set_circuit_loader(synthetic_circuit);
  return service;
}

/// A connected client that submitted a sweep and then froze: reads block
/// (it sends nothing further, but the connection stays up) and writes
/// block (it never drains its receive side). shutdown_read/shutdown_write
/// — the half-shutdowns the disconnect policy and writer teardown use —
/// are the only ways out.
class StalledClientChannel final : public support::LineChannel {
 public:
  explicit StalledClientChannel(std::vector<std::string> script)
      : script_(std::move(script)) {}

  bool read_line(std::string& out) override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (read_shut_) return false;
    if (next_ < script_.size()) {
      out = script_[next_++];
      return true;
    }
    cv_.wait(lock, [this] { return read_shut_; });
    return false;
  }

  bool write_line(std::string_view) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return write_shut_; });
    return false;
  }

  void shutdown_read() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      read_shut_ = true;
    }
    cv_.notify_all();
  }

  void shutdown_write() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      write_shut_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> script_;
  std::size_t next_ = 0;
  bool read_shut_ = false;
  bool write_shut_ = false;
};

constexpr const char* kHealthySubmit =
    R"({"op":"submit","id":"h","circuits":["cd"],)"
    R"("methods":["evolution","standard"],"seed":42})";

/// One healthy pipe-mode client: submits kHealthySubmit, drains to EOF.
/// Returns its wall-clock seconds and its raw output lines.
struct HealthyRun {
  double seconds = 0.0;
  std::vector<std::string> lines;
};

HealthyRun run_healthy_session(JobService& service,
                               JobProtocolOptions options) {
  std::istringstream in(std::string(kHealthySubmit) + "\n");
  std::ostringstream out;
  support::StreamChannel channel(in, out);
  JobServiceBackend backend(service);
  const auto start = std::chrono::steady_clock::now();
  JobProtocolSession session(backend, channel, options);
  (void)session.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  HealthyRun run;
  run.seconds = elapsed.count();
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) run.lines.push_back(line);
  return run;
}

/// Two healthy clients concurrently on one fresh service; returns the
/// slower client's wall-clock and both outputs.
std::pair<double, std::vector<HealthyRun>> run_healthy_pair(
    const lib::CellLibrary& library, JobProtocolOptions options,
    support::LineChannel* stalled_channel = nullptr,
    JobProtocolOptions stalled_options = {}) {
  const auto service = make_service(library, stress_config());
  std::vector<HealthyRun> runs(2);
  std::thread stalled_thread;
  if (stalled_channel != nullptr) {
    stalled_thread = std::thread([&] {
      JobServiceBackend backend(*service);
      JobProtocolSession session(backend, *stalled_channel, stalled_options);
      (void)session.run();
    });
  }
  std::thread first(
      [&] { runs[0] = run_healthy_session(*service, options); });
  std::thread second(
      [&] { runs[1] = run_healthy_session(*service, options); });
  first.join();
  second.join();
  if (stalled_thread.joinable()) stalled_thread.join();
  return {std::max(runs[0].seconds, runs[1].seconds), std::move(runs)};
}

void expect_bits_eq(double got, double want, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << field << ": " << got << " vs " << want;
}

/// Every row of a healthy client, bit-compared against a direct
/// FlowEngine::run_methods call at the shard-derived seed.
void expect_rows_match_engine(const std::vector<std::string>& lines,
                              const lib::CellLibrary& library) {
  const netlist::Netlist nl = synthetic_circuit("cd");
  FlowEngine engine(nl, library, stress_config());
  const std::vector<std::string> methods{"evolution", "standard"};
  const auto expected = engine.run_methods(methods, Rng::mix_seed(42, 0));

  std::vector<json::JsonValue> rows;
  for (const auto& line : lines) {
    auto event = json::JsonValue::parse(line);
    ASSERT_TRUE(event.has_value()) << "unparseable event: " << line;
    if (event->get_string("event") == "row") rows.push_back(std::move(*event));
  }
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t m = 0; m < expected.size(); ++m) {
    SCOPED_TRACE(expected[m].method);
    EXPECT_EQ(rows[m].get_string("method"), expected[m].method);
    EXPECT_EQ(rows[m].get_u64("modules"), expected[m].module_count);
    expect_bits_eq(rows[m].get_double("cost"), expected[m].fitness.cost,
                   "cost");
    expect_bits_eq(rows[m].get_double("violation"),
                   expected[m].fitness.violation, "violation");
    expect_bits_eq(rows[m].get_double("sensor_area"),
                   expected[m].sensor_area, "sensor_area");
    expect_bits_eq(rows[m].get_double("delay_overhead"),
                   expected[m].delay_overhead, "delay_overhead");
    EXPECT_EQ(rows[m].get_u64("evaluations"), expected[m].evaluations);
  }
}

TEST(FaultInjection, StalledReaderDoesNotSlowHealthySessions) {
  const auto library = lib::default_library();
  SessionTrafficStats traffic;
  JobProtocolOptions healthy_options;
  healthy_options.session_queue = 1024;
  healthy_options.traffic = &traffic;

  // Untimed warmup so first-touch costs (page cache, lazy init) don't
  // land inside the baseline measurement.
  {
    const auto service = make_service(library, stress_config());
    (void)run_healthy_session(*service, healthy_options);
  }

  // Baseline: the same two healthy concurrent clients, no stall.
  const auto [baseline, baseline_runs] =
      run_healthy_pair(library, healthy_options);
  for (const auto& run : baseline_runs)
    expect_rows_match_engine(run.lines, library);

  // Fault run: a third client submits a sweep and freezes with a tiny
  // event-queue bound. Its must-deliver events overflow almost at once,
  // the policy disconnects it and cancels its jobs, and the healthy
  // clients keep both workers.
  StalledClientChannel stalled(
      {R"({"op":"submit","id":"slow","circuits":["ca","cb"],)"
       R"("methods":["evolution","standard"],"seed":7})"});
  JobProtocolOptions stalled_options;
  stalled_options.session_queue = 4;
  stalled_options.traffic = &traffic;

  const auto [with_stall, stalled_runs] = run_healthy_pair(
      library, healthy_options, &stalled, stalled_options);
  for (const auto& run : stalled_runs)
    expect_rows_match_engine(run.lines, library);

  // The stalled session was handled per policy, not left blocking.
  EXPECT_EQ(traffic.overflow_disconnects.load(), 1u);

  // The acceptance bound: healthy sweeps within 1.2x of their no-stall
  // wall-clock. Pre-fix, the stalled client's blocked sink held a shared
  // worker hostage and this ratio diverged (or the test hung outright).
  EXPECT_LE(with_stall, 1.2 * baseline)
      << "healthy sessions slowed by a stalled reader: " << with_stall
      << "s vs baseline " << baseline << "s";
}

TEST(FaultInjection, StalledSessionJobsAreCancelled) {
  const auto library = lib::default_library();
  const auto service = make_service(library, stress_config());
  SessionTrafficStats traffic;

  StalledClientChannel stalled(
      {R"({"op":"submit","id":"slow","circuits":["ca","cb","cc"],)"
       R"("methods":["evolution","standard"],"seed":7})"});
  JobProtocolOptions options;
  options.session_queue = 2;
  options.traffic = &traffic;

  JobServiceBackend backend(*service);
  const auto start = std::chrono::steady_clock::now();
  JobProtocolSession session(backend, stalled, options);
  EXPECT_FALSE(session.run());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  // run() returned at all (the stalled writes never unblock on their
  // own), the policy fired exactly once, and every job the session had in
  // flight reached a terminal state — cancelled or already done — rather
  // than holding a worker. Depending on when the overflow lands, later
  // shards may never reach the queue at all (the submit loop bails on a
  // disconnected session), so pin submitted >= 1, not == 3.
  EXPECT_EQ(traffic.overflow_disconnects.load(), 1u);
  EXPECT_GE(service->submitted(), 1u);
  EXPECT_LE(service->submitted(), 3u);
  EXPECT_EQ(service->completed() + service->failed() + service->cancelled(),
            service->submitted());
  EXPECT_GE(service->cancelled(), 1u);
  // Teardown is bounded (flush + writer grace), not a drain of the full
  // sweep through a dead connection.
  EXPECT_LT(elapsed.count(), 30.0);
}

}  // namespace
}  // namespace iddq::core
