// Robustness-layer tests (docs/robustness.md): per-job deadlines through
// JobService and the protocol (reason "timeout", timeouts counter),
// graceful drain (submit rejection, bounded drain cancelling stragglers,
// bye), and cache crash-recovery — a FaultPlan-torn final append recovers
// as exactly one corrupt line, stale compaction temp files are swept on
// attach, and replace_file's copy+remove fallback substitutes for a
// failed rename.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/job_protocol.hpp"
#include "core/job_service.hpp"
#include "core/result_cache.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/json.hpp"
#include "support/transport.hpp"

namespace iddq::core {
namespace {

netlist::Netlist synthetic_circuit(const std::string& spec) {
  if (spec == "bad") throw Error("synthetic loader: bad circuit");
  const std::size_t gates = 120 + 40 * (spec.back() - 'a');
  return netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic(spec, gates, 10, 5));
}

FlowEngineConfig quick_config() {
  FlowEngineConfig config;
  config.optimizers.es.mu = 3;
  config.optimizers.es.lambda = 3;
  config.optimizers.es.chi = 1;
  config.optimizers.es.max_generations = 10;
  config.optimizers.es.stall_generations = 5;
  config.optimizers.random_samples = 50;
  return config;
}

// Only cancellation (or a deadline) ends a run under this config — the
// deterministic way to hold a worker busy.
FlowEngineConfig unbounded_config() {
  FlowEngineConfig config = quick_config();
  config.optimizers.es.max_generations = 1000000;
  config.optimizers.es.stall_generations = 1000000;
  return config;
}

std::unique_ptr<JobService> make_service(const lib::CellLibrary& library,
                                         std::size_t workers,
                                         FlowEngineConfig config) {
  JobServiceConfig service_config;
  service_config.workers = workers;
  service_config.flow = std::move(config);
  auto service =
      std::make_unique<JobService>(library, std::move(service_config));
  service->set_circuit_loader(synthetic_circuit);
  return service;
}

std::vector<json::JsonValue> run_session(JobService& service,
                                         const std::string& input,
                                         bool* shutdown_requested = nullptr,
                                         JobProtocolOptions options = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  support::StreamChannel channel(in, out);
  JobServiceBackend backend(service);
  JobProtocolSession session(backend, channel, options);
  const bool requested = session.run();
  if (shutdown_requested != nullptr) *shutdown_requested = requested;

  std::vector<json::JsonValue> events;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto event = json::JsonValue::parse(line);
    EXPECT_TRUE(event.has_value()) << "unparseable event: " << line;
    if (event) events.push_back(std::move(*event));
  }
  return events;
}

std::vector<const json::JsonValue*> events_of_kind(
    const std::vector<json::JsonValue>& events, const std::string& kind) {
  std::vector<const json::JsonValue*> out;
  for (const auto& e : events)
    if (e.get_string("event") == kind) out.push_back(&e);
  return out;
}

TEST(Deadline, ExpiredJobFailsWithTimeoutReason) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());

  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"evolution"};
  spec.deadline_ms = 50;
  const auto handle = service->submit(spec, nullptr);
  const JobResult& result = handle.wait();

  EXPECT_EQ(handle.status(), JobState::failed);
  EXPECT_EQ(result.reason, "timeout");
  EXPECT_NE(result.error.find("timeout"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("50"), std::string::npos) << result.error;
  EXPECT_EQ(service->timeouts(), 1u);
}

TEST(Deadline, GenerousDeadlineNeverFires) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());

  JobSpec spec;
  spec.circuit = "ca";
  spec.methods = {"standard"};
  spec.deadline_ms = 600000;
  const auto handle = service->submit(spec, nullptr);
  handle.wait();
  EXPECT_EQ(handle.status(), JobState::done);
  EXPECT_EQ(service->timeouts(), 0u);
}

TEST(Deadline, ProtocolFailedEventCarriesTimeoutReason) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());

  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"d1","circuits":["ca"],)"
      R"("methods":["evolution"],"deadline_ms":40})"
      "\n");

  const auto failed = events_of_kind(events, "failed");
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->get_string("reason"), "timeout");
  EXPECT_NE(failed[0]->get_string("error").find("timeout"),
            std::string::npos);
  EXPECT_TRUE(events_of_kind(events, "done").empty());

  // The timeout shows in the next session's stats (service-level counter).
  const auto stats_events =
      run_session(*service, R"({"op":"stats"})" "\n");
  const auto stats = events_of_kind(stats_events, "stats");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GE(stats[0]->get_u64("timeouts"), 1u);
}

TEST(Deadline, ServerDefaultAppliesWhenSubmitOmitsIt) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());

  JobProtocolOptions options;
  options.default_deadline_ms = 40;  // --job-timeout-ms
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"d2","circuits":["ca"],)"
      R"("methods":["evolution"]})"
      "\n",
      nullptr, options);

  const auto failed = events_of_kind(events, "failed");
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->get_string("reason"), "timeout");
}

TEST(Drain, DrainingServerRejectsSubmits) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());

  std::atomic<bool> draining{true};
  JobProtocolOptions options;
  options.draining = &draining;
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"r1","circuits":["ca"],)"
      R"("methods":["standard"]})"
      "\n",
      nullptr, options);

  const auto errors = events_of_kind(events, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0]->get_string("message").find("draining"),
            std::string::npos);
  EXPECT_EQ(errors[0]->get_string("id"), "r1");
  EXPECT_TRUE(events_of_kind(events, "accepted").empty());
  // A drained session still signs off cleanly.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().get_string("event"), "bye");
}

TEST(Drain, ShutdownCancelsStragglersWithinTheBound) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, unbounded_config());

  std::atomic<bool> draining{false};
  JobProtocolOptions options;
  options.draining = &draining;
  options.drain_timeout_ms = 200;  // --drain-timeout-ms

  bool shutdown_requested = false;
  const auto start = std::chrono::steady_clock::now();
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"r2","circuits":["ca"],)"
      R"("methods":["evolution"]})"
      "\n"
      R"({"op":"shutdown"})"
      "\n",
      &shutdown_requested, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(shutdown_requested);
  EXPECT_TRUE(draining.load());  // shutdown op flipped the server flag
  // The unbounded job cannot finish by itself: only the bounded drain's
  // cancel ends it. The generous ceiling keeps slow-machine noise out.
  ASSERT_EQ(events_of_kind(events, "cancelled").size(), 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().get_string("event"), "bye");
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("iddq_robustness_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

CacheRecord sample_record(std::uint64_t salt) {
  CacheRecord r;
  r.method = "evolution+greedy";
  r.gate_count = 9 + salt;
  r.modules = {{3, 5, 4}, {6, 7}, {8}};
  r.fitness.violation = 0.0;
  r.fitness.cost = 3307.0 + static_cast<double>(salt);
  r.costs = {11.6, 0.03, 3.29, 3.93, 1.0};
  r.iterations = 10;
  r.evaluations = 728;
  return r;
}

struct ArmedPlan {
  explicit ArmedPlan(std::string_view spec) {
    support::FaultPlan::arm_for_test(spec);
  }
  ~ArmedPlan() { support::FaultPlan::disarm_for_test(); }
};

TEST(CacheRobustness, TornFinalAppendRecoversAsOneCorruptLine) {
  const std::string dir = fresh_dir("torn");
  {
    ArmedPlan armed("tear-cache-append=3");
    ResultCache cache(dir);
    cache.store(1, sample_record(1));
    cache.store(2, sample_record(2));
    cache.store(3, sample_record(3));  // torn mid-record: the "crash"
    cache.store(4, sample_record(4));  // post-crash appends never land
  }
  ResultCache recovered(dir);
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.corrupt_lines(), 1u);  // exactly the torn tail
  EXPECT_TRUE(recovered.lookup(1).has_value());
  EXPECT_TRUE(recovered.lookup(2).has_value());
  EXPECT_FALSE(recovered.lookup(3).has_value());
  EXPECT_FALSE(recovered.lookup(4).has_value());
}

TEST(CacheRobustness, StaleCompactionTempIsSweptOnAttach) {
  const std::string dir = fresh_dir("stale_tmp");
  {
    ResultCache cache(dir);
    cache.store(7, sample_record(7));
  }
  const auto tmp =
      std::filesystem::path(dir) / "results.jsonl.compact.tmp";
  {
    std::ofstream orphan(tmp);
    orphan << "half-written compaction\n";
  }
  ASSERT_TRUE(std::filesystem::exists(tmp));
  ResultCache reopened(dir);  // attach sweeps the crashed compaction
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_TRUE(reopened.lookup(7).has_value());
}

TEST(CacheRobustness, ReplaceFileCopyFallbackSubstitutesForRename) {
  const std::string dir = fresh_dir("replace");
  std::filesystem::create_directories(dir);
  const std::string from = (std::filesystem::path(dir) / "from.txt").string();
  const std::string to = (std::filesystem::path(dir) / "to.txt").string();
  {
    std::ofstream f(from);
    f << "payload\n";
  }
  {
    std::ofstream t(to);
    t << "old contents\n";
  }
  detail::replace_file(from, to, /*force_copy=*/true);
  EXPECT_FALSE(std::filesystem::exists(from));
  std::ifstream result(to);
  std::string line;
  ASSERT_TRUE(std::getline(result, line));
  EXPECT_EQ(line, "payload");

  EXPECT_THROW(
      detail::replace_file((std::filesystem::path(dir) / "absent").string(),
                           to, /*force_copy=*/true),
      Error);
}

}  // namespace
}  // namespace iddq::core
