// Pipe-mode protocol round trip: a JobProtocolSession driven over string
// streams, with streamed rows checked field-for-field against direct
// FlowEngine::run_methods calls (the ISSUE acceptance contract: the
// server path is byte-identical to the engine, including cache replays —
// doubles travel as 17-significant-digit tokens, which round-trip
// IEEE-754 exactly).
#include "core/job_protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flow_engine.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
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

/// Runs one pipe-mode session over the given request lines and returns
/// every emitted event, parsed.
std::vector<json::JsonValue> run_session(JobService& service,
                                         const std::string& input,
                                         bool* shutdown_requested = nullptr,
                                         JobProtocolOptions options = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  support::StreamChannel channel(in, out);
  JobProtocolSession session(service, channel, options);
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

void expect_bits_eq(double got, double want, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << field << ": " << got << " vs " << want;
}

void expect_row_matches(const json::JsonValue& event,
                        const MethodResult& want) {
  EXPECT_EQ(event.get_string("method"), want.method);
  EXPECT_EQ(event.get_u64("modules"), want.module_count);
  expect_bits_eq(event.get_double("violation"), want.fitness.violation,
                 "violation");
  expect_bits_eq(event.get_double("cost"), want.fitness.cost, "cost");
  const json::JsonValue* c = event.find("c");
  ASSERT_NE(c, nullptr);
  const auto want_c = want.costs.as_array();
  ASSERT_EQ(c->items().size(), want_c.size());
  for (std::size_t i = 0; i < want_c.size(); ++i)
    expect_bits_eq(c->items()[i].as_double(), want_c[i], "c[i]");
  expect_bits_eq(event.get_double("sensor_area"), want.sensor_area,
                 "sensor_area");
  expect_bits_eq(event.get_double("delay_overhead"), want.delay_overhead,
                 "delay_overhead");
  expect_bits_eq(event.get_double("test_overhead"), want.test_overhead,
                 "test_overhead");
  EXPECT_EQ(event.get_u64("iterations"), want.iterations);
  EXPECT_EQ(event.get_u64("evaluations"), want.evaluations);
  EXPECT_EQ(event.get_bool("feasible", false), want.fitness.feasible());
}

TEST(JobProtocol, PipeRoundTripMatchesRunMethods) {
  // The ISSUE round trip: 2 circuits x 3 methods through the pipe-mode
  // protocol; every streamed row must match a direct run_methods call at
  // the shard-derived seed.
  const auto library = lib::default_library();
  const auto config = quick_config();
  const auto service = make_service(library, 2, config);

  const std::vector<std::string> circuits{"ca", "cb"};
  const std::vector<std::string> methods{"evolution", "random", "standard"};
  const std::uint64_t seed = 42;

  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"t1","circuits":["ca","cb"],)"
      R"("methods":["evolution","random","standard"],"seed":42})"
      "\n");

  ASSERT_EQ(events_of_kind(events, "accepted").size(), 1u);
  ASSERT_EQ(events_of_kind(events, "done").size(), 2u);
  ASSERT_EQ(events_of_kind(events, "failed").size(), 0u);
  const auto sweep_done = events_of_kind(events, "sweep_done");
  ASSERT_EQ(sweep_done.size(), 1u);
  EXPECT_EQ(sweep_done[0]->get_u64("ok"), 2u);

  // Group row events per circuit; within one circuit they must arrive in
  // method order (jobs interleave, a job's rows do not).
  std::map<std::string, std::vector<const json::JsonValue*>> rows;
  for (const auto* row : events_of_kind(events, "row"))
    rows[row->get_string("circuit")].push_back(row);
  ASSERT_EQ(rows.size(), circuits.size());

  for (std::size_t shard = 0; shard < circuits.size(); ++shard) {
    SCOPED_TRACE(circuits[shard]);
    const netlist::Netlist nl = synthetic_circuit(circuits[shard]);
    FlowEngine engine(nl, library, config);
    const auto expected =
        engine.run_methods(methods, Rng::mix_seed(seed, shard));

    const auto& got = rows[circuits[shard]];
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t m = 0; m < expected.size(); ++m) {
      SCOPED_TRACE(methods[m]);
      EXPECT_EQ(got[m]->get_u64("index"), m);
      expect_row_matches(*got[m], expected[m]);
    }
  }
}

TEST(JobProtocol, CacheHitReplayStreamsIdenticalRows) {
  const auto library = lib::default_library();
  ResultCache cache;
  FlowEngineConfig config = quick_config();
  config.cache = &cache;
  const auto service = make_service(library, 2, config);

  const std::string submit =
      R"({"op":"submit","id":"s","circuits":["ca"],)"
      R"("methods":["evolution","standard"],"seed":7})"
      "\n";
  const auto first = run_session(*service, submit);
  const auto misses = cache.misses();
  EXPECT_GT(misses, 0u);
  const auto second = run_session(*service, submit);
  EXPECT_EQ(cache.misses(), misses);  // second sweep: all hits
  EXPECT_GE(cache.hits(), 2u);

  const auto rows_first = events_of_kind(first, "row");
  const auto rows_second = events_of_kind(second, "row");
  ASSERT_EQ(rows_first.size(), 2u);
  ASSERT_EQ(rows_second.size(), rows_first.size());
  for (std::size_t i = 0; i < rows_first.size(); ++i) {
    // Field-for-field identical (the "job" id necessarily differs).
    EXPECT_EQ(rows_second[i]->get_string("method"),
              rows_first[i]->get_string("method"));
    expect_bits_eq(rows_second[i]->get_double("cost"),
                   rows_first[i]->get_double("cost"), "cost");
    expect_bits_eq(rows_second[i]->get_double("sensor_area"),
                   rows_first[i]->get_double("sensor_area"), "sensor_area");
    EXPECT_EQ(rows_second[i]->get_u64("evaluations"),
              rows_first[i]->get_u64("evaluations"));
    EXPECT_EQ(rows_second[i]->get_u64("modules"),
              rows_first[i]->get_u64("modules"));
  }
}

TEST(JobProtocol, CoverageFieldsStreamOnlyWhenGraded) {
  // The coverage leg of the acceptance contract: a coverage-enabled
  // service streams rows whose coverage fields are bit-identical to a
  // direct coverage-enabled FlowEngine run, and a plain service's rows
  // carry no coverage fields at all (byte-compatible with old clients).
  const auto library = lib::default_library();
  FlowEngineConfig config = quick_config();
  config.coverage.enabled = true;
  config.coverage.patterns = 64;
  config.coverage.minimize = true;
  const auto service = make_service(library, 2, config);

  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"g","circuits":["ca"],)"
      R"("methods":["evolution","standard"],"seed":42})"
      "\n");
  const auto rows = events_of_kind(events, "row");
  ASSERT_EQ(rows.size(), 2u);

  const netlist::Netlist nl = synthetic_circuit("ca");
  FlowEngine engine(nl, library, config);
  const std::vector<std::string> graded_methods{"evolution", "standard"};
  const auto expected =
      engine.run_methods(graded_methods, Rng::mix_seed(42, 0));
  for (std::size_t m = 0; m < expected.size(); ++m) {
    SCOPED_TRACE(expected[m].method);
    expect_row_matches(*rows[m], expected[m]);
    ASSERT_TRUE(expected[m].has_coverage);
    expect_bits_eq(rows[m]->get_double("fault_coverage_pct"),
                   expected[m].fault_coverage_pct, "fault_coverage_pct");
    EXPECT_EQ(rows[m]->get_u64("faults_detected"),
              expected[m].faults_detected);
    EXPECT_EQ(rows[m]->get_u64("faults_total"), expected[m].faults_total);
    EXPECT_EQ(rows[m]->get_u64("patterns_used"), expected[m].patterns_used);
    EXPECT_EQ(rows[m]->get_u64("patterns_minimized"),
              expected[m].patterns_minimized);
  }

  // Ungraded service: rows must not even mention coverage.
  const auto plain_service = make_service(library, 1, quick_config());
  const auto plain_events = run_session(
      *plain_service,
      R"({"op":"submit","id":"p","circuits":["ca"],)"
      R"("methods":["standard"],"seed":42})"
      "\n");
  const auto plain_rows = events_of_kind(plain_events, "row");
  ASSERT_EQ(plain_rows.size(), 1u);
  EXPECT_EQ(plain_rows[0]->find("fault_coverage_pct"), nullptr);
  EXPECT_EQ(plain_rows[0]->find("faults_total"), nullptr);
}

TEST(JobProtocol, CancelOpCancelsTheSweep) {
  const auto library = lib::default_library();
  FlowEngineConfig config = quick_config();
  config.optimizers.es.max_generations = 1000000;
  config.optimizers.es.stall_generations = 1000000;
  const auto service = make_service(library, 1, config);

  // The cancel op lands while the unbounded job is queued or mid-run;
  // either way the sweep must terminate as cancelled (EOF then drains).
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"c","circuits":["ca"],"methods":["evolution"]})"
      "\n"
      R"({"op":"cancel","id":"c"})"
      "\n");

  ASSERT_EQ(events_of_kind(events, "cancelled").size(), 1u);
  const auto sweep_done = events_of_kind(events, "sweep_done");
  ASSERT_EQ(sweep_done.size(), 1u);
  EXPECT_EQ(sweep_done[0]->get_u64("cancelled"), 1u);
  EXPECT_EQ(events_of_kind(events, "row").size(), 0u);
}

TEST(JobProtocol, MaxQueueBoundRejectsSubmitWithErrorEvent) {
  // One worker, held busy by an unbounded 3-shard sweep: its first shard
  // runs, two wait in the queue. The second submit would push the queue
  // past --max-queue 3, so it is rejected whole with a protocol error —
  // no accepted/queued events, nothing of it reaches the service.
  const auto library = lib::default_library();
  FlowEngineConfig config = quick_config();
  config.optimizers.es.max_generations = 1000000;
  config.optimizers.es.stall_generations = 1000000;
  const auto service = make_service(library, 1, config);

  JobProtocolOptions options;
  options.max_queue = 3;
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"big","circuits":["ca","cb","cc"],)"
      R"("methods":["evolution"],"priority":-1})"
      "\n"
      R"({"op":"submit","id":"late","circuits":["cd","ce"],)"
      R"("methods":["standard"],"priority":5})"
      "\n"
      R"({"op":"cancel","id":"big"})"
      "\n",
      nullptr, options);

  const auto accepted = events_of_kind(events, "accepted");
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0]->get_string("id"), "big");
  const auto errors = events_of_kind(events, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0]->get_string("message").find("queue full"),
            std::string::npos);
  // The rejection error is id-tagged (cluster front-ends attribute it to
  // the shard); the rejected sweep produced no JOB events at all.
  EXPECT_EQ(errors[0]->get_string("id"), "late");
  for (const auto& e : events)
    if (e.get_string("event") != "error")
      EXPECT_NE(e.get_string("id"), "late")
          << "rejected sweep leaked event " << e.get_string("event");
  EXPECT_EQ(service->submitted(), 3u);
}

TEST(JobProtocol, PriorityIsClampedNotUndefined) {
  // The one guard the server session and the cluster front-end share:
  // an int cast of 1e300 or NaN would be undefined behavior.
  EXPECT_EQ(submit_priority(1e300), 1000000);
  EXPECT_EQ(submit_priority(-1e300), -1000000);
  EXPECT_EQ(submit_priority(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(submit_priority(std::numeric_limits<double>::infinity()), 0);
  EXPECT_EQ(submit_priority(-2.0), -2);
  EXPECT_EQ(submit_priority(5.9), 5);

  // End to end: huge priorities in both directions are accepted and run.
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"hi","circuits":["ca"],)"
      R"("methods":["standard"],"priority":1e300})"
      "\n"
      R"({"op":"submit","id":"lo","circuits":["cb"],)"
      R"("methods":["standard"],"priority":-1e300})"
      "\n");
  EXPECT_EQ(events_of_kind(events, "accepted").size(), 2u);
  EXPECT_EQ(events_of_kind(events, "error").size(), 0u);
  EXPECT_EQ(events_of_kind(events, "done").size(), 2u);
}

TEST(JobProtocol, ReportsProtocolErrorsAndStats) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());

  bool shutdown_requested = false;
  const auto events = run_session(*service,
                                  "this is not json\n"
                                  R"({"op":"frobnicate"})"
                                  "\n"
                                  R"({"op":"submit","id":"x"})"
                                  "\n"
                                  R"({"op":"cancel","id":"nope"})"
                                  "\n"
                                  R"({"op":"stats"})"
                                  "\n"
                                  R"({"op":"shutdown"})"
                                  "\n",
                                  &shutdown_requested);

  EXPECT_TRUE(shutdown_requested);
  EXPECT_EQ(events_of_kind(events, "error").size(), 4u);
  const auto stats = events_of_kind(events, "stats");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0]->get_u64("submitted"), 0u);
  ASSERT_EQ(events_of_kind(events, "hello").size(), 1u);
  ASSERT_EQ(events_of_kind(events, "bye").size(), 1u);
}

TEST(JobProtocol, FailedShardIsReportedAndCounted) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 2, quick_config());
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"f","circuits":["ca","bad"],)"
      R"("methods":["standard"]})"
      "\n");
  const auto failed = events_of_kind(events, "failed");
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->get_string("circuit"), "bad");
  EXPECT_NE(failed[0]->get_string("error").find("bad circuit"),
            std::string::npos);
  const auto sweep_done = events_of_kind(events, "sweep_done");
  ASSERT_EQ(sweep_done.size(), 1u);
  EXPECT_EQ(sweep_done[0]->get_u64("ok"), 1u);
  EXPECT_EQ(sweep_done[0]->get_u64("failed"), 1u);
}

TEST(JobProtocol, SessionQuotaRejectsSubmitWhileInFlightJobsFinish) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 2, quick_config());
  SessionTrafficStats traffic;
  JobProtocolOptions options;
  options.max_jobs_per_session = 2;
  options.traffic = &traffic;

  // The first submit fills the quota; the second is rejected whole while
  // the first sweep's jobs are still in flight, yet that sweep itself
  // drains to a full sweep_done.
  const auto events = run_session(*service,
                                  R"({"op":"submit","id":"a",)"
                                  R"("circuits":["ca","cb"],)"
                                  R"("methods":["standard"]})"
                                  "\n"
                                  R"({"op":"submit","id":"b",)"
                                  R"("circuits":["cc"],"methods":)"
                                  R"(["standard"]})"
                                  "\n",
                                  nullptr, options);
  // Both submits of the same session are read back to back, so "b"
  // arrives while "a" is still in flight and must bounce off the quota.
  // "a" itself is unaffected: it drains to a full sweep_done.
  const auto errors = events_of_kind(events, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0]->get_string("message").find("session quota"),
            std::string::npos);
  EXPECT_EQ(traffic.quota_rejections.load(), 1u);
  ASSERT_EQ(events_of_kind(events, "accepted").size(), 1u);
  const auto sweep_done = events_of_kind(events, "sweep_done");
  ASSERT_EQ(sweep_done.size(), 1u);
  EXPECT_EQ(sweep_done[0]->get_string("id"), "a");
  EXPECT_EQ(sweep_done[0]->get_u64("ok"), 2u);
  // The rejected sweep produced no job events at all.
  for (const auto* row : events_of_kind(events, "row"))
    EXPECT_NE(row->get_string("id"), "b");

  // The quota is in-flight, not lifetime: a fresh session (same service)
  // submits 2 more jobs without tripping it.
  const auto second = run_session(*service,
                                  R"({"op":"submit","id":"c",)"
                                  R"("circuits":["ca","cb"],)"
                                  R"("methods":["standard"]})"
                                  "\n",
                                  nullptr, options);
  EXPECT_EQ(events_of_kind(second, "error").size(), 0u);
  ASSERT_EQ(events_of_kind(second, "sweep_done").size(), 1u);
}

TEST(JobProtocol, StatsReportQueueDepthAndCacheResidency) {
  const auto library = lib::default_library();
  ResultCache cache;
  FlowEngineConfig config = quick_config();
  config.cache = &cache;
  const auto service = make_service(library, 2, config);

  JobProtocolOptions options;
  options.session_queue = 1024;
  const auto events = run_session(*service,
                                  R"({"op":"submit","id":"s",)"
                                  R"("circuits":["ca"],"methods":)"
                                  R"(["standard"]})"
                                  "\n"
                                  R"({"op":"stats"})"
                                  "\n",
                                  nullptr, options);
  const auto stats = events_of_kind(events, "stats");
  ASSERT_EQ(stats.size(), 1u);
  const json::JsonValue* queue = stats[0]->find("queue_stats");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->get_u64("high_water"), 1u);
  EXPECT_GE(queue->get_u64("enqueued"), 3u);  // hello, accepted, queued...
  EXPECT_EQ(queue->get_u64("disconnects"), 0u);
  // The stats op does not wait for the in-flight sweep, so the residency
  // snapshot races the job's store(): pin only what is stable — the
  // fields exist, and a memory-only cache never evicts or reads disk.
  ASSERT_NE(stats[0]->find("cache_resident"), nullptr);
  EXPECT_LE(stats[0]->get_u64("cache_resident"), cache.resident_size());
  EXPECT_EQ(stats[0]->get_u64("cache_evictions"), 0u);
  EXPECT_EQ(stats[0]->get_u64("cache_disk_hits"), 0u);
}

/// StreamChannel with an artificial per-write delay: the writer thread
/// drains slower than workers emit, so a bounded queue actually fills.
class ThrottledStreamChannel final : public support::LineChannel {
 public:
  ThrottledStreamChannel(std::istream& in, std::ostream& out)
      : inner_(in, out) {}
  bool read_line(std::string& out) override { return inner_.read_line(out); }
  bool write_line(std::string_view line) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return inner_.write_line(line);
  }
  void shutdown_read() override { inner_.shutdown_read(); }
  void shutdown_write() override { inner_.shutdown_write(); }

 private:
  support::StreamChannel inner_;
};

TEST(JobProtocol, BoundedSessionQueueKeepsRowStreamIdentical) {
  // The tentpole invariant under a bound that actually engages: progress
  // ticks may drop, but rows/terminals arrive complete, in order, and
  // field-identical to the unbounded session's stream. The bound (32)
  // exceeds the sweep's total must-deliver event count, so the policy can
  // only ever drop ticks — a disconnect here would be a policy bug.
  const auto library = lib::default_library();
  const auto service = make_service(library, 2, quick_config());
  const std::string submit =
      R"({"op":"submit","id":"s","circuits":["ca","cb"],)"
      R"("methods":["evolution","random"],"seed":9})"
      "\n";

  const auto unbounded = run_session(*service, submit);

  JobProtocolOptions bounded_options;
  bounded_options.session_queue = 32;
  std::istringstream in(submit);
  std::ostringstream out;
  ThrottledStreamChannel channel(in, out);
  JobProtocolSession session(*service, channel, bounded_options);
  (void)session.run();
  std::vector<json::JsonValue> bounded;
  {
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
      auto event = json::JsonValue::parse(line);
      ASSERT_TRUE(event.has_value()) << "unparseable event: " << line;
      bounded.push_back(std::move(*event));
    }
  }
  EXPECT_EQ(events_of_kind(bounded, "error").size(), 0u);

  const auto want_rows = events_of_kind(unbounded, "row");
  const auto got_rows = events_of_kind(bounded, "row");
  ASSERT_EQ(got_rows.size(), want_rows.size());
  // Rows of one circuit arrive in method order; compare per circuit.
  std::map<std::string, std::vector<const json::JsonValue*>> want_by, got_by;
  for (const auto* row : want_rows) want_by[row->get_string("circuit")].push_back(row);
  for (const auto* row : got_rows) got_by[row->get_string("circuit")].push_back(row);
  ASSERT_EQ(got_by.size(), want_by.size());
  for (const auto& [circuit, want] : want_by) {
    SCOPED_TRACE(circuit);
    const auto& got = got_by[circuit];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i]->get_string("method"), want[i]->get_string("method"));
      expect_bits_eq(got[i]->get_double("cost"),
                     want[i]->get_double("cost"), "cost");
      expect_bits_eq(got[i]->get_double("sensor_area"),
                     want[i]->get_double("sensor_area"), "sensor_area");
      EXPECT_EQ(got[i]->get_u64("evaluations"),
                want[i]->get_u64("evaluations"));
    }
  }
  ASSERT_EQ(events_of_kind(bounded, "done").size(), 2u);
  ASSERT_EQ(events_of_kind(bounded, "sweep_done").size(), 1u);
}

TEST(JobProtocol, PingAnswersPongInline) {
  // The cluster front-end's liveness probe: answered by the session
  // thread without touching the worker pool, with the protocol revision
  // and worker count a router needs.
  const auto library = lib::default_library();
  const auto service = make_service(library, 3, quick_config());
  const auto events = run_session(*service,
                                  R"({"op":"ping"})"
                                  "\n");
  const auto pongs = events_of_kind(events, "pong");
  ASSERT_EQ(pongs.size(), 1u);
  EXPECT_EQ(pongs[0]->get_u64("protocol"), 1u);
  EXPECT_EQ(pongs[0]->get_u64("workers"), 3u);
  EXPECT_EQ(events_of_kind(events, "error").size(), 0u);
}

TEST(JobProtocol, ExplicitSeedsOverrideTheShardDerivation) {
  // The cluster determinism carrier: a submit shipping "seeds" runs each
  // shard at exactly that base seed — NOT mix_seed(seed, shard) — so a
  // front-end can re-run a shard anywhere and reproduce its rows. Rows
  // are pinned bit-exact against direct engine runs at the shipped seeds.
  const auto library = lib::default_library();
  const auto config = quick_config();
  const auto service = make_service(library, 2, config);

  const std::vector<std::string> circuits{"ca", "cb"};
  const std::vector<std::string> methods{"evolution", "standard"};
  const std::vector<std::uint64_t> seeds{977, 431};

  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"e","circuits":["ca","cb"],)"
      R"("methods":["evolution","standard"],"seed":1,"seeds":[977,431]})"
      "\n");
  ASSERT_EQ(events_of_kind(events, "sweep_done").size(), 1u);

  std::map<std::string, std::vector<const json::JsonValue*>> rows;
  for (const auto* row : events_of_kind(events, "row"))
    rows[row->get_string("circuit")].push_back(row);
  ASSERT_EQ(rows.size(), circuits.size());
  for (std::size_t shard = 0; shard < circuits.size(); ++shard) {
    SCOPED_TRACE(circuits[shard]);
    const netlist::Netlist nl = synthetic_circuit(circuits[shard]);
    FlowEngine engine(nl, library, config);
    const auto expected = engine.run_methods(methods, seeds[shard]);
    const auto& got = rows[circuits[shard]];
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t m = 0; m < expected.size(); ++m)
      expect_row_matches(*got[m], expected[m]);
  }
}

TEST(JobProtocol, SeedsLengthMismatchRejectsTheSubmitWhole) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"m","circuits":["ca","cb"],)"
      R"("methods":["standard"],"seeds":[1,2,3]})"
      "\n");
  const auto errors = events_of_kind(events, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0]->get_string("message").find("one entry per circuit"),
            std::string::npos);
  EXPECT_EQ(events_of_kind(events, "accepted").size(), 0u);
  EXPECT_EQ(service->submitted(), 0u);
}

TEST(JobProtocol, MalformedSeedsEntryRejectsTheSubmit) {
  const auto library = lib::default_library();
  const auto service = make_service(library, 1, quick_config());
  const auto events = run_session(
      *service,
      R"({"op":"submit","id":"m","circuits":["ca"],)"
      R"("methods":["standard"],"seeds":["not-a-seed"]})"
      "\n");
  const auto errors = events_of_kind(events, "error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0]->get_string("message").find("unsigned"),
            std::string::npos);
  EXPECT_EQ(service->submitted(), 0u);
}

}  // namespace
}  // namespace iddq::core
