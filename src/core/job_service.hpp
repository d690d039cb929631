// Job-oriented async execution service — the dispatch point for every run
// in the system (docs/architecture.md).
//
// A JobSpec names what to run (circuit spec, method list, seed, budget,
// cache policy); submit() queues it and returns a JobHandle immediately.
// The handle offers non-blocking status(), a future-like wait(), and
// cooperative cancel(); a per-job JobEventSink streams the lifecycle
// (queued -> running -> progress ticks -> row per finished method ->
// done/failed/cancelled) as it happens, from the worker thread.
//
// Execution is exactly FlowEngine::run_methods — same per-method derived
// seeds (Rng::mix_seed(base_seed, method_index)), same section-5 standard
// coupling, same cache keys — so a job at a given (circuit, methods, seed,
// budget) is byte-identical to a direct engine call
// (tests/core/test_job_service.cpp pins it).
//
// A sweep — one method list over many circuits — is a SubmitRequest; its
// shard i runs as shard_spec(request, i), seeded by shard_seed(request,
// i). The CLI, the protocol session's JobService backend and the cluster
// front-end all derive shard seeds there, so one sweep is byte-identical
// for any worker count, on one server or across a cluster.
//
// Cancellation is cooperative: cancel() sets a flag the sequence polls
// before each method and at every live progress tick (evolution reports
// per generation, annealing every 1000 steps, tabu every 25 rounds), so a
// cancel lands mid-run within one tick, not after the method completes.
// Rows already produced remain available in the terminal JobResult.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/job_event.hpp"
#include "core/job_queue.hpp"
#include "core/optimizer_registry.hpp"
#include "library/cell_library.hpp"

namespace iddq::core {

/// What to run: one circuit through an ordered method list. A pure value —
/// every field is part of the job's identity (and of its cache keys).
struct JobSpec {
  std::string circuit;  // builtin name or .bench path (or loader-specific)
  std::vector<std::string> methods{"evolution", "standard"};
  /// Per-method seeds derive as Rng::mix_seed(base_seed, method_index),
  /// matching FlowEngine::run_methods.
  std::uint64_t base_seed = 1;
  std::size_t max_evaluations = 0;  // per-method budget, 0 = default

  /// Scheduling priority: higher pops sooner, equal priorities are FIFO,
  /// and queued jobs age upward so bulk sweeps are never starved (see
  /// core/job_queue.hpp). Scheduling only — results do not depend on it,
  /// so it is not part of the job's cache identity.
  int priority = 0;

  /// Wall-clock budget from submit (queue wait included); 0 = none. An
  /// expired job fails at its next cooperative poll point with reason
  /// "timeout" (docs/robustness.md). Scheduling-adjacent like priority:
  /// not part of the job's cache identity.
  std::size_t deadline_ms = 0;

  enum class CachePolicy {
    use,    // consult/populate the service's shared ResultCache
    bypass  // always recompute; never read or write the cache
  };
  CachePolicy cache_policy = CachePolicy::use;
};

/// One sweep: a method list over many circuits, one job (shard) per
/// circuit. The protocol's submit op parses into this; the CLI builds one
/// from its arguments.
struct SubmitRequest {
  std::string id;  // client-chosen sweep id (protocol only)
  std::vector<std::string> circuits;
  std::vector<std::string> methods{"evolution", "standard"};
  std::uint64_t seed = 1;
  /// Explicit per-shard base seeds (same length as circuits). When present
  /// they replace the mix_seed(seed, shard) derivation — a cluster front-
  /// end ships each shard's seed with it as data, so retrying the shard on
  /// another host cannot change its rows (docs/cluster.md).
  std::vector<std::uint64_t> seeds;
  std::size_t budget = 0;  // per-method evaluation budget, 0 = default
  bool use_cache = true;
  int priority = 0;
  /// Per-job wall-clock budget (JobSpec::deadline_ms); 0 = none.
  std::size_t deadline_ms = 0;
};

/// Base seed of shard `shard`: seeds[shard] when explicit seeds were
/// given, else Rng::mix_seed(seed, shard). It depends on the shard index
/// alone, never on scheduling or placement.
[[nodiscard]] std::uint64_t shard_seed(const SubmitRequest& request,
                                       std::size_t shard);

/// The job of shard `shard`: its circuit at shard_seed(), with the
/// request's methods, budget, priority, deadline and cache policy.
[[nodiscard]] JobSpec shard_spec(const SubmitRequest& request,
                                 std::size_t shard);

/// Terminal outcome of one job.
struct JobResult {
  std::string circuit;
  SizePlan plan;
  /// Rows completed before the terminal state, in spec order: all of them
  /// when done, a prefix when failed/cancelled mid-sequence.
  std::vector<MethodResult> rows;
  std::string error;  // non-empty iff state == failed
  /// Machine-readable failure class ("timeout" today); empty for plain
  /// errors. Rides the protocol's failed event as a `reason` field.
  std::string reason;
  JobState state = JobState::queued;

  [[nodiscard]] bool ok() const noexcept { return state == JobState::done; }
};

namespace detail {
struct JobControl;
}

/// JobService tuning. Namespace-scope (not nested) so it can be a default
/// constructor argument.
struct JobServiceConfig {
  std::size_t workers = 1;  // worker threads (clamped to >= 1)
  FlowEngineConfig flow;
};

/// Shared-state handle to a submitted job. Copyable; all copies observe
/// the same job. Thread-safe.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return ctl_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const;

  /// Non-blocking state snapshot.
  [[nodiscard]] JobState status() const;

  /// Requests cooperative cancellation. Idempotent, non-blocking; a no-op
  /// once the job is terminal. The job transitions to cancelled at its
  /// next poll point (or straight from the queue if not yet running).
  void cancel();

  /// Blocks until the job is terminal; returns the result (valid for the
  /// handle's lifetime).
  const JobResult& wait() const;

  /// Bounded wait; true when the job reached a terminal state in time.
  bool wait_for(std::chrono::milliseconds timeout) const;

 private:
  friend class JobService;
  explicit JobHandle(std::shared_ptr<detail::JobControl> ctl)
      : ctl_(std::move(ctl)) {}

  std::shared_ptr<detail::JobControl> ctl_;
};

/// Long-lived worker-pool service. `library` and `registry` must outlive
/// it; the FlowEngineConfig (including the shared ResultCache pointer) is
/// copied per job. Destruction drains: queued jobs still run, then the
/// workers join — every handle's wait() is guaranteed to return.
class JobService {
 public:
  /// Resolves a circuit spec to a netlist. Defaults to
  /// netlist::load_circuit (builtin generators + .bench files).
  using CircuitLoader = std::function<netlist::Netlist(const std::string&)>;

  using Config = JobServiceConfig;

  explicit JobService(
      const lib::CellLibrary& library, Config config = {},
      const OptimizerRegistry& registry = OptimizerRegistry::global());
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Replaces the circuit loader (tests inject synthetic circuits). Call
  /// before the first submit.
  void set_circuit_loader(CircuitLoader loader);

  /// Queues a job. The sink (may be empty) starts receiving events
  /// immediately — `queued` fires on the calling thread before submit
  /// returns, everything later from a worker thread. Throws iddq::Error
  /// after shutdown().
  JobHandle submit(JobSpec spec, JobEventSink sink = {});

  /// Closes intake, lets queued jobs finish, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] const FlowEngineConfig& flow_config() const noexcept {
    return config_.flow;
  }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Jobs queued but not yet picked up by a worker (excludes running
  /// jobs). What the server's --max-queue admission bound checks.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// Atomic admission for bounded multi-job submits (the server's
  /// --max-queue): reserves `count` slots iff current depth + outstanding
  /// reservations + count fit under `max_queue` (0 = no bound, always
  /// succeeds). Concurrent reservers cannot jointly overshoot the bound —
  /// the check-then-submit of a whole sweep becomes atomic. Call
  /// release_reservation(count) once the reserved submits have been
  /// pushed (or abandoned); until then other reservers see the slots as
  /// taken, which errs on the side of rejecting, never of overflowing.
  [[nodiscard]] bool try_reserve(std::size_t count, std::size_t max_queue);
  void release_reservation(std::size_t count);

  // Lifetime counters (monotonic, thread-safe).
  [[nodiscard]] std::uint64_t submitted() const noexcept;
  [[nodiscard]] std::uint64_t completed() const noexcept;  // done only
  [[nodiscard]] std::uint64_t failed() const noexcept;
  [[nodiscard]] std::uint64_t cancelled() const noexcept;
  /// Subset of failed(): jobs that expired their deadline_ms.
  [[nodiscard]] std::uint64_t timeouts() const noexcept;

 private:
  void worker_loop();
  void execute(detail::JobControl& job);

  const lib::CellLibrary* library_;
  Config config_;
  const OptimizerRegistry* registry_;
  CircuitLoader loader_;

  JobQueue<std::shared_ptr<detail::JobControl>> queue_;
  std::mutex admission_mutex_;  // guards reserved_ against queue_ reads
  std::size_t reserved_ = 0;    // slots promised to in-flight sweeps
  std::vector<std::thread> workers_;
  std::atomic<bool> shut_down_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> timeouts_{0};
};

}  // namespace iddq::core
