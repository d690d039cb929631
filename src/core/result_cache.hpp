// Content-addressed result cache for optimizer runs.
//
// A MethodResult is a pure function of (netlist structure, cell library,
// sensor/weight config, optimizer tuning, method spec, seed, budget, start
// partition): every optimizer draws from an explicitly seeded Rng and the
// evaluator is deterministic. The cache exploits that: the inputs are
// folded into a stable 64-bit key (support/hash.hpp; see docs/caching.md
// for the exact recipe) and the outcome is stored under it, in memory and
// — when a cache directory is attached — as one JSON line per entry in
// `<dir>/results.jsonl`. Repeated sweeps and the Table 1 bench then only
// pay for the (circuit, method, seed, budget) points they have not seen.
//
// The cache stores the partition (intra-module gate order preserved) plus
// the optimizer's own fitness/costs/counters; module reports and sensor
// area are recomputed from the partition on a hit, which reproduces the
// original MethodResult byte-for-byte (tests/core/test_result_cache.cpp).
//
// Thread-safe: JobService workers share one instance. Unparseable lines
// in the cache file are skipped, so a truncated write (crash mid-append)
// degrades to a miss, never to corruption.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/coverage_options.hpp"
#include "core/optimizer.hpp"
#include "partition/cost_model.hpp"

namespace iddq::core {

/// What one cache entry stores — enough to reconstruct a MethodResult
/// without rerunning the optimizer.
struct CacheRecord {
  std::string method;
  std::size_t gate_count = 0;
  /// Modules with intra-module gate order preserved: per-module floating-
  /// point accumulation on a hit replays the original summation order.
  std::vector<std::vector<netlist::GateId>> modules;
  part::Fitness fitness;
  part::Costs costs;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  /// Measured IDDQ coverage counters (docs/coverage.md), stored so a hit
  /// replays a coverage-bearing row without re-simulating. The percentage
  /// is derived (sim::coverage_percent), not stored. Only engines whose
  /// context fingerprint mixed the same CoverageOptions can see this
  /// record, so has_coverage always matches the engine's expectation.
  bool has_coverage = false;
  std::size_t faults_total = 0;
  std::size_t faults_detected = 0;
  std::size_t patterns_used = 0;
  std::size_t patterns_minimized = 0;
};

class ResultCache {
 public:
  /// In-memory only cache.
  ResultCache() = default;

  /// Cache backed by `dir` (created when missing): existing entries are
  /// loaded from `<dir>/results.jsonl`, every store appends to it.
  explicit ResultCache(const std::string& dir) { attach_dir(dir); }

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Attaches the disk backing (see the constructor). Throws iddq::Error
  /// when the directory or file cannot be created.
  void attach_dir(const std::string& dir);

  /// Caps the resident (in-memory) entry count for a disk-backed cache:
  /// least-recently-used entries beyond the cap keep only their byte
  /// offset in results.jsonl and are re-read (and re-admitted, evicting
  /// another entry) on their next lookup. 0 (the default) means unbounded.
  /// Ignored while no directory is attached — evicting a memory-only
  /// entry would lose it. A long-lived server in front of a sweep
  /// directory holding millions of rows stays at a bounded footprint.
  void set_max_resident(std::size_t max_resident);

  /// Evicts resident entries that have not been touched for `idle`
  /// (iddqsyn_server --cache-idle-evict): checked opportunistically on
  /// every lookup/store — no background thread — so a server whose
  /// traffic moves on from yesterday's circuits sheds their records.
  /// Disk-backed caches only (the next lookup reloads transparently,
  /// counted in disk_hits); ignored while no directory is attached, like
  /// set_max_resident. 0 (the default) disables.
  void set_idle_deadline(std::chrono::milliseconds idle);

  /// Subset of evictions() performed by the idle deadline (the rest are
  /// residency-cap evictions).
  [[nodiscard]] std::uint64_t idle_evictions() const;

  /// Test hook: the clock idle eviction reads (defaults to
  /// steady_clock::now). Lets tests expire entries without sleeping.
  void set_clock_for_test(
      std::function<std::chrono::steady_clock::time_point()> clock);

  /// Returns the record stored under `key`, counting a hit or a miss.
  /// An evicted entry is transparently reloaded from the backing file
  /// (still a hit; counted separately in disk_hits).
  [[nodiscard]] std::optional<CacheRecord> lookup(std::uint64_t key) const;

  /// Stores (replacing any previous record under the same key) and appends
  /// to the backing file when one is attached.
  void store(std::uint64_t key, const CacheRecord& record);

  /// Total entries known to this cache: resident plus evicted-to-disk.
  [[nodiscard]] std::size_t size() const;
  /// Entries currently held in memory (== size() while unbounded).
  [[nodiscard]] std::size_t resident_size() const;
  [[nodiscard]] std::uint64_t hits() const;
  /// Subset of hits() served by re-reading an evicted entry from disk.
  [[nodiscard]] std::uint64_t disk_hits() const;
  /// Residency evictions performed so far (an entry may be counted many
  /// times as it cycles out and back in).
  [[nodiscard]] std::uint64_t evictions() const;
  [[nodiscard]] std::uint64_t misses() const;

  /// Non-empty lines of the attached file that failed to parse (each one
  /// silently degraded to a miss). Surfaced by the CLI's cache stats so a
  /// corrupted sweep directory is visible instead of just slow.
  [[nodiscard]] std::size_t corrupt_lines() const;

  /// One JSON line (no trailing newline). Doubles are written with 17
  /// significant digits, which round-trips IEEE-754 exactly.
  [[nodiscard]] static std::string serialize(std::uint64_t key,
                                             const CacheRecord& record);

  /// Parses a line produced by serialize (any key order is accepted).
  /// Returns false on malformed input.
  [[nodiscard]] static bool parse(std::string_view line, std::uint64_t& key,
                                  CacheRecord& out);

 private:
  void touch(std::uint64_t key) const;
  void evict_over_cap() const;
  void evict_idle() const;
  [[nodiscard]] std::chrono::steady_clock::time_point now() const;

  mutable std::mutex mutex_;
  mutable std::unordered_map<std::uint64_t, CacheRecord> entries_;
  /// Byte offset of the last write of each key in the backing file; the
  /// reload path for evicted entries. Superset of the resident keys while
  /// a directory is attached.
  std::unordered_map<std::uint64_t, std::streamoff> offsets_;
  /// Resident keys, most recently used first.
  mutable std::list<std::uint64_t> lru_;
  mutable std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      lru_pos_;
  std::size_t max_resident_ = 0;  // 0 = unbounded
  /// Idle deadline; 0 = disabled. Last-touch stamps ride the LRU order
  /// (touch order == recency order), so expiry scans from lru_.back().
  std::chrono::milliseconds idle_deadline_{0};
  mutable std::unordered_map<std::uint64_t,
                             std::chrono::steady_clock::time_point>
      last_touch_;
  std::function<std::chrono::steady_clock::time_point()> clock_;
  std::string file_path_;  // empty = in-memory only
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t disk_hits_ = 0;
  mutable std::uint64_t evictions_ = 0;
  mutable std::uint64_t idle_evictions_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::size_t corrupt_lines_ = 0;
};

/// What `iddqsyn --cache-stats` reports about a results.jsonl file.
struct CacheFileStats {
  std::size_t total_lines = 0;      // non-empty lines
  std::size_t corrupt_lines = 0;    // unparseable (degrade to misses)
  std::size_t unique_keys = 0;
  std::size_t duplicate_lines = 0;  // parsed lines shadowed by a later write
  /// Age histogram over the *surviving* (last-write) line of every unique
  /// key: bucket b counts keys whose last write is [2^b, 2^(b+1)) lines
  /// from the file end — a quick view of how stale a long-lived sweep
  /// directory's useful entries are.
  std::vector<std::size_t> age_histogram;
};

/// Scans `<dir>/results.jsonl` without loading records into memory beyond
/// their keys. Throws iddq::Error when the file cannot be opened.
[[nodiscard]] CacheFileStats inspect_cache_file(const std::string& dir);

/// Outcome of compact_cache_file.
struct CacheCompaction {
  std::size_t kept = 0;                // lines in the rewritten file
  std::size_t dropped_duplicates = 0;  // earlier writes of a rewritten key
  std::size_t dropped_corrupt = 0;     // unparseable lines removed
};

/// Rewrites `<dir>/results.jsonl` keeping only the last line per key (in
/// last-write order), atomically via a temp file + rename (copy+remove
/// when the rename fails across filesystems). A temp file orphaned by a
/// crash mid-compaction is swept up by the next attach_dir. Byte-
/// preserving for the surviving lines. Throws iddq::Error on IO failure.
/// Must not run concurrently with writers appending to the same directory.
[[nodiscard]] CacheCompaction compact_cache_file(const std::string& dir);

namespace detail {
/// Moves `from` over `to`: rename when possible, copy+remove when the
/// rename fails (EXDEV across mounts). `force_copy` is the test hook for
/// the fallback path. Throws iddq::Error when both strategies fail.
void replace_file(const std::string& from, const std::string& to,
                  bool force_copy = false);
}  // namespace detail

/// Fingerprint of everything that is constant per FlowEngine: circuit and
/// library content, sensor spec, cost weights, rho, the optimizer tuning
/// knobs (per-request seed/record_trace fields excluded), and the
/// coverage options. Pass `coverage.fault_model` in canonical spelling
/// (sim::FaultModelSpec::parse().canonical()) so equivalent specs share
/// entries; a default-constructed CoverageOptions reproduces the
/// coverage-off fingerprint.
[[nodiscard]] std::uint64_t cache_context_fingerprint(
    std::uint64_t netlist_fp, std::uint64_t library_fp,
    const elec::SensorSpec& sensor, const part::CostWeights& weights,
    std::uint32_t rho, const OptimizerConfig& optimizers,
    const CoverageOptions& coverage = {});

/// Final cache key: context fingerprint + per-run inputs. `start` is the
/// explicit start partition, or nullptr when the engine plans the module
/// count (the plan is derived from the context, so it needs no extra
/// hashing).
[[nodiscard]] std::uint64_t cache_key(std::uint64_t context_fp,
                                      std::string_view method_spec,
                                      std::uint64_t seed,
                                      std::size_t max_evaluations,
                                      const part::Partition* start);

}  // namespace iddq::core
