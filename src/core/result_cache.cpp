#include "core/result_cache.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/hash.hpp"

namespace iddq::core {

namespace {

void append_u64_hex(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  out += buf;
}

// 17 significant digits round-trip any finite IEEE-754 double exactly.
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

// Minimal cursor over the flat JSON grammar serialize() emits: one object
// of string/number/array-of-number/array-of-array-of-number values.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : s_(s) {}

  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return i_ < s_.size() && s_[i_] == c;
  }

  [[nodiscard]] bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        c = s_[i_++];
        if (c != '"' && c != '\\') return false;
      }
      out += c;
    }
    return i_ < s_.size() && s_[i_++] == '"';
  }

  [[nodiscard]] bool parse_u64(std::uint64_t& out) {
    skip_ws();
    const auto* first = s_.data() + i_;
    const auto* last = s_.data() + s_.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{}) return false;
    i_ += static_cast<std::size_t>(ptr - first);
    return true;
  }

  [[nodiscard]] bool parse_double(double& out) {
    skip_ws();
    const auto* first = s_.data() + i_;
    const auto* last = s_.data() + s_.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{}) return false;
    i_ += static_cast<std::size_t>(ptr - first);
    return true;
  }

  [[nodiscard]] bool at_object_end() {
    skip_ws();
    return i_ < s_.size() && s_[i_] == '}';
  }

 private:
  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace

std::string ResultCache::serialize(std::uint64_t key,
                                   const CacheRecord& record) {
  std::string out;
  out.reserve(256 + 8 * record.gate_count);
  out += "{\"key\":\"";
  append_u64_hex(out, key);
  out += "\",\"method\":";
  append_json_string(out, record.method);
  out += ",\"gates\":";
  out += std::to_string(record.gate_count);
  out += ",\"violation\":";
  append_double(out, record.fitness.violation);
  out += ",\"cost\":";
  append_double(out, record.fitness.cost);
  out += ",\"c\":[";
  const auto costs = record.costs.as_array();
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (i > 0) out += ',';
    append_double(out, costs[i]);
  }
  out += "],\"iters\":";
  out += std::to_string(record.iterations);
  out += ",\"evals\":";
  out += std::to_string(record.evaluations);
  if (record.has_coverage) {
    out += ",\"cov\":[";
    out += std::to_string(record.faults_total);
    out += ',';
    out += std::to_string(record.faults_detected);
    out += ',';
    out += std::to_string(record.patterns_used);
    out += ',';
    out += std::to_string(record.patterns_minimized);
    out += ']';
  }
  out += ",\"modules\":[";
  for (std::size_t m = 0; m < record.modules.size(); ++m) {
    if (m > 0) out += ',';
    out += '[';
    for (std::size_t i = 0; i < record.modules[m].size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(record.modules[m][i]);
    }
    out += ']';
  }
  out += "]}";
  return out;
}

bool ResultCache::parse(std::string_view line, std::uint64_t& key,
                        CacheRecord& out) {
  JsonCursor cur(line);
  out = CacheRecord{};
  bool have_key = false;
  bool have_modules = false;
  if (!cur.consume('{')) return false;
  while (!cur.at_object_end()) {
    std::string field;
    if (!cur.parse_string(field) || !cur.consume(':')) return false;
    if (field == "key") {
      std::string hex;
      if (!cur.parse_string(hex)) return false;
      const auto [ptr, ec] =
          std::from_chars(hex.data(), hex.data() + hex.size(), key, 16);
      if (ec != std::errc{} || ptr != hex.data() + hex.size()) return false;
      have_key = true;
    } else if (field == "method") {
      if (!cur.parse_string(out.method)) return false;
    } else if (field == "gates") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(v)) return false;
      out.gate_count = static_cast<std::size_t>(v);
    } else if (field == "violation") {
      if (!cur.parse_double(out.fitness.violation)) return false;
    } else if (field == "cost") {
      if (!cur.parse_double(out.fitness.cost)) return false;
    } else if (field == "c") {
      if (!cur.consume('[')) return false;
      double* terms[] = {&out.costs.c1, &out.costs.c2, &out.costs.c3,
                         &out.costs.c4, &out.costs.c5};
      for (std::size_t i = 0; i < 5; ++i) {
        if (i > 0 && !cur.consume(',')) return false;
        if (!cur.parse_double(*terms[i])) return false;
      }
      if (!cur.consume(']')) return false;
    } else if (field == "iters") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(v)) return false;
      out.iterations = static_cast<std::size_t>(v);
    } else if (field == "evals") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(v)) return false;
      out.evaluations = static_cast<std::size_t>(v);
    } else if (field == "cov") {
      if (!cur.consume('[')) return false;
      std::size_t* terms[] = {&out.faults_total, &out.faults_detected,
                              &out.patterns_used, &out.patterns_minimized};
      for (std::size_t i = 0; i < 4; ++i) {
        if (i > 0 && !cur.consume(',')) return false;
        std::uint64_t v = 0;
        if (!cur.parse_u64(v)) return false;
        *terms[i] = static_cast<std::size_t>(v);
      }
      if (!cur.consume(']')) return false;
      out.has_coverage = true;
    } else if (field == "modules") {
      if (!cur.consume('[')) return false;
      while (!cur.peek(']')) {
        if (!out.modules.empty() && !cur.consume(',')) return false;
        if (!cur.consume('[')) return false;
        std::vector<netlist::GateId>& module = out.modules.emplace_back();
        while (!cur.peek(']')) {
          if (!module.empty() && !cur.consume(',')) return false;
          std::uint64_t v = 0;
          if (!cur.parse_u64(v)) return false;
          module.push_back(static_cast<netlist::GateId>(v));
        }
        if (!cur.consume(']')) return false;
      }
      if (!cur.consume(']')) return false;
      have_modules = true;
    } else {
      return false;  // unknown field: not one of our lines
    }
    if (!cur.consume(',')) break;
  }
  if (!cur.consume('}')) return false;
  return have_key && have_modules && !out.method.empty() &&
         out.gate_count > 0 && !out.modules.empty();
}

void ResultCache::attach_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw Error("result cache: cannot create directory '" + dir +
                "': " + ec.message());

  const std::scoped_lock lock(mutex_);
  file_path_ = (fs::path(dir) / "results.jsonl").string();
  // A crashed compaction leaves its temp file behind; the real file is
  // still intact (the rename never happened), so just sweep up the tmp.
  fs::remove(fs::path(file_path_ + ".compact.tmp"), ec);
  std::ifstream in(file_path_);
  std::string line;
  std::streamoff offset = in ? static_cast<std::streamoff>(in.tellg()) : 0;
  while (std::getline(in, line)) {
    // +1 for the newline getline consumed (the file is append-only with
    // '\n' after every line, so the arithmetic is exact).
    const std::streamoff line_offset = offset;
    offset += static_cast<std::streamoff>(line.size()) + 1;
    if (line.empty()) continue;
    std::uint64_t key = 0;
    CacheRecord record;
    if (parse(line, key, record)) {
      entries_[key] = std::move(record);
      offsets_[key] = line_offset;
      touch(key);
    } else {
      // Unparseable lines (truncated writes, foreign content) are skipped:
      // the entry degrades to a miss and is rewritten on the next store.
      // The count is kept so callers can surface the degradation.
      ++corrupt_lines_;
    }
  }
  if (!in.is_open()) {
    // Create the file now so a cache dir attached read-only fails here,
    // not in the middle of a sweep.
    std::ofstream create(file_path_, std::ios::app);
    if (!create)
      throw Error("result cache: cannot create '" + file_path_ + "'");
  }
  evict_over_cap();
}

void ResultCache::set_max_resident(std::size_t max_resident) {
  const std::scoped_lock lock(mutex_);
  max_resident_ = max_resident;
  evict_over_cap();
}

void ResultCache::set_idle_deadline(std::chrono::milliseconds idle) {
  const std::scoped_lock lock(mutex_);
  idle_deadline_ = idle;
  evict_idle();
}

void ResultCache::set_clock_for_test(
    std::function<std::chrono::steady_clock::time_point()> clock) {
  const std::scoped_lock lock(mutex_);
  clock_ = std::move(clock);
}

std::chrono::steady_clock::time_point ResultCache::now() const {
  return clock_ ? clock_() : std::chrono::steady_clock::now();
}

// Caller holds mutex_. Moves `key` to the front of the residency list.
void ResultCache::touch(std::uint64_t key) const {
  last_touch_[key] = now();
  const auto it = lru_pos_.find(key);
  if (it != lru_pos_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(key);
  lru_pos_[key] = lru_.begin();
}

// Caller holds mutex_. Drops least-recently-used records beyond the cap;
// their disk offsets keep them reloadable. A memory-only cache never
// evicts (the record IS the only copy).
void ResultCache::evict_over_cap() const {
  if (max_resident_ == 0 || file_path_.empty()) return;
  while (entries_.size() > max_resident_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    lru_pos_.erase(victim);
    entries_.erase(victim);
    last_touch_.erase(victim);
    ++evictions_;
  }
}

// Caller holds mutex_. Expires resident records untouched for the idle
// deadline. lru_ is recency-ordered, so the scan walks from the back and
// stops at the first survivor; like evict_over_cap, disk offsets keep the
// victims reloadable and a memory-only cache never evicts.
void ResultCache::evict_idle() const {
  if (idle_deadline_.count() <= 0 || file_path_.empty()) return;
  const auto cutoff = now() - idle_deadline_;
  while (!lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    const auto stamp = last_touch_.find(victim);
    if (stamp != last_touch_.end() && stamp->second > cutoff) break;
    lru_.pop_back();
    lru_pos_.erase(victim);
    entries_.erase(victim);
    last_touch_.erase(victim);
    ++evictions_;
    ++idle_evictions_;
  }
}

std::optional<CacheRecord> ResultCache::lookup(std::uint64_t key) const {
  const std::scoped_lock lock(mutex_);
  evict_idle();
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    touch(key);
    return it->second;
  }
  // Evicted but on disk: re-read exactly the last line written for the
  // key. serialize/parse round-trip bit-exactly, so the reloaded record
  // replays like the resident one did.
  const auto off = offsets_.find(key);
  if (off != offsets_.end()) {
    std::ifstream in(file_path_);
    std::string line;
    if (in) {
      in.seekg(off->second);
      if (std::getline(in, line)) {
        std::uint64_t parsed_key = 0;
        CacheRecord record;
        if (parse(line, parsed_key, record) && parsed_key == key) {
          ++hits_;
          ++disk_hits_;
          entries_[key] = record;
          touch(key);
          evict_over_cap();
          return record;
        }
      }
    }
  }
  ++misses_;
  return std::nullopt;
}

void ResultCache::store(std::uint64_t key, const CacheRecord& record) {
  const std::scoped_lock lock(mutex_);
  evict_idle();
  entries_[key] = record;
  touch(key);
  if (file_path_.empty()) return;
  // Fault-plan hook (docs/robustness.md): a scripted torn append writes a
  // strict prefix with no newline — the crash point between write() and
  // the terminator — and everything after it never reaches disk at all.
  // The offset map is left untouched for both, matching a real crash: no
  // survivor ever points at the garbage tail.
  auto fate = support::FaultPlan::AppendFate::kWrite;
  const support::FaultPlan* plan = support::FaultPlan::active();
  if (plan != nullptr) fate = plan->cache_append_fate();
  if (fate == support::FaultPlan::AppendFate::kDrop) return;
  std::ofstream out(file_path_, std::ios::app);
  if (!out)
    throw Error("result cache: cannot append to '" + file_path_ + "'");
  // The put position right after opening in append mode is implementation-
  // defined; an explicit seek-to-end pins the offset the line lands at.
  out.seekp(0, std::ios::end);
  if (fate == support::FaultPlan::AppendFate::kTear) {
    out << plan->torn_prefix(serialize(key, record));
    return;
  }
  offsets_[key] = static_cast<std::streamoff>(out.tellp());
  out << serialize(key, record) << '\n';
  evict_over_cap();
}

std::size_t ResultCache::size() const {
  const std::scoped_lock lock(mutex_);
  // offsets_ covers every key ever written while disk-backed (a superset
  // of the resident keys); memory-only caches have no offsets.
  return file_path_.empty() ? entries_.size() : offsets_.size();
}

std::size_t ResultCache::resident_size() const {
  const std::scoped_lock lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultCache::hits() const {
  const std::scoped_lock lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::disk_hits() const {
  const std::scoped_lock lock(mutex_);
  return disk_hits_;
}

std::uint64_t ResultCache::evictions() const {
  const std::scoped_lock lock(mutex_);
  return evictions_;
}

std::uint64_t ResultCache::idle_evictions() const {
  const std::scoped_lock lock(mutex_);
  return idle_evictions_;
}

std::uint64_t ResultCache::misses() const {
  const std::scoped_lock lock(mutex_);
  return misses_;
}

std::size_t ResultCache::corrupt_lines() const {
  const std::scoped_lock lock(mutex_);
  return corrupt_lines_;
}

namespace {

std::string cache_file_of(const std::string& dir) {
  return (std::filesystem::path(dir) / "results.jsonl").string();
}

/// Per-line scan shared by inspect and compact: key (when parseable), the
/// raw line, and its index among non-empty lines.
struct ScannedLine {
  std::uint64_t key = 0;
  bool parsed = false;
  std::string raw;
};

std::vector<ScannedLine> scan_cache_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("result cache: cannot open '" + path + "'");
  std::vector<ScannedLine> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ScannedLine scanned;
    CacheRecord record;
    scanned.parsed = ResultCache::parse(line, scanned.key, record);
    scanned.raw = std::move(line);
    lines.push_back(std::move(scanned));
  }
  return lines;
}

}  // namespace

CacheFileStats inspect_cache_file(const std::string& dir) {
  const auto lines = scan_cache_file(cache_file_of(dir));

  CacheFileStats stats;
  stats.total_lines = lines.size();
  // Last write per key wins (the lookup semantics of attach_dir).
  std::unordered_map<std::uint64_t, std::size_t> last_index;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].parsed) {
      ++stats.corrupt_lines;
      continue;
    }
    const auto [it, inserted] = last_index.insert_or_assign(lines[i].key, i);
    (void)it;
    if (!inserted) ++stats.duplicate_lines;
  }
  stats.unique_keys = last_index.size();
  for (const auto& [key, index] : last_index) {
    (void)key;
    // Age 1 = the file's last line. Bucket by floor(log2(age)).
    const std::size_t age = lines.size() - index;
    std::size_t bucket = 0;
    while ((std::size_t{2} << bucket) <= age) ++bucket;
    if (stats.age_histogram.size() <= bucket)
      stats.age_histogram.resize(bucket + 1, 0);
    ++stats.age_histogram[bucket];
  }
  return stats;
}

CacheCompaction compact_cache_file(const std::string& dir) {
  const std::string path = cache_file_of(dir);
  const auto lines = scan_cache_file(path);

  CacheCompaction result;
  std::unordered_map<std::uint64_t, std::size_t> last_index;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].parsed) {
      ++result.dropped_corrupt;
      continue;
    }
    const auto [it, inserted] = last_index.insert_or_assign(lines[i].key, i);
    (void)it;
    if (!inserted) ++result.dropped_duplicates;
  }

  // Keep the surviving lines in their original (last-write) file order so
  // a compacted file replays identically, then swap in atomically.
  const std::string tmp_path = path + ".compact.tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out)
      throw Error("result cache: cannot write '" + tmp_path + "'");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!lines[i].parsed || last_index.at(lines[i].key) != i) continue;
      out << lines[i].raw << '\n';
      ++result.kept;
    }
    if (!out)
      throw Error("result cache: write to '" + tmp_path + "' failed");
  }
  detail::replace_file(tmp_path, path);
  return result;
}

namespace detail {

void replace_file(const std::string& from, const std::string& to,
                  bool force_copy) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!force_copy) {
    fs::rename(from, to, ec);
    if (!ec) return;
  }
  // rename() cannot cross filesystems (EXDEV: cache dir on one mount,
  // tmp on another) — fall back to copy+remove. Not atomic, but the copy
  // lands fully before the source is dropped, and a torn copy is exactly
  // the corrupt-tail case attach_dir already recovers from.
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  if (ec)
    throw Error("result cache: cannot replace '" + to + "': " + ec.message());
  fs::remove(from, ec);  // best-effort; a stale tmp is swept on next open
}

}  // namespace detail

std::uint64_t cache_context_fingerprint(std::uint64_t netlist_fp,
                                        std::uint64_t library_fp,
                                        const elec::SensorSpec& sensor,
                                        const part::CostWeights& weights,
                                        std::uint32_t rho,
                                        const OptimizerConfig& optimizers,
                                        const CoverageOptions& coverage) {
  Hash64 h;
  // Format/semantics version: bump to flush every old key at once.
  // v2: tabu candidates score on pristine evaluator copies (no
  // move+revert floating-point residue), so v1 tabu rows no longer
  // match a fresh computation.
  // v3: the greedy refiner scores trials with the copy-free probe and no
  // longer replays the move+revert residue of rejected trials (the
  // residue-free trajectory is what lets its candidate scan parallelize
  // byte-identically), so v2 greedy-family rows no longer match a fresh
  // computation. Evolution/standard/annealing/tabu trajectories are
  // unchanged — only the salt retires their old keys.
  // v4: records may carry measured-coverage counters ("cov") and the
  // fingerprint mixes the CoverageOptions below. v3 files would parse,
  // but a coverage-bearing row must never replay from an entry that was
  // stored without coverage — the salt retires every v3 key wholesale.
  h.mix_string("iddq-result-cache-v4");
  h.mix_u64(netlist_fp);
  h.mix_u64(library_fp);

  h.mix_double(sensor.r_max_mv);
  h.mix_double(sensor.a0_area);
  h.mix_double(sensor.a1_area_kohm);
  h.mix_double(sensor.rs_cap_kohm);
  h.mix_double(sensor.c_sensor_ff);
  h.mix_double(sensor.t_detect_ps);
  h.mix_double(sensor.iddq_th_ua);
  h.mix_double(sensor.d_min);

  h.mix_double(weights.a1);
  h.mix_double(weights.a2);
  h.mix_double(weights.a3);
  h.mix_double(weights.a4);
  h.mix_double(weights.a5);
  h.mix_u64(rho);

  // Optimizer tuning knobs: every field of OptimizerConfig. The seed and
  // the other per-run inputs live in the request (cache_key).
  const EsParams& es = optimizers.es;
  h.mix_size(es.mu);
  h.mix_size(es.lambda);
  h.mix_size(es.chi);
  h.mix_size(es.kappa);
  h.mix_u64(es.m0);
  h.mix_u64(es.m_max);
  h.mix_double(es.epsilon);
  h.mix_size(es.max_generations);
  h.mix_size(es.stall_generations);

  const SaParams& sa = optimizers.sa;
  h.mix_size(sa.steps);
  h.mix_double(sa.initial_acceptance);
  h.mix_double(sa.cooling);
  h.mix_size(sa.stage_length);
  h.mix_double(sa.violation_penalty);

  const TabuParams& tabu = optimizers.tabu;
  h.mix_size(tabu.iterations);
  h.mix_size(tabu.candidates);
  h.mix_size(tabu.tenure);
  h.mix_size(tabu.stall_iterations);
  h.mix_double(tabu.violation_penalty);

  h.mix_size(optimizers.force_passes);
  h.mix_size(optimizers.random_samples);
  h.mix_size(optimizers.greedy_max_evaluations);

  // Coverage grading config: a coverage-enabled engine must never share
  // keys with a coverage-off engine (or with one grading under a different
  // fault model / suite), because the stored records differ.
  h.mix_byte(coverage.enabled ? 1 : 0);
  if (coverage.enabled) {
    h.mix_string(coverage.fault_model);
    h.mix_size(coverage.patterns);
    h.mix_byte(coverage.minimize ? 1 : 0);
    h.mix_u64(coverage.seed);
  }
  return h.value();
}

std::uint64_t cache_key(std::uint64_t context_fp,
                        std::string_view method_spec, std::uint64_t seed,
                        std::size_t max_evaluations,
                        const part::Partition* start) {
  Hash64 h;
  h.mix_u64(context_fp);
  h.mix_string(method_spec);
  h.mix_u64(seed);
  h.mix_size(max_evaluations);
  if (start == nullptr) {
    h.mix_byte(0);
  } else {
    h.mix_byte(1);
    h.mix_size(start->gate_count());
    h.mix_size(start->module_count());
    for (std::uint32_t m = 0; m < start->module_count(); ++m) {
      const auto gates = start->module(m);
      h.mix_size(gates.size());
      for (const netlist::GateId g : gates) h.mix_u64(g);
    }
  }
  return h.value();
}

}  // namespace iddq::core
