#include "cluster/row_merger.hpp"

#include <utility>

namespace iddq::cluster {

using json::JsonWriter;

RowMerger::RowMerger(std::string sweep_id, std::vector<std::string> circuits)
    : sweep_id_(std::move(sweep_id)),
      circuits_(std::move(circuits)),
      shards_(circuits_.size()) {}

std::string RowMerger::rewrite(std::string_view raw_line,
                               std::string_view kind,
                               std::string_view circuit,
                               std::size_t shard) const {
  // Backend job events open with a fixed envelope (core/job_protocol.cpp,
  // event_json): {"event":K,"id":I,"circuit":C,"job":N, <payload>}. Splice
  // a fresh envelope onto the payload, whose bytes — all the doubles —
  // must not be touched.
  const std::size_t job_key = raw_line.find(",\"job\":");
  std::size_t payload = std::string_view::npos;
  if (job_key != std::string_view::npos) {
    payload = job_key + 7;
    while (payload < raw_line.size() && raw_line[payload] >= '0' &&
           raw_line[payload] <= '9')
      ++payload;
  }
  std::string out = "{\"event\":";
  json::append_json_quoted(out, kind);
  out += ",\"id\":";
  json::append_json_quoted(out, sweep_id_);
  out += ",\"circuit\":";
  json::append_json_quoted(out, circuit);
  out += ",\"job\":";
  out += std::to_string(shard + 1);
  if (payload != std::string_view::npos)
    out.append(raw_line.substr(payload));
  else
    out += '}';  // envelope-only event from a nonconforming emitter
  return out;
}

RowMerger::Forward RowMerger::forward(std::size_t shard,
                                      const json::JsonValue& event,
                                      std::string_view raw_line) {
  const std::string kind = event.get_string("event");
  const std::string circuit = event.get_string("circuit");
  Forward result;
  const std::scoped_lock lock(mutex_);
  ShardState& state = shards_[shard];
  if (state.terminal) return result;  // stale events after failover
  if (kind == "queued" || kind == "running") {
    // A retried shard re-announces on its new backend; the client already
    // saw this lifecycle step, so only the first attempt's copy forwards.
    if (state.attempt == 0)
      result.line = rewrite(raw_line, kind, circuit, shard);
    return result;
  }
  if (kind == "progress") {
    result.line = rewrite(raw_line, kind, circuit, shard);
    result.droppable = true;
    return result;
  }
  if (kind == "row") {
    // Retried shards reproduce byte-identical rows (seeds are data); each
    // row index reaches the client exactly once.
    if (state.rows_forwarded.insert(event.get_u64("index")).second)
      result.line = rewrite(raw_line, kind, circuit, shard);
    return result;
  }
  if (kind == "done" || kind == "failed" || kind == "cancelled") {
    state.terminal = true;
    ++terminal_count_;
    if (kind == "done") ++ok_;
    if (kind == "failed") ++failed_;
    if (kind == "cancelled") ++cancelled_;
    result.line = rewrite(raw_line, kind, circuit, shard);
    result.became_terminal = true;
    return result;
  }
  // accepted / sweep_done / anything session-level from the backend is
  // cluster bookkeeping, never the client's business.
  return result;
}

void RowMerger::reopen(std::size_t shard) {
  const std::scoped_lock lock(mutex_);
  ++shards_[shard].attempt;
}

std::string RowMerger::synth_terminal(std::size_t shard, const char* kind,
                                      const std::string* error) {
  const std::scoped_lock lock(mutex_);
  ShardState& state = shards_[shard];
  if (state.terminal) return "";
  state.terminal = true;
  ++terminal_count_;
  JsonWriter w;
  w.field("event", kind)
      .field("id", sweep_id_)
      .field("circuit", circuits_[shard])
      .field("job", static_cast<std::uint64_t>(shard + 1));
  if (error != nullptr) {
    ++failed_;
    w.field("error", *error);
  } else {
    ++cancelled_;
  }
  return std::move(w).str();
}

std::string RowMerger::fail_shard(std::size_t shard,
                                  const std::string& error) {
  return synth_terminal(shard, "failed", &error);
}

std::string RowMerger::cancel_shard(std::size_t shard) {
  return synth_terminal(shard, "cancelled", nullptr);
}

bool RowMerger::shard_terminal(std::size_t shard) const {
  const std::scoped_lock lock(mutex_);
  return shards_[shard].terminal;
}

std::size_t RowMerger::open_shards() const {
  const std::scoped_lock lock(mutex_);
  return shards_.size() - terminal_count_;
}

std::optional<std::string> RowMerger::take_sweep_done() {
  const std::scoped_lock lock(mutex_);
  if (sweep_done_taken_ || terminal_count_ != shards_.size())
    return std::nullopt;
  sweep_done_taken_ = true;
  return JsonWriter()
      .field("event", "sweep_done")
      .field("id", sweep_id_)
      .field("ok", ok_)
      .field("failed", failed_)
      .field("cancelled", cancelled_)
      .str();
}

}  // namespace iddq::cluster
