// Merges per-backend event streams into one client session stream
// (docs/cluster.md, "Determinism contract").
//
// Every shard of a cluster sweep runs as a width-1 submit on some backend;
// the merger maps each backend event back to its shard and rewrites ONLY
// the two placement-dependent envelope fields — the backend-local sweep
// "id" becomes the client's, the backend-local "job" number becomes
// shard+1 (the number a single direct server would have assigned). The
// payload bytes after "job" are forwarded untouched, so row doubles keep
// the exact 17-significant-digit text the backend emitted and the merged
// stream stays byte-identical to a single-server run.
//
// Failover bookkeeping rides on the same object: after reopen(shard) a
// retried shard's repeated queued/running lifecycle is suppressed and its
// rows dedupe by "index", so a shard that died after streaming some rows
// resumes without duplicating them (the retried run reproduces identical
// bytes — seeds are shipped data). Terminal accounting feeds the single
// sweep_done the merger emits once every shard is terminal.
//
// Thread-safe: backend reader threads call forward() concurrently.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace iddq::cluster {

class RowMerger {
 public:
  RowMerger(std::string sweep_id, std::vector<std::string> circuits);

  struct Forward {
    /// Rewritten line to emit, or nullopt to suppress (duplicate row,
    /// repeated lifecycle on retry, backend bookkeeping).
    std::optional<std::string> line;
    /// This event moved the shard to a terminal state.
    bool became_terminal = false;
    /// The forwarded line is a progress tick (droppable delivery class).
    bool droppable = false;
  };

  /// Processes one backend job event already attributed to `shard`.
  [[nodiscard]] Forward forward(std::size_t shard,
                                const json::JsonValue& event,
                                std::string_view raw_line);

  /// Marks `shard` as retried after its backend died: subsequent
  /// queued/running events are suppressed and rows keep deduping.
  void reopen(std::size_t shard);

  /// Synthesizes the failed terminal for a shard whose retries are
  /// exhausted. Returns the event line to emit ("" when already terminal).
  [[nodiscard]] std::string fail_shard(std::size_t shard,
                                       const std::string& error);

  /// Synthesizes the cancelled terminal for a shard cancelled before it
  /// could be (re)dispatched. Returns "" when already terminal.
  [[nodiscard]] std::string cancel_shard(std::size_t shard);

  [[nodiscard]] bool shard_terminal(std::size_t shard) const;
  /// Shards not yet terminal.
  [[nodiscard]] std::size_t open_shards() const;

  /// The sweep_done line, exactly once, after the last shard turned
  /// terminal; nullopt before that (or on every later call).
  [[nodiscard]] std::optional<std::string> take_sweep_done();

  [[nodiscard]] const std::string& circuit(std::size_t shard) const {
    return circuits_[shard];
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return circuits_.size();
  }

 private:
  struct ShardState {
    std::set<std::uint64_t> rows_forwarded;  // deduped by row "index"
    std::size_t attempt = 0;                 // reopen() count
    bool terminal = false;
  };

  /// Rebuilds the envelope prefix (event/id/circuit/job) around the
  /// payload bytes of `raw_line`, which start right after the "job"
  /// number and are copied verbatim.
  [[nodiscard]] std::string rewrite(std::string_view raw_line,
                                    std::string_view kind,
                                    std::string_view circuit,
                                    std::size_t shard) const;
  [[nodiscard]] std::string synth_terminal(std::size_t shard,
                                           const char* kind,
                                           const std::string* error);

  std::string sweep_id_;
  std::vector<std::string> circuits_;

  mutable std::mutex mutex_;
  std::vector<ShardState> shards_;
  std::size_t terminal_count_ = 0;
  std::size_t ok_ = 0;
  std::size_t failed_ = 0;
  std::size_t cancelled_ = 0;
  bool sweep_done_taken_ = false;
};

}  // namespace iddq::cluster
