// RowMerger is the byte-identity half of the determinism contract
// (row_merger.hpp): envelope fields are rewritten, payload bytes are
// forwarded untouched, and failover replays collapse to exactly one copy
// of every row and lifecycle step.
#include "cluster/row_merger.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "support/json.hpp"

namespace iddq::cluster {
namespace {

/// Parses `raw` (a backend event line) and forwards it for `shard`.
RowMerger::Forward feed(RowMerger& merger, std::size_t shard,
                        const std::string& raw) {
  const auto event = json::JsonValue::parse(raw);
  EXPECT_TRUE(event.has_value()) << raw;
  return merger.forward(shard, *event, raw);
}

TEST(RowMerger, RewritesEnvelopeAndForwardsPayloadBytesVerbatim) {
  RowMerger merger("sweep", {"ca", "cb"});
  // The payload carries 17-significant-digit doubles; the merger must not
  // re-serialize them. Backend ran shard 1 ("cb") as its width-1 job 1
  // under its local submit id "cx-7".
  const std::string payload =
      R"(,"index":0,"method":"evolution","cost":0.12345678901234566,)"
      R"("sensor_area":173.25000000000003})";
  const auto fwd = feed(merger, 1,
                        R"({"event":"row","id":"cx-7","circuit":"cb",)"
                        R"("job":1)" + payload);
  ASSERT_TRUE(fwd.line.has_value());
  EXPECT_EQ(*fwd.line, R"({"event":"row","id":"sweep","circuit":"cb",)"
                       R"("job":2)" + payload);
  EXPECT_FALSE(fwd.became_terminal);
  EXPECT_FALSE(fwd.droppable);
}

TEST(RowMerger, ProgressForwardsAsDroppable) {
  RowMerger merger("s", {"ca"});
  const auto fwd = feed(merger, 0,
                        R"({"event":"progress","id":"cx-0","circuit":"ca",)"
                        R"("job":1,"generation":5})");
  ASSERT_TRUE(fwd.line.has_value());
  EXPECT_TRUE(fwd.droppable);
  EXPECT_EQ(*fwd.line, R"({"event":"progress","id":"s","circuit":"ca",)"
                       R"("job":1,"generation":5})");
}

TEST(RowMerger, RetryLifecycleIsSuppressedAndRowsDedupe) {
  // A shard dies after streaming row 0; the retry re-announces
  // queued/running and re-streams row 0 before producing row 1. The
  // client must see each lifecycle step and each row exactly once.
  RowMerger merger("s", {"ca"});
  EXPECT_TRUE(feed(merger, 0, R"({"event":"queued","id":"cx-0",)"
                              R"("circuit":"ca","job":1})")
                  .line.has_value());
  EXPECT_TRUE(feed(merger, 0, R"({"event":"running","id":"cx-0",)"
                              R"("circuit":"ca","job":1})")
                  .line.has_value());
  EXPECT_TRUE(feed(merger, 0, R"({"event":"row","id":"cx-0","circuit":"ca",)"
                              R"("job":1,"index":0,"cost":1.5})")
                  .line.has_value());

  merger.reopen(0);  // backend died; shard redispatched

  EXPECT_FALSE(feed(merger, 0, R"({"event":"queued","id":"cx-1",)"
                               R"("circuit":"ca","job":1})")
                   .line.has_value());
  EXPECT_FALSE(feed(merger, 0, R"({"event":"running","id":"cx-1",)"
                               R"("circuit":"ca","job":1})")
                   .line.has_value());
  EXPECT_FALSE(feed(merger, 0, R"({"event":"row","id":"cx-1","circuit":"ca",)"
                               R"("job":1,"index":0,"cost":1.5})")
                   .line.has_value())
      << "replayed row 0 must dedupe";
  const auto row1 = feed(merger, 0,
                         R"({"event":"row","id":"cx-1","circuit":"ca",)"
                         R"("job":1,"index":1,"cost":2.5})");
  ASSERT_TRUE(row1.line.has_value());

  const auto done = feed(merger, 0, R"({"event":"done","id":"cx-1",)"
                                    R"("circuit":"ca","job":1,"rows":2})");
  ASSERT_TRUE(done.line.has_value());
  EXPECT_TRUE(done.became_terminal);
  EXPECT_TRUE(merger.shard_terminal(0));
  EXPECT_EQ(merger.open_shards(), 0u);

  const auto sweep_done = merger.take_sweep_done();
  ASSERT_TRUE(sweep_done.has_value());
  EXPECT_EQ(*sweep_done, R"({"event":"sweep_done","id":"s","ok":1,)"
                         R"("failed":0,"cancelled":0})");
  EXPECT_FALSE(merger.take_sweep_done().has_value()) << "exactly once";
}

TEST(RowMerger, StaleEventsAfterTerminalAreDropped) {
  // A slow first backend may still flush events after the retry already
  // finished the shard elsewhere; nothing of that may leak.
  RowMerger merger("s", {"ca"});
  EXPECT_TRUE(feed(merger, 0, R"({"event":"done","id":"cx-0",)"
                              R"("circuit":"ca","job":1,"rows":0})")
                  .became_terminal);
  const auto stale = feed(merger, 0,
                          R"({"event":"row","id":"cx-0","circuit":"ca",)"
                          R"("job":1,"index":0,"cost":1.0})");
  EXPECT_FALSE(stale.line.has_value());
  EXPECT_FALSE(stale.became_terminal);
}

TEST(RowMerger, BackendBookkeepingNeverForwards) {
  RowMerger merger("s", {"ca"});
  EXPECT_FALSE(feed(merger, 0, R"({"event":"accepted","id":"cx-0",)"
                               R"("jobs":1})")
                   .line.has_value());
  EXPECT_FALSE(feed(merger, 0, R"({"event":"sweep_done","id":"cx-0",)"
                               R"("ok":1,"failed":0,"cancelled":0})")
                   .line.has_value());
  EXPECT_FALSE(merger.shard_terminal(0))
      << "the backend's sweep_done is not the shard's terminal";
}

TEST(RowMerger, FailShardSynthesizesTerminalOnce) {
  RowMerger merger("s", {"ca", "cb"});
  const std::string failed =
      merger.fail_shard(0, "no reachable backend after 3 attempts");
  EXPECT_EQ(failed, R"({"event":"failed","id":"s","circuit":"ca","job":1,)"
                    R"("error":"no reachable backend after 3 attempts"})");
  EXPECT_EQ(merger.fail_shard(0, "again"), "");  // already terminal
  EXPECT_NE(merger.open_shards(), 0u);

  const std::string cancelled = merger.cancel_shard(1);
  EXPECT_EQ(cancelled,
            R"({"event":"cancelled","id":"s","circuit":"cb","job":2})");
  EXPECT_EQ(merger.open_shards(), 0u);
  const auto sweep_done = merger.take_sweep_done();
  ASSERT_TRUE(sweep_done.has_value());
  EXPECT_EQ(*sweep_done, R"({"event":"sweep_done","id":"s","ok":0,)"
                         R"("failed":1,"cancelled":1})");
}

TEST(RowMerger, LateStaleTerminalAfterSuccessorCompletionIsSuppressed) {
  // The chaos-leg shape (docs/robustness.md): the first backend stalls
  // mid-shard, the retry finishes the shard on a successor, and THEN the
  // stalled backend's buffered terminal finally flushes. That stale
  // terminal must neither forward nor double-count the shard.
  RowMerger merger("s", {"ca"});
  EXPECT_TRUE(feed(merger, 0, R"({"event":"running","id":"cx-0",)"
                              R"("circuit":"ca","job":1})")
                  .line.has_value());
  merger.reopen(0);  // presumed dead; shard redispatched

  EXPECT_TRUE(feed(merger, 0, R"({"event":"row","id":"cx-1","circuit":"ca",)"
                              R"("job":1,"index":0,"cost":1.5})")
                  .line.has_value());
  EXPECT_TRUE(feed(merger, 0, R"({"event":"done","id":"cx-1",)"
                              R"("circuit":"ca","job":1,"rows":1})")
                  .became_terminal);

  // The stalled first attempt wakes up and flushes its own ending.
  const auto stale_failed =
      feed(merger, 0, R"({"event":"failed","id":"cx-0","circuit":"ca",)"
                      R"("job":1,"error":"connection torn down"})");
  EXPECT_FALSE(stale_failed.line.has_value());
  EXPECT_FALSE(stale_failed.became_terminal);
  const auto stale_row =
      feed(merger, 0, R"({"event":"row","id":"cx-0","circuit":"ca",)"
                      R"("job":1,"index":0,"cost":1.5})");
  EXPECT_FALSE(stale_row.line.has_value());

  // The sweep verdict reflects only the successor's outcome.
  const auto sweep_done = merger.take_sweep_done();
  ASSERT_TRUE(sweep_done.has_value());
  EXPECT_EQ(*sweep_done, R"({"event":"sweep_done","id":"s","ok":1,)"
                         R"("failed":0,"cancelled":0})");
}

TEST(RowMerger, SecondFailedForTheSameShardCountsOnce) {
  // Two backends can both end up failing the same shard (the retry's
  // target dies too, or a stale failure races the synthesized one); the
  // client must see one failed terminal and a failed:1 verdict.
  RowMerger merger("s", {"ca"});
  const auto first =
      feed(merger, 0, R"({"event":"failed","id":"cx-0","circuit":"ca",)"
                      R"("job":1,"error":"loader exploded"})");
  ASSERT_TRUE(first.line.has_value());
  EXPECT_TRUE(first.became_terminal);

  const auto second =
      feed(merger, 0, R"({"event":"failed","id":"cx-1","circuit":"ca",)"
                      R"("job":1,"error":"loader exploded again"})");
  EXPECT_FALSE(second.line.has_value());
  EXPECT_FALSE(second.became_terminal);
  EXPECT_EQ(merger.fail_shard(0, "synthesized too"), "");

  EXPECT_EQ(merger.open_shards(), 0u);
  const auto sweep_done = merger.take_sweep_done();
  ASSERT_TRUE(sweep_done.has_value());
  EXPECT_EQ(*sweep_done, R"({"event":"sweep_done","id":"s","ok":0,)"
                         R"("failed":1,"cancelled":0})");
}

}  // namespace
}  // namespace iddq::cluster
