// Group-commit tests: the GroupCommitter batching/durability state machine
// in isolation, and its integration in the data-source prepare path —
// batched prepares share one fsync, no waiter is acked before the shared
// flush completes, and a crash loses exactly the open batch.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/wire.h"
#include "runtime/runtime.h"
#include "sim/event_loop.h"
#include "sim_fixture.h"
#include "storage/group_commit.h"

namespace geotp {
namespace {

using storage::GroupCommitConfig;
using storage::GroupCommitter;
using testing_support::MiniCluster;

TEST(GroupCommitterTest, SameTickAppendsShareOneFsync) {
  sim::EventLoop loop;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, GroupCommitConfig());
  std::vector<Micros> done_at;
  for (int i = 0; i < 5; ++i) {
    committer.Append(2000, [&]() { done_at.push_back(loop.Now()); });
  }
  loop.Run();
  ASSERT_EQ(done_at.size(), 5u);
  for (Micros at : done_at) EXPECT_EQ(at, 2000);
  EXPECT_EQ(committer.stats().fsyncs, 1u);
  EXPECT_EQ(committer.stats().entries, 5u);
  EXPECT_EQ(committer.stats().max_batch_entries, 5u);
}

TEST(GroupCommitterTest, FlushDurationIsMaxOfBatchCosts) {
  sim::EventLoop loop;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, GroupCommitConfig());
  Micros cheap_done = 0;
  committer.Append(1000, [&]() { cheap_done = loop.Now(); });
  committer.Append(2200, [&]() {});
  loop.Run();
  // The cheap commit record waits for the batch's slowest entry.
  EXPECT_EQ(cheap_done, 2200);
  EXPECT_EQ(committer.stats().fsyncs, 1u);
}

TEST(GroupCommitterTest, BatchDelayWindowAccumulatesLateArrivals) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 500;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, config);
  std::vector<Micros> done_at;
  committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  // Arrives inside the 500us window: joins the same batch.
  loop.Schedule(300, [&]() {
    committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  });
  loop.Run();
  ASSERT_EQ(done_at.size(), 2u);
  // Window closes at 500, flush takes 1000: both durable at 1500.
  EXPECT_EQ(done_at[0], 1500);
  EXPECT_EQ(done_at[1], 1500);
  EXPECT_EQ(committer.stats().fsyncs, 1u);
}

TEST(GroupCommitterTest, FullBatchFlushesBeforeDelayExpires) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 10000;
  config.max_batch_size = 3;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, config);
  std::vector<Micros> done_at;
  for (int i = 0; i < 3; ++i) {
    committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  }
  loop.Run();
  ASSERT_EQ(done_at.size(), 3u);
  for (Micros at : done_at) EXPECT_EQ(at, 1000);  // not 11000
}

TEST(GroupCommitterTest, SerialDeviceQueuesNextBatchBehindInFlightFlush) {
  sim::EventLoop loop;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, GroupCommitConfig());
  std::vector<Micros> done_at;
  committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  // Arrives while the first flush occupies the device: next batch.
  loop.Schedule(400, [&]() {
    committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  });
  loop.Run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], 1000);
  EXPECT_EQ(done_at[1], 2000);  // device freed at 1000, +1000 flush
  EXPECT_EQ(committer.stats().fsyncs, 2u);
}

TEST(GroupCommitterTest, BusyDeviceBacklogDrainsInMaxBatchSizeChunks) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_size = 2;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, config);
  std::vector<Micros> done_at;
  committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
  // Five entries arrive while the first flush occupies the device: they
  // drain behind it in ceil(5/2) = 3 batches, not one oversized flush.
  loop.Schedule(500, [&]() {
    for (int i = 0; i < 5; ++i) {
      committer.Append(1000, [&]() { done_at.push_back(loop.Now()); });
    }
  });
  loop.Run();
  ASSERT_EQ(done_at.size(), 6u);
  EXPECT_EQ(done_at[0], 1000);
  EXPECT_EQ(done_at[5], 4000);  // three further serial flushes
  EXPECT_EQ(committer.stats().fsyncs, 4u);
  EXPECT_EQ(committer.stats().max_batch_entries, 2u);
}

TEST(GroupCommitterTest, ResetDropsOpenBatchAndInFlightFlush) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 500;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, config);
  int fired = 0;
  committer.Append(1000, [&]() { fired++; });
  loop.Schedule(100, [&]() { committer.Reset(); });  // crash mid-window
  loop.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(committer.stats().fsyncs, 0u);
  // The committer keeps working after the crash.
  committer.Append(1000, [&]() { fired++; });
  loop.Run();
  EXPECT_EQ(fired, 1);
}

TEST(GroupCommitterTest, DurableCallbacksRunInAppendOrder) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_size = 2;
  runtime::SimStableStorage device(&loop);
  GroupCommitter committer(&loop, &device, config);
  std::vector<int> order;
  std::vector<Micros> done_at;
  // A PREPARE-sized record, then records that would flush faster alone.
  const Micros costs[] = {2000, 1000, 1500, 1000};
  for (int i = 0; i < 4; ++i) {
    committer.Append(costs[i], [&, i]() {
      order.push_back(i);
      done_at.push_back(loop.Now());
    });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // Two batches of two on the serial device.
  EXPECT_EQ(done_at, (std::vector<Micros>{2000, 2000, 3500, 3500}));
}

// ---------------------------------------------------------------------------
// Flush-start hook and device-time counters
// ---------------------------------------------------------------------------

/// Log device whose flushes take scripted times (the cost hint is
/// ignored, as a real disk would) and log "flush" to `events`.
class ScriptedDevice : public runtime::IStableStorage {
 public:
  ScriptedDevice(sim::EventLoop* loop, std::vector<Micros> durations,
                 std::vector<std::string>* events)
      : loop_(loop), durations_(std::move(durations)), events_(events) {}

  void Flush(std::string batch, Micros /*cost_hint*/,
             std::function<void()> done) override {
    events_->push_back("flush");
    bytes_ += batch.size();
    const Micros duration = durations_[flushes_started_++ % durations_.size()];
    loop_->Schedule(duration, [this, done = std::move(done)]() {
      ++fsyncs_;
      done();
    });
  }
  uint64_t fsyncs() const override { return fsyncs_; }
  uint64_t bytes_flushed() const override { return bytes_; }

 private:
  sim::EventLoop* loop_;
  std::vector<Micros> durations_;
  std::vector<std::string>* events_;
  size_t flushes_started_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t bytes_ = 0;
};

/// Logs "start <tag>" for every entry the hook reports.
void LogFlushStarts(GroupCommitter* committer,
                    std::vector<std::string>* events) {
  committer->set_on_flush_start([events](uint64_t tag) {
    events->push_back("start " + std::to_string(tag));
  });
}

// A log record is its type byte and xid through the one serializer: 13
// bytes, no formatted text.
TEST(GroupCommitterTest, LogRecordsPackTheirTypeAndXid) {
  const storage::LogRecord record{storage::LogRecordType::kCommit,
                                  Xid{77, 3}};
  const std::string bytes = wire::Pack(record);
  EXPECT_EQ(bytes.size(), 13u);
  storage::LogRecord back;
  ASSERT_TRUE(wire::Unpack(bytes, &back));
  EXPECT_EQ(back.type, record.type);
  EXPECT_EQ(back.xid, record.xid);
}

TEST(GroupCommitterTest, FlushStartHookReportsEachEntryBeforeTheFlush) {
  sim::EventLoop loop;
  std::vector<std::string> events;
  ScriptedDevice device(&loop, {1000}, &events);
  GroupCommitter committer(&loop, &device, GroupCommitConfig());
  LogFlushStarts(&committer, &events);
  for (uint64_t tag = 1; tag <= 3; ++tag) {
    committer.Append(
        1000, "x", [&events]() { events.push_back("durable"); }, tag);
  }
  // Nothing is reported while the batch is open.
  EXPECT_TRUE(events.empty());
  loop.Run();
  EXPECT_EQ(events,
            (std::vector<std::string>{"start 1", "start 2", "start 3",
                                      "flush", "durable", "durable",
                                      "durable"}));
}

TEST(GroupCommitterTest, FlushStartHookFollowsBacklogSplits) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_size = 2;
  std::vector<std::string> events;
  ScriptedDevice device(&loop, {1000}, &events);
  GroupCommitter committer(&loop, &device, config);
  LogFlushStarts(&committer, &events);
  committer.Append(1000, "x", []() {}, 1);
  // Five entries queue behind the busy device and drain two per flush;
  // each flush's entries are reported just before it, in append order.
  loop.Schedule(500, [&]() {
    for (uint64_t tag = 2; tag <= 6; ++tag) {
      committer.Append(1000, "x", []() {}, tag);
    }
  });
  loop.Run();
  EXPECT_EQ(events, (std::vector<std::string>{
                        "start 1", "flush", "start 2", "start 3", "flush",
                        "start 4", "start 5", "flush", "start 6", "flush"}));
}

TEST(GroupCommitterTest, FlushStartHookNeverSeesEntriesResetDropped) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 500;
  std::vector<std::string> events;
  ScriptedDevice device(&loop, {1000}, &events);
  GroupCommitter committer(&loop, &device, config);
  LogFlushStarts(&committer, &events);
  // Entry 1 flushes at 500; entry 2 waits behind it; entry 3 opens a
  // window that the crash at 800 closes. Only entry 1 ever started.
  committer.Append(1000, "x", []() {}, 1);
  loop.Schedule(600, [&]() {
    committer.Append(1000, "x", []() {}, 2);
  });
  loop.Schedule(700, [&]() {
    committer.Append(1000, "x", []() {}, 3);
  });
  loop.Schedule(800, [&]() { committer.Reset(); });
  loop.Run();
  EXPECT_EQ(events, (std::vector<std::string>{"start 1", "flush"}));
  // After the crash the hook reports new entries again.
  committer.Append(1000, "x", []() {}, 4);
  loop.Run();
  EXPECT_EQ(events, (std::vector<std::string>{"start 1", "flush", "start 4",
                                              "flush"}));
}

TEST(GroupCommitterTest, OldestTagsFollowTheBatchThroughTheDevice) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 500;
  std::vector<std::string> events;
  ScriptedDevice device(&loop, {1000}, &events);
  GroupCommitter committer(&loop, &device, config);
  EXPECT_EQ(committer.OldestPendingTag(), 0u);
  // An untagged entry counts for neither query.
  committer.Append(1000, "x", []() {}, 4);
  committer.Append(1000, "x", []() {}, 0);
  committer.Append(1000, "x", []() {}, 5);
  EXPECT_EQ(committer.OldestUnstartedTag(), 4u);
  EXPECT_EQ(committer.OldestPendingTag(), 4u);
  std::vector<std::pair<uint64_t, uint64_t>> seen;  // {unstarted, pending}
  const auto sample = [&]() {
    seen.emplace_back(committer.OldestUnstartedTag(),
                      committer.OldestPendingTag());
  };
  loop.Schedule(600, [&]() {
    sample();  // the batch is on the device (500-1500)
    committer.Append(1000, "x", []() {}, 6);  // waits for the device
    sample();
  });
  loop.Schedule(1600, sample);  // 6 started at 1500
  loop.Schedule(2600, sample);  // everything durable
  loop.Run();
  EXPECT_EQ(seen, (std::vector<std::pair<uint64_t, uint64_t>>{
                      {0, 4}, {6, 4}, {0, 6}, {0, 0}}));
}

TEST(GroupCommitterTest, CountsDeviceBusyTimeAndQueueWait) {
  sim::EventLoop loop;
  GroupCommitConfig config;
  config.max_batch_delay = 200;
  std::vector<std::string> events;
  // The device takes 700us for the first flush and 300us for the second,
  // whatever the entries' cost hints say.
  ScriptedDevice device(&loop, {700, 300}, &events);
  GroupCommitter committer(&loop, &device, config);
  committer.Append(5000, "x", []() {}, 1);  // flushes 200-900
  loop.Schedule(400, [&]() {
    committer.Append(5000, "x", []() {}, 2);
  });
  loop.Schedule(500, [&]() {
    committer.Append(5000, "x", []() {}, 3);
  });
  loop.Run();  // entries 2 and 3 flush 900-1200
  const storage::GroupCommitStats& stats = committer.stats();
  EXPECT_EQ(stats.fsyncs, 2u);
  EXPECT_EQ(stats.busy_us, 700u + 300u);
  // 200 for entry 1, then (900 - 400) + (900 - 500) for entries 2 and 3.
  EXPECT_EQ(stats.queued_us, 200u + 500u + 400u);
}

// ---------------------------------------------------------------------------
// Integration: the data-source prepare/commit path
// ---------------------------------------------------------------------------

MiniCluster::Options GeoTpOptions() {
  MiniCluster::Options options;
  // O1 preset: decentralized prepare with immediate dispatch — no
  // latency-aware postponing, so the probe timings below are exact.
  options.dm = middleware::MiddlewareConfig::GeoTPO1();
  return options;
}

TEST(GroupCommitIntegrationTest, ConcurrentPreparesShareTheFsync) {
  MiniCluster cluster(GeoTpOptions());
  // Two distributed transactions over the same two sources, submitted in
  // the same tick: their prepare records at each source share one flush.
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 10),
      MiniCluster::Write(cluster.KeyOn(1, 1), 20),
  }, true);
  cluster.SendRound(2, {
      MiniCluster::Write(cluster.KeyOn(0, 2), 30),
      MiniCluster::Write(cluster.KeyOn(1, 2), 40),
  }, true);
  cluster.RunFor(1000);
  ASSERT_EQ(cluster.source(0).engine().PreparedXids().size(), 2u);
  const auto& gc = cluster.source(0).committer().stats();
  EXPECT_EQ(gc.entries, 2u);
  EXPECT_EQ(gc.fsyncs, 1u);
  EXPECT_EQ(gc.max_batch_entries, 2u);
  // WAL accounting matches: two prepare records, one physical flush.
  EXPECT_EQ(cluster.source(0).engine().wal().fsyncs(), 1u);
}

TEST(GroupCommitIntegrationTest, NoVoteBeforeSharedFsyncCompletes) {
  MiniCluster cluster(GeoTpOptions());
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 10),
      MiniCluster::Write(cluster.KeyOn(1, 1), 20),
  }, true);
  cluster.SendRound(2, {
      MiniCluster::Write(cluster.KeyOn(0, 2), 30),
      MiniCluster::Write(cluster.KeyOn(1, 2), 40),
  }, true);
  // Probe just before each source's batched prepare flush can have
  // completed: request dispatch costs the DM analysis (300us) plus one-way
  // WAN (5ms to source 0), execution costs one write (420us), the agent
  // LAN hop 300us, and the shared prepare fsync 2200us. No branch may be
  // PREPARED (= vote reportable) until the whole flush is done, even
  // though both branches already finished executing.
  cluster.RunFor(8.0);  // past exec + LAN at source 0, inside the fsync
  EXPECT_EQ(cluster.source(0).engine().PreparedXids().size(), 0u);
  EXPECT_EQ(cluster.source(0).committer().pending(), 2u);
  cluster.RunFor(3.0);  // fsync complete
  EXPECT_EQ(cluster.source(0).engine().PreparedXids().size(), 2u);
  EXPECT_EQ(cluster.source(0).committer().stats().fsyncs, 1u);
  // Both transactions commit normally afterwards.
  cluster.RunFor(3000);
  cluster.SendCommit(1);
  cluster.SendCommit(2);
  cluster.RunFor(3000);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_TRUE(cluster.txn(2).result.ok());
}

TEST(GroupCommitIntegrationTest, DmDecisionLogSharesFlushes) {
  MiniCluster cluster(GeoTpOptions());
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 10),
      MiniCluster::Write(cluster.KeyOn(1, 1), 20),
  }, true);
  cluster.SendRound(2, {
      MiniCluster::Write(cluster.KeyOn(0, 2), 30),
      MiniCluster::Write(cluster.KeyOn(1, 2), 40),
  }, true);
  cluster.RunFor(500);
  // Both vote sets complete; the commits arrive in the same tick, so the
  // two FlushLog calls share one decision-log flush.
  cluster.SendCommit(1);
  cluster.SendCommit(2);
  cluster.RunFor(3000);
  ASSERT_TRUE(cluster.txn(1).result.ok());
  ASSERT_TRUE(cluster.txn(2).result.ok());
  EXPECT_EQ(cluster.dm().decision_log().size(), 2u);
  EXPECT_EQ(cluster.dm().stats().log_entries_flushed, 2u);
  EXPECT_EQ(cluster.dm().stats().log_flushes, 1u);
  // The two same-destination commit decisions left as one batch envelope.
  EXPECT_GE(cluster.dm().stats().decision_batches_sent, 1u);
}

}  // namespace
}  // namespace geotp
