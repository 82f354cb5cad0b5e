// Replication subsystem tests: quorum-gated durability, leader failover
// with the bank-transfer balance-conservation invariant, stale-bounded
// follower reads, and rejoin/catch-up of a restarted leader.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "replication/log_shipper.h"
#include "replication/replicator.h"
#include "replication/txn_index_map.h"
#include "runtime/codec.h"
#include "sim_fixture.h"

namespace geotp {
namespace {

using middleware::MiddlewareConfig;
using testing_support::MiniCluster;

MiniCluster::Options ReplicatedOptions(int rf = 3) {
  MiniCluster::Options options;
  options.dm = MiddlewareConfig::GeoTP();
  options.replication_factor = rf;
  return options;
}

// ---------------------------------------------------------------------------
// Log shipping basics
// ---------------------------------------------------------------------------

TEST(ReplicationLogTest, AppendSliceTruncate) {
  replication::ReplicationLog log;
  for (int i = 0; i < 5; ++i) {
    protocol::ReplEntry entry;
    entry.type = protocol::ReplEntryType::kCommit;
    entry.xid = Xid{static_cast<TxnId>(100 + i), 2};
    EXPECT_EQ(log.Append(entry), static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(log.last_index(), 5u);
  EXPECT_EQ(log.At(3).xid.txn_id, 102u);
  auto slice = log.Slice(2, 4);
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[0].index, 2u);
  log.TruncateFrom(4);
  EXPECT_EQ(log.last_index(), 3u);
  log.TruncateFrom(10);  // no-op
  EXPECT_EQ(log.last_index(), 3u);
}

TEST(ReplicationLogTest, PrefixTruncationKeepsGlobalIndexing) {
  replication::ReplicationLog log;
  for (int i = 0; i < 6; ++i) {
    protocol::ReplEntry entry;
    entry.type = protocol::ReplEntryType::kCommit;
    entry.epoch = static_cast<uint64_t>(i);
    entry.xid = Xid{static_cast<TxnId>(100 + i), 2};
    log.Append(entry);
  }
  EXPECT_EQ(log.TruncatePrefix(4), 4u);
  EXPECT_EQ(log.first_index(), 5u);
  EXPECT_EQ(log.last_index(), 6u);
  EXPECT_EQ(log.At(5).xid.txn_id, 104u);
  // The compaction boundary still answers epoch queries (log matching).
  EXPECT_EQ(log.EpochAt(4), 3u);
  // Slices clamp into the retained range.
  auto slice = log.Slice(1, 6);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0].index, 5u);
  // Re-truncating below the offset is a no-op; appends continue at 7.
  EXPECT_EQ(log.TruncatePrefix(3), 0u);
  protocol::ReplEntry entry;
  entry.type = protocol::ReplEntryType::kCommit;
  entry.xid = Xid{200, 2};
  EXPECT_EQ(log.Append(entry), 7u);
}

// ---------------------------------------------------------------------------
// LogShipper in isolation: sealing, per-frame accounting, quorum order
// ---------------------------------------------------------------------------

/// Transport that keeps every sent message for inspection.
class CapturingTransport : public runtime::ITransport {
 public:
  void RegisterNode(NodeId, Handler) override {}
  void Send(std::unique_ptr<runtime::MessageBase> msg) override {
    sent.push_back(std::move(msg));
  }
  /// The append frames sent so far, in send order; clears the capture.
  std::vector<protocol::ReplAppendRequest> TakeAppends() {
    std::vector<protocol::ReplAppendRequest> out;
    for (const auto& msg : sent) {
      if (msg->type() == runtime::MessageType::kReplAppendRequest) {
        out.push_back(static_cast<const protocol::ReplAppendRequest&>(*msg));
      }
    }
    sent.clear();
    return out;
  }
  std::vector<std::unique_ptr<runtime::MessageBase>> sent;
};

protocol::ReplEntry CommitEntry(TxnId txn) {
  protocol::ReplEntry entry;
  entry.type = protocol::ReplEntryType::kCommit;
  entry.xid = Xid{txn, 1};
  for (uint64_t k = 0; k < 3; ++k) {
    entry.writes.push_back(
        protocol::ReplWrite{RecordKey{1, 1000 + txn * 3 + k}, 7});
  }
  return entry;
}

protocol::ReplAppendAck AckUpTo(uint64_t index, bool ok = true) {
  protocol::ReplAppendAck ack;
  ack.epoch = 1;
  ack.ack_index = index;
  ack.ok = ok;
  return ack;
}

/// The entries a frame carries, opened like a follower would.
std::vector<protocol::ReplEntry> Opened(protocol::ReplAppendRequest frame) {
  EXPECT_TRUE(protocol::OpenAppendPayload(&frame));
  return frame.entries;
}

TEST(LogShipperTest, OneTickSealsOnceForCaughtUpFollowers) {
  sim::EventLoop loop;
  CapturingTransport transport;
  replication::ReplicationLog log;
  replication::LogShipper shipper(1, &transport, &loop, &log);
  shipper.Activate(/*group=*/1, /*epoch=*/1, {2, 3}, /*quorum_size=*/2, 0);
  for (TxnId txn = 1; txn <= 3; ++txn) {
    shipper.AppendAndShip(CommitEntry(txn), nullptr);
  }
  loop.Run();

  std::vector<protocol::ReplAppendRequest> frames = transport.TakeAppends();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(shipper.stats().batches_sealed, 1u);
  ASSERT_FALSE(frames[0].payload.empty());  // compressed envelope
  EXPECT_NE(frames[0].to, frames[1].to);
  // Byte-identical frames apart from the addressee.
  frames[1].to = frames[0].to;
  EXPECT_EQ(runtime::EncodeMessage(frames[0]),
            runtime::EncodeMessage(frames[1]));
  // The sealed payload opens to exactly what the log holds.
  const std::vector<protocol::ReplEntry> shipped = Opened(frames[0]);
  ASSERT_EQ(shipped.size(), 3u);
  EXPECT_EQ(protocol::PackEntries(shipped),
            protocol::PackEntries(log.Slice(1, 3)));
  // Accounting stays per frame: two frames of three entries each.
  const replication::LogShipperStats& stats = shipper.stats();
  EXPECT_EQ(stats.append_batches_shipped, 2u);
  EXPECT_EQ(stats.entries_shipped, 6u);
  EXPECT_EQ(stats.wan_bytes_raw, 2 * frames[0].payload_uncompressed_len);
  EXPECT_EQ(stats.wan_bytes_wire, 2 * frames[0].payload.size());
  EXPECT_LT(stats.wan_bytes_wire, stats.wan_bytes_raw);
}

TEST(LogShipperTest, LaggingFollowerGetsItsOwnBatch) {
  sim::EventLoop loop;
  CapturingTransport transport;
  replication::ReplicationLog log;
  replication::LogShipper shipper(1, &transport, &loop, &log);
  shipper.Activate(1, 1, {2, 3}, 2, 0);
  for (TxnId txn = 1; txn <= 3; ++txn) {
    shipper.AppendAndShip(CommitEntry(txn), nullptr);
  }
  loop.Run();
  uint64_t raw = 0;
  uint64_t wire = 0;
  for (const protocol::ReplAppendRequest& frame : transport.TakeAppends()) {
    raw += frame.payload_uncompressed_len;
    wire += frame.payload.size();
  }
  shipper.OnAck(2, AckUpTo(3));  // follower 3 never acks

  // Entry 4 is appended; the heartbeat runs before the coalesced ship
  // event, so follower 2 needs [4, 4] and follower 3 rewinds to [1, 4].
  shipper.AppendAndShip(CommitEntry(4), nullptr);
  shipper.Tick();
  loop.Run();  // the ship event then finds both followers caught up
  const std::vector<protocol::ReplAppendRequest> frames =
      transport.TakeAppends();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(shipper.stats().batches_sealed, 3u);
  for (const protocol::ReplAppendRequest& frame : frames) {
    const std::vector<protocol::ReplEntry> entries = Opened(frame);
    ASSERT_FALSE(entries.empty());
    if (frame.to == 2) {
      EXPECT_EQ(frame.prev_index, 3u);
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0].index, 4u);
    } else {
      EXPECT_EQ(frame.to, 3u);
      EXPECT_EQ(frame.prev_index, 0u);
      ASSERT_EQ(entries.size(), 4u);
      EXPECT_EQ(entries.front().index, 1u);
    }
    raw += frame.payload_uncompressed_len;
    wire += frame.payload.size();
  }
  // Per-frame counters over all four frames (3 + 3 + 1 + 4 entries).
  const replication::LogShipperStats& stats = shipper.stats();
  EXPECT_EQ(stats.append_batches_shipped, 4u);
  EXPECT_EQ(stats.entries_shipped, 11u);
  EXPECT_EQ(stats.wan_bytes_raw, raw);
  EXPECT_EQ(stats.wan_bytes_wire, wire);
}

TEST(LogShipperTest, PlainEntriesWhenCompressionIsOff) {
  sim::EventLoop loop;
  CapturingTransport transport;
  replication::ReplicationLog log;
  replication::LogShipper shipper(1, &transport, &loop, &log);
  shipper.set_wan_compression(false);
  shipper.Activate(1, 1, {2, 3}, 2, 0);
  shipper.AppendAndShip(CommitEntry(1), nullptr);
  shipper.AppendAndShip(CommitEntry(2), nullptr);
  loop.Run();
  const std::vector<protocol::ReplAppendRequest> frames =
      transport.TakeAppends();
  ASSERT_EQ(frames.size(), 2u);
  const size_t packed = protocol::PackEntries(log.Slice(1, 2)).size();
  for (const protocol::ReplAppendRequest& frame : frames) {
    EXPECT_TRUE(frame.payload.empty());
    EXPECT_EQ(protocol::PackEntries(frame.entries),
              protocol::PackEntries(log.Slice(1, 2)));
  }
  EXPECT_EQ(shipper.stats().batches_sealed, 1u);
  EXPECT_EQ(shipper.stats().wan_bytes_raw, 2 * packed);
  EXPECT_EQ(shipper.stats().wan_bytes_wire, 2 * packed);
}

TEST(LogShipperTest, QuorumCallbacksFireInIndexOrderFifoAmongEquals) {
  sim::EventLoop loop;
  CapturingTransport transport;
  replication::ReplicationLog log;
  replication::LogShipper shipper(1, &transport, &loop, &log);
  shipper.Activate(1, 1, {2, 3}, 2, 0);
  std::vector<std::string> fired;
  const auto record = [&fired](std::string name) {
    return [&fired, name]() { fired.push_back(name); };
  };
  for (TxnId txn = 1; txn <= 3; ++txn) {
    shipper.AppendAndShip(CommitEntry(txn),
                          record("append" + std::to_string(txn)));
  }
  // Retries awaiting entries older than the newest pending one.
  shipper.AwaitQuorum(2, record("await2"));
  shipper.AwaitQuorum(1, record("await1"));
  shipper.AwaitQuorum(2, record("await2b"));
  EXPECT_TRUE(fired.empty());
  shipper.OnAck(3, AckUpTo(3));
  EXPECT_EQ(fired, (std::vector<std::string>{"append1", "await1", "append2",
                                             "await2", "await2b",
                                             "append3"}));
  // Already quorum-durable: fires at once.
  shipper.AwaitQuorum(1, record("late"));
  EXPECT_EQ(fired.back(), "late");
  EXPECT_EQ(shipper.stats().quorum_callbacks_fired, 7u);
}

TEST(LogShipperTest, WatermarkIsTheQuorumSizedLargestMatch) {
  sim::EventLoop loop;
  CapturingTransport transport;
  replication::ReplicationLog log;
  replication::LogShipper shipper(1, &transport, &loop, &log);
  // Five members, quorum three: the leader holds 9 entries.
  shipper.Activate(1, 1, {2, 3, 4, 5}, 3, 0);
  for (TxnId txn = 1; txn <= 9; ++txn) {
    shipper.AppendAndShip(CommitEntry(txn), nullptr);
  }
  loop.Run();
  EXPECT_EQ(shipper.commit_watermark(), 0u);
  shipper.OnAck(2, AckUpTo(5));
  EXPECT_EQ(shipper.commit_watermark(), 0u);  // {9, 5, 0, 0, 0}
  shipper.OnAck(3, AckUpTo(2));
  EXPECT_EQ(shipper.commit_watermark(), 2u);  // {9, 5, 2, 0, 0}
  shipper.OnAck(4, AckUpTo(7));
  EXPECT_EQ(shipper.commit_watermark(), 5u);  // {9, 7, 5, 2, 0}
  shipper.OnAck(5, AckUpTo(9));
  EXPECT_EQ(shipper.commit_watermark(), 7u);  // {9, 9, 7, 5, 2}
  EXPECT_EQ(shipper.MinMatchIndex(), 2u);
}

TEST(TxnIndexMapTest, MatchesAnUnorderedMapModel) {
  replication::TxnIndexMap map;
  std::unordered_map<TxnId, uint64_t> model;
  std::mt19937_64 rng(19);
  const auto check = [&]() {
    ASSERT_EQ(map.size(), model.size());
    size_t visited = 0;
    map.ForEach([&](TxnId txn, uint64_t index) {
      ++visited;
      ASSERT_EQ(model.count(txn), 1u);
      EXPECT_EQ(model[txn], index);
    });
    EXPECT_EQ(visited, model.size());
  };
  // Dense ids (as transactions get) and the edge ids 0 and UINT64_MAX,
  // through several growth steps and back-shift erases.
  for (uint64_t step = 1; step <= 20000; ++step) {
    TxnId txn = rng() % 3000;
    if (step % 97 == 0) txn = 0;
    if (step % 89 == 0) txn = UINT64_MAX;
    switch (rng() % 3) {
      case 0:
      case 1:
        map.Put(txn, step);
        model[txn] = step;
        break;
      default:
        EXPECT_EQ(map.Erase(txn), model.erase(txn) == 1);
        break;
    }
    const auto it = model.find(txn);
    EXPECT_EQ(map.Get(txn), it == model.end() ? 0 : it->second);
    if (step % 2500 == 0) check();
  }
  map.EraseFrom(15000);
  for (auto it = model.begin(); it != model.end();) {
    it = it->second >= 15000 ? model.erase(it) : std::next(it);
  }
  check();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Get(5), 0u);
}

TEST(TxnIndexMapTest, UnresolvedPreparesKnowTheOldest) {
  replication::UnresolvedPrepares prepares;
  EXPECT_EQ(prepares.Oldest(), 0u);
  std::mt19937_64 rng(7);
  uint64_t next_index = 1;
  for (int step = 0; step < 5000; ++step) {
    const TxnId txn = rng() % 64;
    switch (rng() % 5) {
      case 0:
      case 1:
        prepares.Add(txn, next_index++);  // a re-prepare moves it
        break;
      case 2:
      case 3:
        prepares.Resolve(txn);
        break;
      default:
        if (step % 50 == 0 && next_index > 8) {
          next_index -= 4;  // a divergent tail is cut, then re-appended
          prepares.EraseFrom(next_index);
        }
        break;
    }
    uint64_t oldest = 0;
    prepares.ForEach([&oldest](TxnId, uint64_t index) {
      if (oldest == 0 || index < oldest) oldest = index;
    });
    ASSERT_EQ(prepares.Oldest(), oldest) << "step " << step;
  }
  prepares.clear();
  EXPECT_EQ(prepares.size(), 0u);
  EXPECT_EQ(prepares.Oldest(), 0u);
}

TEST(ReplicationTest, CommittedWritesReachFollowers) {
  MiniCluster cluster(ReplicatedOptions());
  ASSERT_EQ(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 42),
                               MiniCluster::Write(cluster.KeyOn(1, 2), 7)})
                .ok(),
            true);
  cluster.RunFor(500);  // let appends drain to both groups' followers

  for (int group : {0, 1}) {
    for (int k = 0; k < 2; ++k) {
      auto& store = cluster.follower(group, k).engine().store();
      const RecordKey key = cluster.KeyOn(group, group == 0 ? 1 : 2);
      auto record = store.Get(key);
      ASSERT_TRUE(record.has_value())
          << "group " << group << " follower " << k;
      EXPECT_EQ(record->value, group == 0 ? 42 : 7);
    }
    // The leader shipped a prepare and a commit entry per group (or one
    // commit for the one-phase path) and every entry reached quorum.
    auto* repl = cluster.source(group).replicator();
    EXPECT_TRUE(repl->IsLeader());
    EXPECT_GE(repl->log().last_index(), 1u);
    EXPECT_EQ(repl->commit_watermark(), repl->log().last_index());
  }
}

// The tentpole guarantee: commit durability is only reported once the
// entry is on a quorum. With both followers partitioned the commit must
// stall; restoring one follower completes it.
TEST(ReplicationTest, QuorumGatesCommitDurability) {
  MiniCluster cluster(ReplicatedOptions());
  cluster.network().Partition(cluster.follower(0, 0).id());
  cluster.network().Partition(cluster.follower(0, 1).id());

  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 3), 5)}, true);
  cluster.RunFor(1000);
  ASSERT_FALSE(cluster.txn(1).round_responses.empty());
  cluster.SendCommit(1);
  cluster.RunFor(2000);
  // Execution finished, but the commit cannot reach a quorum.
  EXPECT_FALSE(cluster.txn(1).has_result);

  cluster.network().Restore(cluster.follower(0, 0).id());
  cluster.RunFor(2000);  // heartbeat retransmission catches the follower up
  ASSERT_TRUE(cluster.txn(1).has_result);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  auto record = cluster.follower(0, 0).engine().store().Get(cluster.KeyOn(0, 3));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value, 5);
}

// Quorum acks fire in log order even when acks arrive out of order across
// entries (two groups' entries interleave arbitrarily).
TEST(ReplicationTest, QuorumAckOrdering) {
  MiniCluster cluster(ReplicatedOptions());
  for (uint64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(cluster
                    .RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t),
                                                   static_cast<int64_t>(t)),
                                MiniCluster::Write(cluster.KeyOn(1, t),
                                                   static_cast<int64_t>(t))})
                    .ok());
  }
  cluster.RunFor(500);
  for (int group : {0, 1}) {
    auto* repl = cluster.source(group).replicator();
    // Watermark never runs ahead of the log and everything reached quorum.
    EXPECT_EQ(repl->commit_watermark(), repl->log().last_index());
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(cluster.follower(group, k).replicator()->applied_index(),
                repl->commit_watermark());
    }
  }
}

// ---------------------------------------------------------------------------
// Leader failover
// ---------------------------------------------------------------------------

TEST(ReplicationTest, LeaderFailoverElectsFollowerAndConservesBalances) {
  MiniCluster cluster(ReplicatedOptions());
  Rng rng(7);
  constexpr int kAccounts = 12;
  uint64_t tag = 1;

  auto transfer = [&](uint64_t t) {
    const int node_a = static_cast<int>(rng.NextU64(2));
    const int node_b = 1 - node_a;
    const uint64_t off_a = rng.NextU64(kAccounts);
    const uint64_t off_b = rng.NextU64(kAccounts);
    const int64_t amount = static_cast<int64_t>(rng.NextU64(40)) + 1;
    cluster.SendRound(t, {
        MiniCluster::Write(cluster.KeyOn(node_a, off_a), -amount, true),
        MiniCluster::Write(cluster.KeyOn(node_b, off_b), amount, true),
    }, true);
  };

  // Phase 1: normal traffic.
  for (int i = 0; i < 10; ++i) {
    transfer(tag++);
    cluster.RunFor(40);
  }

  // Kill group 0's leader mid-traffic (no restart): the followers must
  // elect a replacement and the middleware must re-route.
  cluster.source(0).Crash();
  for (int i = 0; i < 6; ++i) {
    transfer(tag++);
    cluster.RunFor(40);
  }
  cluster.RunFor(2000);  // election + announce + retries settle

  datasource::DataSourceNode* new_leader = cluster.leader_of(0);
  ASSERT_NE(new_leader, nullptr) << "no leader elected for group 0";
  EXPECT_NE(new_leader->id(), cluster.source(0).id());
  EXPECT_GE(new_leader->replicator()->epoch(), 1u);
  EXPECT_GE(cluster.dm().stats().failovers_observed, 1u);

  // Phase 2: the workload continues against the new leader.
  const uint64_t resume_tag = tag;
  for (int i = 0; i < 10; ++i) {
    transfer(tag++);
    cluster.RunFor(60);
  }

  // Settle: commit everything that produced a round response.
  std::vector<bool> commit_sent(tag, false);
  for (int pass = 0; pass < 4; ++pass) {
    cluster.RunFor(8000);
    for (uint64_t t = 1; t < tag; ++t) {
      auto& txn = cluster.txn(t);
      if (!commit_sent[t] && !txn.has_result && !txn.round_responses.empty()) {
        cluster.SendCommit(t);
        commit_sent[t] = true;
      }
    }
  }
  cluster.RunFor(8000);

  // Post-failover transactions must actually work (not all abort).
  int resumed_commits = 0;
  for (uint64_t t = resume_tag; t < tag; ++t) {
    auto& txn = cluster.txn(t);
    if (txn.has_result && txn.result.ok()) resumed_commits++;
  }
  EXPECT_GT(resumed_commits, 0);

  // Balance conservation over the surviving replicas' committed state.
  int64_t sum = 0;
  auto& store0 = new_leader->engine().store();
  auto& store1 = cluster.source(1).engine().store();
  for (uint64_t off = 0; off < kAccounts; ++off) {
    if (auto rec = store0.Get(cluster.KeyOn(0, off))) sum += rec->value;
    if (auto rec = store1.Get(cluster.KeyOn(1, off))) sum += rec->value;
  }
  EXPECT_EQ(sum, 0);

  // No in-doubt branches linger on the promoted leader.
  EXPECT_TRUE(new_leader->engine().PreparedXids().empty());
  EXPECT_EQ(new_leader->engine().ActiveCount(), 0u);
}

TEST(ReplicationTest, RestartedLeaderRejoinsAsFollowerAndCatchesUp) {
  MiniCluster cluster(ReplicatedOptions());
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 10)})
                  .ok());

  cluster.source(0).Crash();
  cluster.RunFor(1500);  // election completes
  datasource::DataSourceNode* new_leader = cluster.leader_of(0);
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader->id(), cluster.source(0).id());

  // Write through the new leader while the old one is down.
  ASSERT_TRUE(cluster.RunTxn(2, {MiniCluster::Write(cluster.KeyOn(0, 1), 20)})
                  .ok());

  cluster.source(0).Restart();
  cluster.RunFor(2000);  // heartbeats re-ship the missing entries

  EXPECT_EQ(cluster.source(0).replicator()->role(),
            replication::Role::kFollower);
  EXPECT_TRUE(new_leader->replicator()->IsLeader());
  auto record = cluster.source(0).engine().store().Get(cluster.KeyOn(0, 1));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value, 20);
}

// ---------------------------------------------------------------------------
// Follower reads
// ---------------------------------------------------------------------------

TEST(ReplicationTest, FollowerReadsServeFreshCommittedData) {
  MiniCluster::Options options = ReplicatedOptions();
  options.dm.follower_reads = true;
  options.dm.follower_read_stale_bound = MsToMicros(500);
  MiniCluster cluster(options);

  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 4), 99)})
                  .ok());
  cluster.RunFor(200);  // replicate + heartbeat freshness

  Status st = cluster.RunTxn(2, {MiniCluster::Read(cluster.KeyOn(0, 4))});
  ASSERT_TRUE(st.ok());
  ASSERT_FALSE(cluster.txn(2).round_responses.empty());
  EXPECT_EQ(cluster.txn(2).round_responses[0].values[0], 99);
  EXPECT_GE(cluster.dm().stats().follower_reads, 1u);
  // No branch ever began at the leader for the read-only transaction.
  EXPECT_EQ(cluster.source(0).stats().batches_executed, 1u);  // the write
}

TEST(ReplicationTest, StaleFollowerReadFallsBackToLeader) {
  MiniCluster::Options options = ReplicatedOptions();
  options.dm.follower_reads = true;
  // Heartbeats far apart (with the election timeout pushed further out so
  // the leader is not deposed) + a tiny staleness bound: followers are
  // always too stale by the time a read arrives.
  options.repl.heartbeat_interval = SecToMicros(5);
  options.repl.election_timeout = SecToMicros(30);
  options.repl.election_stagger = SecToMicros(1);
  options.dm.follower_read_stale_bound = MsToMicros(1);
  MiniCluster cluster(options);

  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 6), 55)})
                  .ok());
  cluster.RunFor(1000);

  Status st = cluster.RunTxn(2, {MiniCluster::Read(cluster.KeyOn(0, 6))});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(cluster.txn(2).round_responses[0].values[0], 55);
  EXPECT_GE(cluster.dm().stats().follower_read_fallbacks, 1u);
}

TEST(ReplicationTest, CrashedFollowerReadTimesOutAndFallsBack) {
  MiniCluster::Options options = ReplicatedOptions();
  options.dm.follower_reads = true;
  options.dm.follower_read_stale_bound = MsToMicros(500);
  options.dm.follower_read_timeout = MsToMicros(300);
  MiniCluster cluster(options);

  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 8), 31)})
                  .ok());
  cluster.RunFor(200);
  // Crash both followers: whichever one the read is routed to is dead.
  cluster.follower(0, 0).Crash();
  cluster.follower(0, 1).Crash();

  Status st = cluster.RunTxn(2, {MiniCluster::Read(cluster.KeyOn(0, 8))});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(cluster.txn(2).round_responses[0].values[0], 31);
  EXPECT_GE(cluster.dm().stats().follower_read_fallbacks, 1u);
}

TEST(ReplicationTest, FollowerReadsAvoidCrashedFollowerWithFrozenEstimate) {
  MiniCluster::Options options = ReplicatedOptions();
  options.dm.follower_reads = true;
  options.dm.follower_read_stale_bound = MsToMicros(500);
  MiniCluster cluster(options);

  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 4), 17)})
                  .ok());
  cluster.RunFor(200);  // both followers have RTT samples
  // Crash one follower. Its RTT estimate freezes at an attractive value;
  // routing must notice the stale sample and pick the live follower
  // instead of timing out against the dead one on every read.
  cluster.follower(0, 0).Crash();
  cluster.RunFor(300);  // crashed follower's samples go stale

  const uint64_t fallbacks_before =
      cluster.dm().stats().follower_read_fallbacks;
  Status st = cluster.RunTxn(2, {MiniCluster::Read(cluster.KeyOn(0, 4))});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(cluster.txn(2).round_responses[0].values[0], 17);
  // Served by the surviving follower directly — no timeout fallback.
  EXPECT_EQ(cluster.dm().stats().follower_read_fallbacks, fallbacks_before);
  EXPECT_GE(
      cluster.follower(0, 1).replicator()->stats().follower_reads_served, 1u);
}

// ---------------------------------------------------------------------------
// Log compaction & probe re-targeting
// ---------------------------------------------------------------------------

TEST(ReplicationTest, ReplicatedLogIsTruncatedUpToQuorumAppliedIndex) {
  MiniCluster cluster(ReplicatedOptions());
  for (uint64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(cluster
                    .RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t), 10),
                                MiniCluster::Write(cluster.KeyOn(1, t), 20)})
                    .ok());
  }
  cluster.RunFor(2000);  // heartbeats drain applies + compaction

  for (auto* replica : cluster.replica_group(0)) {
    const auto* repl = replica->replicator();
    // Everything resolved: the whole applied prefix is compacted away.
    EXPECT_GT(repl->stats().log_entries_truncated, 0u)
        << "replica " << replica->id();
    EXPECT_GE(repl->log().first_index(), repl->applied_index())
        << "replica " << replica->id();
  }
  // The system keeps working on the compacted log (ship/ack/apply).
  ASSERT_TRUE(cluster.RunTxn(100, {MiniCluster::Write(cluster.KeyOn(0, 99), 5),
                                   MiniCluster::Write(cluster.KeyOn(1, 99), 6)})
                  .ok());
}

TEST(ReplicationTest, LatencyMonitorRetargetsProbesAfterFailover) {
  MiniCluster cluster(ReplicatedOptions());
  cluster.RunFor(500);
  // Pre-failover: the monitor pings the seed leader (and the followers,
  // for nearest-replica routing), so all replicas have RTT estimates.
  auto& monitor = cluster.dm().monitor();
  EXPECT_GT(monitor.RttEstimate(cluster.source(0).id()), 0);
  EXPECT_GT(monitor.RttEstimate(cluster.follower(0, 0).id()), 0);
  EXPECT_GT(monitor.RttEstimate(cluster.follower(0, 1).id()), 0);

  cluster.source(0).Crash();
  cluster.RunFor(3000);  // election + announce; probes re-target
  datasource::DataSourceNode* new_leader = cluster.leader_of(0);
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader->id(), cluster.source(0).id());

  // The crashed seed no longer answers; pings must now flow to the new
  // leader and keep the *logical* source estimate alive (scheduling looks
  // the logical id up). Sample counts at the new leader keep growing.
  const uint64_t pongs_before = monitor.pongs_received();
  const Micros logical_estimate = monitor.RttEstimate(2);  // logical id of group 0
  EXPECT_GT(logical_estimate, 0);
  cluster.RunFor(500);
  EXPECT_GT(monitor.pongs_received(), pongs_before);
  EXPECT_GT(monitor.RttEstimate(new_leader->id()), 0);
  // The logical estimate now tracks the new leader's (longer) path, not
  // the dead seed's: it converges towards the new leader's estimate.
  cluster.RunFor(2000);
  const Micros leader_rtt = monitor.RttEstimate(new_leader->id());
  const Micros logical_rtt = monitor.RttEstimate(2);
  EXPECT_NEAR(static_cast<double>(logical_rtt),
              static_cast<double>(leader_rtt),
              static_cast<double>(leader_rtt) * 0.2 + 100.0);
}

// ---------------------------------------------------------------------------
// Snapshot bootstrap (shared with the shard migration install path)
// ---------------------------------------------------------------------------

TEST(ReplicationTest, WipedFollowerBootstrapsFromStoreSnapshot) {
  MiniCluster cluster(ReplicatedOptions());

  // Commit a first batch and let compaction settle: every replica acked,
  // so the leader's retained log starts past these entries.
  for (uint64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(
        cluster.RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t), 10),
                           MiniCluster::Write(cluster.KeyOn(1, t), 20)})
            .ok());
  }
  cluster.RunFor(2000);
  auto* leader_repl = cluster.source(0).replicator();
  ASSERT_GT(leader_repl->log().first_index(), 1u);

  // A follower loses its disk entirely: its log cannot be repaired by
  // re-shipping (the needed prefix was compacted away) — only a snapshot
  // can re-seed it.
  auto& wiped = cluster.follower(0, 0);
  wiped.Crash();
  wiped.replicator()->WipeForBootstrap();

  // More committed traffic while the follower is gone.
  for (uint64_t t = 10; t <= 14; ++t) {
    ASSERT_TRUE(
        cluster.RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t), 33)})
            .ok());
  }

  wiped.Restart();
  cluster.RunFor(3000);  // heartbeat -> gap nack -> snapshot -> tail

  EXPECT_GE(wiped.replicator()->stats().snapshot_installs, 1u);
  EXPECT_GE(cluster.source(0).replicator()->shipper_stats().snapshots_sent,
            1u);
  // The bootstrapped follower has caught up to the leader's applied state
  // — both the compacted-away prefix and the retained tail.
  EXPECT_GE(wiped.replicator()->applied_index(),
            leader_repl->commit_watermark());
  for (uint64_t t = 1; t <= 6; ++t) {
    auto record = wiped.engine().store().Get(cluster.KeyOn(0, t));
    ASSERT_TRUE(record.has_value()) << "key offset " << t;
    EXPECT_EQ(record->value, 10) << "key offset " << t;
  }
  for (uint64_t t = 10; t <= 14; ++t) {
    auto record = wiped.engine().store().Get(cluster.KeyOn(0, t));
    ASSERT_TRUE(record.has_value()) << "key offset " << t;
    EXPECT_EQ(record->value, 33) << "key offset " << t;
  }
  // And it serves as a quorum member again.
  ASSERT_TRUE(
      cluster.RunTxn(100, {MiniCluster::Write(cluster.KeyOn(0, 50), 7)})
          .ok());
}

// ---------------------------------------------------------------------------
// WAN compression knob + incremental re-seed
// ---------------------------------------------------------------------------

// Committed store contents in a canonical order, for byte-identical
// store comparisons across replicas.
std::vector<std::pair<RecordKey, int64_t>> SortedStore(
    datasource::DataSourceNode& node) {
  auto records = node.engine().CommittedRecords();
  std::sort(records.begin(), records.end(),
            [](const std::pair<RecordKey, int64_t>& a,
               const std::pair<RecordKey, int64_t>& b) {
              if (a.first.table != b.first.table) {
                return a.first.table < b.first.table;
              }
              return a.first.key < b.first.key;
            });
  return records;
}

// Ships eight single-write transactions through group 0 and returns the
// leader's log-shipping stats once every follower applied them.
replication::LogShipperStats ShipAndConverge(MiniCluster::Options options) {
  MiniCluster cluster(options);
  for (uint64_t t = 1; t <= 8; ++t) {
    EXPECT_TRUE(
        cluster.RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t), 5)}).ok());
  }
  cluster.RunFor(1000);
  for (int k = 0; k < 2; ++k) {
    auto record =
        cluster.follower(0, k).engine().store().Get(cluster.KeyOn(0, 3));
    EXPECT_TRUE(record.has_value() && record->value == 5) << "follower " << k;
  }
  return cluster.source(0).replicator()->shipper_stats();
}

// wan_compression is a sender-side knob; receivers decode either form.
TEST(ReplicationTest, WanCompressionIsASenderSideKnob) {
  // Leaders (ids 2 and 3) with the knob off ship plain batches: wire == raw.
  MiniCluster::Options raw_leaders = ReplicatedOptions();
  raw_leaders.ds_tweak_node = [](NodeId id,
                                 datasource::DataSourceConfig* config) {
    if (id < 4) config->wan_compression = false;
  };
  const replication::LogShipperStats raw = ShipAndConverge(raw_leaders);
  EXPECT_GT(raw.wan_bytes_raw, 0u);
  EXPECT_EQ(raw.wan_bytes_wire, raw.wan_bytes_raw);

  // Followers (ids >= 4) with the knob off still decode a compressed
  // leader's stream and converge; every batch ships compressed.
  MiniCluster::Options raw_followers = ReplicatedOptions();
  raw_followers.ds_tweak_node = [](NodeId id,
                                   datasource::DataSourceConfig* config) {
    if (id >= 4) config->wan_compression = false;
  };
  const replication::LogShipperStats zipped = ShipAndConverge(raw_followers);
  EXPECT_GT(zipped.wan_bytes_raw, 0u);
  EXPECT_LT(zipped.wan_bytes_wire, zipped.wan_bytes_raw);
}

// Drives one wiped-follower bootstrap and reports the leader-side WAN
// accounting plus whether the follower converged byte-identically.
// `warm` controls whether the wiped follower kept its committed store
// (the log device is always lost — WipeForBootstrap).
void RunReseed(bool warm, uint64_t* wire_bytes, uint64_t* chunks_declined,
               bool* identical) {
  MiniCluster::Options options = ReplicatedOptions();
  options.ds_tweak = [](datasource::DataSourceConfig* config) {
    config->migration_chunk_records = 64;  // 512 seeded records -> 8 chunks
  };
  MiniCluster cluster(options);

  // Seed a large committed range directly. The bootstrapping follower
  // holds it only in the warm run; its quorum peers always do.
  for (uint64_t off = 0; off < 512; ++off) {
    cluster.source(0).engine().store().Apply(cluster.KeyOn(0, off), 0);
    cluster.follower(0, 1).engine().store().Apply(cluster.KeyOn(0, off), 0);
    if (warm) {
      cluster.follower(0, 0).engine().store().Apply(cluster.KeyOn(0, off), 0);
    }
  }

  for (uint64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(
        cluster.RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t), 10)})
            .ok());
  }
  cluster.RunFor(2000);
  auto* leader_repl = cluster.source(0).replicator();
  ASSERT_GT(leader_repl->log().first_index(), 1u);  // compaction settled

  auto& wiped = cluster.follower(0, 0);
  wiped.Crash();
  wiped.replicator()->WipeForBootstrap();

  // More committed traffic while the follower is down; the touched keys
  // all land in the first 64-record chunk, so the remaining chunks stay
  // byte-identical to what a warm store already holds.
  for (uint64_t t = 10; t <= 14; ++t) {
    ASSERT_TRUE(
        cluster.RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t), 33)})
            .ok());
  }

  wiped.Restart();
  cluster.RunFor(4000);  // heartbeat -> gap nack -> offer/decline -> chunks

  const replication::ReplicatorStats& stats = leader_repl->stats();
  EXPECT_GE(stats.bootstrap_offers_sent, 1u);
  *wire_bytes = stats.wan_bytes_wire;
  *chunks_declined = stats.bootstrap_chunks_declined;
  EXPECT_GE(wiped.replicator()->applied_index(),
            leader_repl->commit_watermark());
  *identical = SortedStore(wiped) == SortedStore(cluster.source(0));
}

TEST(ReplicationTest, ReseedWithHeldStoreDeclinesChunksAndShipsLess) {
  uint64_t cold_wire = 0, warm_wire = 0;
  uint64_t cold_declined = 0, warm_declined = 0;
  bool cold_identical = false, warm_identical = false;
  RunReseed(/*warm=*/false, &cold_wire, &cold_declined, &cold_identical);
  RunReseed(/*warm=*/true, &warm_wire, &warm_declined, &warm_identical);

  // Cold: nothing to decline, the whole range re-crosses the WAN.
  EXPECT_EQ(cold_declined, 0u);
  EXPECT_GT(cold_wire, 0u);
  // Warm: every chunk outside the dirtied head is declined by hash and
  // never shipped, so the resumed seed is strictly cheaper.
  EXPECT_GT(warm_declined, 0u);
  EXPECT_LT(warm_wire, cold_wire);
  // Both end byte-identical to the leader's committed store.
  EXPECT_TRUE(cold_identical);
  EXPECT_TRUE(warm_identical);
}

}  // namespace
}  // namespace geotp
