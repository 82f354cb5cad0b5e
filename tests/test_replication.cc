// Replication subsystem tests: quorum-gated durability, leader failover
// with the bank-transfer balance-conservation invariant, stale-bounded
// follower reads, and rejoin/catch-up of a restarted leader.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/wire.h"
#include "replication/log_shipper.h"
#include "replication/replicator.h"
#include "replication/unresolved_prepares.h"
#include "runtime/codec.h"
#include "sim/event_loop.h"
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
std::vector<protocol::ReplEntry> Opened(
    const protocol::ReplAppendRequest& frame) {
  std::vector<protocol::ReplEntry> entries;
  EXPECT_TRUE(protocol::OpenAppendPayload(frame, &entries));
  return entries;
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
  EXPECT_EQ(wire::Pack(shipped), wire::Pack(log.Slice(1, 3)));
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

TEST(LogShipperTest, AppendStandsInForTheNextHeartbeat) {
  sim::EventLoop loop;
  CapturingTransport transport;
  replication::ReplicationLog log;
  replication::LogShipper shipper(1, &transport, &loop, &log);
  shipper.Activate(1, 1, {2, 3}, 2, 0);
  shipper.AppendAndShip(CommitEntry(1), nullptr);
  loop.Run();
  ASSERT_EQ(transport.TakeAppends().size(), 2u);
  shipper.OnAck(2, AckUpTo(1));  // follower 3 never acks

  // Both followers got an append since the last tick and are caught up:
  // that append was their heartbeat.
  shipper.Tick();
  EXPECT_TRUE(transport.TakeAppends().empty());
  // The next tick sends an empty heartbeat to each.
  shipper.Tick();
  std::vector<protocol::ReplAppendRequest> frames = transport.TakeAppends();
  ASSERT_EQ(frames.size(), 2u);
  for (const protocol::ReplAppendRequest& frame : frames) {
    EXPECT_TRUE(frame.payload.empty());
    EXPECT_EQ(frame.prev_index, 1u);
  }

  // Entry 2 is appended and the tick runs before the ship event: the
  // heartbeat it sent last time does not excuse a lagging follower, and
  // follower 3 rewinds to its match index and gets [1, 2] again.
  const uint64_t retransmissions = shipper.stats().retransmissions;
  shipper.AppendAndShip(CommitEntry(2), nullptr);
  shipper.Tick();
  loop.Run();
  frames = transport.TakeAppends();
  ASSERT_EQ(frames.size(), 2u);
  for (const protocol::ReplAppendRequest& frame : frames) {
    const std::vector<protocol::ReplEntry> entries = Opened(frame);
    if (frame.to == 2) {
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0].index, 2u);
    } else {
      EXPECT_EQ(frame.to, 3u);
      ASSERT_EQ(entries.size(), 2u);
      EXPECT_EQ(entries[0].index, 1u);
    }
  }
  EXPECT_EQ(shipper.stats().retransmissions, retransmissions + 2);
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

// A commit-carrying batch whose leader dies mid-commit is resolved as an
// in-doubt one-phase commit, never replayed: had the commit entry reached
// a quorum, a replay on the new leader would apply its delta twice.
TEST(ReplicationTest, OnePhaseCommitOnAQuorumSurvivesLeaderDeathOnce) {
  MiniCluster cluster(ReplicatedOptions());
  const RecordKey key = cluster.KeyOn(0, 5);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
  cluster.RunFor(500);
  replication::Replicator* follower = cluster.follower(0, 0).replicator();
  const uint64_t before = follower->log().last_index();

  cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  // Kill the leader the moment a follower holds the commit entry: leader
  // and follower make a quorum, but the leader never sees the ack, so it
  // neither commits locally nor responds.
  for (int step = 0; step < 100000 && follower->log().last_index() == before;
       ++step) {
    cluster.RunFor(0.01);
  }
  ASSERT_GT(follower->log().last_index(), before);
  ASSERT_FALSE(cluster.txn(2).has_result);
  cluster.source(0).Crash();
  cluster.RunFor(3000);  // election, announce, in-doubt resolution

  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_TRUE(cluster.txn(2).result.ok()) << cluster.txn(2).result.ToString();
  // Resolved from the log, which keeps no reads.
  EXPECT_TRUE(cluster.txn(2).result_values.empty());
  EXPECT_EQ(cluster.dm().InFlight(), 0u);

  cluster.source(0).Restart();
  cluster.RunFor(3000);  // the old leader rejoins and catches up
  for (datasource::DataSourceNode* replica : cluster.replica_group(0)) {
    const auto record = replica->engine().store().Get(key);
    ASSERT_TRUE(record.has_value()) << "replica " << replica->id();
    EXPECT_EQ(record->value, 105) << "replica " << replica->id();
  }
}

// The same batch with the leader dying before anything replicated: the
// branch died with it, so the in-doubt commit fails cleanly and the
// client sees an abort.
TEST(ReplicationTest, OnePhaseCommitLostWithTheLeaderAborts) {
  MiniCluster cluster(ReplicatedOptions());
  const RecordKey key = cluster.KeyOn(0, 5);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
  cluster.RunFor(500);
  datasource::DataSourceNode& leader = cluster.source(0);
  const uint64_t ops_before = leader.stats().ops_executed;
  std::vector<uint64_t> records_before;
  for (datasource::DataSourceNode* replica : cluster.replica_group(0)) {
    records_before.push_back(replica->committer().stats().entries);
  }

  cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  // Kill the leader as soon as the write applied locally.
  for (int step = 0; step < 100000 && leader.stats().ops_executed == ops_before;
       ++step) {
    cluster.RunFor(0.01);
  }
  ASSERT_GT(leader.stats().ops_executed, ops_before);
  leader.Crash();
  cluster.RunFor(3000);

  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_FALSE(cluster.txn(2).result.ok());
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
  // The promoted leader, which never held the branch, wrote no COMMIT
  // record for it.
  datasource::DataSourceNode* promoted = cluster.leader_of(0);
  ASSERT_NE(promoted, nullptr);
  ASSERT_NE(promoted, &leader);
  for (size_t i = 0; i < cluster.replica_group(0).size(); ++i) {
    if (cluster.replica_group(0)[i] != promoted) continue;
    EXPECT_EQ(promoted->committer().stats().entries, records_before[i]);
  }

  leader.Restart();
  cluster.RunFor(3000);
  for (datasource::DataSourceNode* replica : cluster.replica_group(0)) {
    const auto record = replica->engine().store().Get(key);
    ASSERT_TRUE(record.has_value()) << "replica " << replica->id();
    EXPECT_EQ(record->value, 100) << "replica " << replica->id();
    EXPECT_EQ(replica->engine().ActiveCount(), 0u);
  }
}

// A leader deposed while a commit-carrying batch waits on a lock must not
// commit it locally once the lock frees: the commit would reach neither
// the group log nor the new leader, and the old leader's store would
// diverge from the group's.
TEST(ReplicationTest, DeposedLeaderDoesNotCommitOnePhaseBatchLocally) {
  MiniCluster cluster(ReplicatedOptions());
  const RecordKey key = cluster.KeyOn(0, 5);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
  cluster.RunFor(500);
  datasource::DataSourceNode& old_leader = cluster.source(0);

  // Txn 2 holds the row lock; txn 3's commit-carrying batch queues behind.
  cluster.SendRound(2, {MiniCluster::Write(key, 1)}, /*last_round=*/false);
  cluster.RunFor(100);
  cluster.SendRound(3, {MiniCluster::Write(key, 5, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  cluster.RunFor(100);
  ASSERT_TRUE(old_leader.HasBranch(cluster.txn(2).txn_id));

  // Cut the leader off until a follower takes over, then let it back in:
  // it learns the new epoch and steps down with txn 3 still queued.
  cluster.network().Partition(old_leader.id());
  cluster.RunFor(2000);
  cluster.network().Restore(old_leader.id());
  cluster.RunFor(500);
  ASSERT_FALSE(old_leader.replicator()->IsLeader());
  ASSERT_NE(cluster.leader_of(0), nullptr);
  ASSERT_TRUE(cluster.txn(3).has_result);
  EXPECT_FALSE(cluster.txn(3).result.ok());  // in doubt, unknown there

  // Free the lock on the old leader: txn 3's batch now runs to its end.
  auto abort = std::make_unique<protocol::PeerAbortRequest>();
  abort->from = 0;
  abort->to = old_leader.id();
  abort->txn_id = cluster.txn(2).txn_id;
  cluster.network().Send(std::move(abort));
  cluster.RunFor(500);

  EXPECT_EQ(old_leader.stats().exec_commits, 0u);
  EXPECT_EQ(old_leader.engine().ActiveCount(), 0u);
  for (datasource::DataSourceNode* replica : cluster.replica_group(0)) {
    const auto record = replica->engine().store().Get(key);
    ASSERT_TRUE(record.has_value()) << "replica " << replica->id();
    EXPECT_EQ(record->value, 100) << "replica " << replica->id();
  }
}

// A term bump that re-elects the same leader leaves the batch in flight
// there: the leader kept the branch and still runs it. A replay would
// fail on the existing branch and abort the transaction; resolving a
// commit-carrying batch as in doubt would race it, and its commit still
// lands once the lock frees.
TEST(ReplicationTest, ReelectedLeaderKeepsBatchInFlight) {
  for (const bool bundled : {true, false}) {
    SCOPED_TRACE(bundled ? "COMMIT on the round" : "separate COMMIT");
    MiniCluster cluster(ReplicatedOptions());
    const RecordKey key = cluster.KeyOn(0, 5);
    ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
    cluster.RunFor(500);
    datasource::DataSourceNode& leader = cluster.source(0);
    const uint64_t epoch = leader.replicator()->epoch();
    const uint64_t failovers = cluster.dm().stats().failovers_observed;

    // Txn 2 holds the row lock; txn 3's batch queues behind it.
    cluster.SendRound(2, {MiniCluster::Write(key, 1)}, /*last_round=*/true);
    cluster.RunFor(100);
    cluster.SendRound(3, {MiniCluster::Write(key, 5, /*delta=*/true)},
                      /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                      /*commit=*/bundled);
    cluster.RunFor(100);
    ASSERT_EQ(leader.engine().ActiveCount(), 2u);

    // A follower cut off while the group commits elsewhere falls behind
    // and, back, forces an election with its higher term. Its stale log
    // cannot win: the same leader is re-elected at a higher epoch.
    datasource::DataSourceNode& follower = cluster.follower(0, 0);
    cluster.network().Partition(follower.id());
    cluster.SendRound(4, {MiniCluster::Write(cluster.KeyOn(0, 7), 3)},
                      /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                      /*commit=*/true);
    cluster.RunFor(300);
    ASSERT_TRUE(cluster.txn(4).has_result);
    cluster.network().Restore(follower.id());
    cluster.RunFor(1500);
    ASSERT_EQ(cluster.leader_of(0), &leader);
    ASSERT_GT(leader.replicator()->epoch(), epoch);
    ASSERT_EQ(cluster.dm().stats().failovers_observed, failovers + 1);
    EXPECT_FALSE(cluster.txn(3).has_result);
    EXPECT_EQ(cluster.dm().stats().branch_retries, 0u);

    // Txn 2 commits and frees the lock: txn 3's batch runs to its end.
    cluster.SendCommit(2);
    cluster.RunFor(1000);
    ASSERT_TRUE(cluster.txn(2).has_result);
    ASSERT_TRUE(cluster.txn(2).result.ok());
    if (!bundled) {
      ASSERT_EQ(cluster.txn(3).round_responses.size(), 1u);
      cluster.SendCommit(3);
      cluster.RunFor(1000);
    }
    ASSERT_TRUE(cluster.txn(3).has_result);
    EXPECT_TRUE(cluster.txn(3).result.ok())
        << cluster.txn(3).result.ToString();
    // Txn 4, and a bundled txn 3, committed as their batches ended.
    EXPECT_EQ(cluster.dm().stats().exec_commits, bundled ? 2u : 1u);
    EXPECT_EQ(cluster.dm().InFlight(), 0u);
    for (datasource::DataSourceNode* replica : cluster.replica_group(0)) {
      const auto record = replica->engine().store().Get(key);
      ASSERT_TRUE(record.has_value()) << "replica " << replica->id();
      EXPECT_EQ(record->value, 6) << "replica " << replica->id();
    }
  }
}

// ---------------------------------------------------------------------------
// Entries ship as their WAL record goes to the device
// ---------------------------------------------------------------------------

/// Replicated cluster whose group-0 seed leader (node 2) holds its WAL
/// records `batch_delay_ms` in the open group-commit batch and takes
/// `commit_fsync_ms` per COMMIT flush (0: the engine default).
MiniCluster::Options SlowLeaderWalOptions(double batch_delay_ms,
                                          double commit_fsync_ms = 0) {
  MiniCluster::Options options = ReplicatedOptions();
  options.ds_tweak_node = [batch_delay_ms, commit_fsync_ms](
                              NodeId node,
                              datasource::DataSourceConfig* config) {
    if (node != 2) return;
    config->group_commit.max_batch_delay = MsToMicros(batch_delay_ms);
    if (commit_fsync_ms > 0) {
      config->engine.commit_fsync_cost = MsToMicros(commit_fsync_ms);
    }
  };
  return options;
}

/// Every replica of group `group` holds `value` at `key` and no branch.
void ExpectGroupSettled(MiniCluster& cluster, int group, RecordKey key,
                        int64_t value) {
  for (datasource::DataSourceNode* replica : cluster.replica_group(group)) {
    const auto record = replica->engine().store().Get(key);
    ASSERT_TRUE(record.has_value()) << "replica " << replica->id();
    EXPECT_EQ(record->value, value) << "replica " << replica->id();
    EXPECT_TRUE(replica->engine().PreparedXids().empty())
        << "replica " << replica->id();
    EXPECT_EQ(replica->engine().ActiveCount(), 0u)
        << "replica " << replica->id();
    EXPECT_EQ(replica->replicator()->commit_waiters(), 0u)
        << "replica " << replica->id();
  }
}

// A leader deposed while its PREPARE record waits in the open batch never
// shipped the prepare entry, so the group has no prepare to vote for: the
// replica rolls the branch back and votes FAILURE instead of PREPARED (a
// PREPARED vote made the DM commit a branch the new leader never had).
TEST(ReplicationTest, LeaderDeposedBeforeItsPrepareShipsVotesFailure) {
  struct Timing {
    double batch_delay_ms;
    double partition_at_ms;
    double partition_for_ms;
  };
  for (const Timing& timing : {Timing{600, 150, 200}, Timing{500, 150, 200},
                               Timing{700, 150, 200}, Timing{450, 150, 200},
                               Timing{600, 120, 230}}) {
    SCOPED_TRACE("batch delay " + std::to_string(timing.batch_delay_ms) +
                 " ms, partition at " +
                 std::to_string(timing.partition_at_ms) + " ms");
    MiniCluster cluster(SlowLeaderWalOptions(timing.batch_delay_ms));
    const RecordKey a = cluster.KeyOn(0, 5);
    const RecordKey b = cluster.KeyOn(1, 6);
    ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(a, 100),
                                   MiniCluster::Write(b, 200)})
                    .ok());
    cluster.RunFor(1000);
    datasource::DataSourceNode& old_leader = cluster.source(0);

    cluster.SendRound(2, {MiniCluster::Write(a, 5, /*delta=*/true),
                          MiniCluster::Write(b, 6, /*delta=*/true)},
                      /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                      /*commit=*/true);
    cluster.RunFor(timing.partition_at_ms);
    cluster.network().Partition(old_leader.id());
    cluster.RunFor(timing.partition_for_ms);
    cluster.network().Restore(old_leader.id());
    cluster.RunFor(5000);

    ASSERT_TRUE(cluster.txn(2).has_result);
    EXPECT_FALSE(cluster.txn(2).result.ok());
    EXPECT_EQ(cluster.dm().InFlight(), 0u);
    EXPECT_FALSE(old_leader.replicator()->IsLeader());
    EXPECT_FALSE(old_leader.HasBranch(cluster.txn(2).txn_id));
    ExpectGroupSettled(cluster, 0, a, 100);
    ExpectGroupSettled(cluster, 1, b, 200);
  }
}

// A term bump that re-elects the leader while its PREPARE record still
// waits in the open batch: the step-down cut the entry, which never
// shipped, so at flush end the prepare is outside the group although the
// node leads again. It votes FAILURE and the transaction aborts; the
// re-elected leader does not ship the entry late.
TEST(ReplicationTest, ReelectedBeforeItsPrepareShipsVotesFailure) {
  MiniCluster cluster(SlowLeaderWalOptions(400));
  const RecordKey a = cluster.KeyOn(0, 5);
  const RecordKey b = cluster.KeyOn(1, 6);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(a, 100),
                                 MiniCluster::Write(b, 200)})
                  .ok());
  cluster.RunFor(500);
  datasource::DataSourceNode& leader = cluster.source(0);
  const uint64_t epoch = leader.replicator()->epoch();

  // A follower cut off while the group commits falls behind; back, it
  // forces an election its stale log cannot win.
  datasource::DataSourceNode& follower = cluster.follower(0, 0);
  cluster.network().Partition(follower.id());
  ASSERT_TRUE(
      cluster.RunBundledTxn(3, {MiniCluster::Write(cluster.KeyOn(0, 7), 3)})
          .ok());
  cluster.SendRound(2, {MiniCluster::Write(a, 5, /*delta=*/true),
                        MiniCluster::Write(b, 6, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  for (int step = 0; step < 100000 && leader.committer().pending() == 0;
       ++step) {
    cluster.RunFor(0.1);
  }
  ASSERT_EQ(leader.committer().pending(), 1u);  // the PREPARE, unstarted
  // Its entry is the log's last, not shipped yet.
  const replication::ReplicationLog& log = leader.replicator()->log();
  ASSERT_EQ(log.At(log.last_index()).type, protocol::ReplEntryType::kPrepare);
  const TxnId txn = log.At(log.last_index()).xid.txn_id;
  replication::Replicator* other = cluster.follower(0, 1).replicator();
  ASSERT_LT(other->log().last_index(), log.last_index());
  cluster.network().Restore(follower.id());
  cluster.RunFor(200);
  ASSERT_EQ(cluster.leader_of(0), &leader);
  ASSERT_GT(leader.replicator()->epoch(), epoch);
  ASSERT_EQ(leader.committer().pending(), 1u);  // re-elected in the window
  EXPECT_EQ(leader.replicator()->PrepareEntryIndex(txn), 0u);
  cluster.RunFor(3000);

  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_EQ(cluster.txn(2).result.message(), "participant voted FAILURE");
  EXPECT_EQ(other->PrepareEntryIndex(txn), 0u);
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
  EXPECT_FALSE(leader.HasBranch(txn));
  ExpectGroupSettled(cluster, 0, a, 100);
  ExpectGroupSettled(cluster, 1, b, 200);
}

// A leader partitioned before its PREPARE record flushes ships the entry
// at flush start, still believing it leads, and the entry never leaves.
// The DM aborts the transaction once no vote resurfaces, and the new
// leader's first entry (its term's no-op) cuts the divergent prepare from
// the deposed node's log: that rolls its branch back and frees the row
// lock instead of leaving a prepared branch behind for good.
TEST(ReplicationTest, CutPrepareEntryRollsBackTheDeposedLeadersBranch) {
  MiniCluster cluster(SlowLeaderWalOptions(400));
  const RecordKey a = cluster.KeyOn(0, 5);
  const RecordKey b = cluster.KeyOn(1, 6);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(a, 100),
                                 MiniCluster::Write(b, 200)})
                  .ok());
  cluster.RunFor(1000);
  datasource::DataSourceNode& old_leader = cluster.source(0);

  cluster.SendRound(2, {MiniCluster::Write(a, 5, /*delta=*/true),
                        MiniCluster::Write(b, 6, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  cluster.RunFor(150);
  cluster.network().Partition(old_leader.id());
  cluster.RunFor(500);
  cluster.network().Restore(old_leader.id());
  cluster.RunFor(3000);
  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_EQ(cluster.txn(2).result.message(), "prepare lost in failover");
  ASSERT_FALSE(old_leader.replicator()->IsLeader());
  EXPECT_FALSE(old_leader.HasBranch(cluster.txn(2).txn_id));

  // Two later commits to the same key through the new leader.
  ASSERT_TRUE(cluster.RunBundledTxn(3, {MiniCluster::Write(a, 1, true)}).ok());
  ASSERT_TRUE(cluster.RunBundledTxn(4, {MiniCluster::Write(a, 1, true)}).ok());
  cluster.RunFor(1000);
  EXPECT_FALSE(old_leader.HasBranch(cluster.txn(2).txn_id));
  ExpectGroupSettled(cluster, 0, a, 102);
  ExpectGroupSettled(cluster, 1, b, 200);
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
}

// The leader of group 0 holds its execute response while the branch's
// PREPARE entry waits for a quorum, and is cut off right then: the entry
// has shipped, so the promoted follower holds the branch in doubt. A
// bundled COMMIT resolves in doubt on the new leader's re-vote and
// commits, with no reads in its result; a separate COMMIT's round cannot
// answer its reads and aborts. Neither wedges, and both groups settle.
TEST(ReplicationTest, LeaderDeposedWhileHoldingItsVoteCarryingResponse) {
  for (const bool bundled : {true, false}) {
    SCOPED_TRACE(bundled ? "COMMIT on the round" : "separate COMMIT");
    // Followers 10 ms from their leader: the quorum acks come well after
    // the leader's own flush.
    MiniCluster::Options options = ReplicatedOptions();
    options.follower_rtt_ms = 20;
    MiniCluster cluster(options);
    const RecordKey a = cluster.KeyOn(0, 5);
    const RecordKey b = cluster.KeyOn(1, 6);
    ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(a, 100),
                                   MiniCluster::Write(b, 200)})
                    .ok());
    cluster.RunFor(1000);
    datasource::DataSourceNode& old_leader = cluster.source(0);
    const uint64_t held_before = old_leader.stats().votes_on_response;

    cluster.SendRound(2, {MiniCluster::Write(a, 5, /*delta=*/true),
                          MiniCluster::Read(cluster.KeyOn(0, 9)),
                          MiniCluster::Write(b, 6, /*delta=*/true)},
                      /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                      /*commit=*/bundled);
    // Step until the branch is prepared locally: its entry shipped at the
    // flush start, and the quorum acks are still on their way back.
    for (int step = 0;
         step < 100000 && old_leader.engine().PreparedXids().empty();
         ++step) {
      cluster.RunFor(0.05);
    }
    ASSERT_EQ(old_leader.engine().PreparedXids().size(), 1u);
    ASSERT_EQ(old_leader.stats().votes_on_response, held_before);
    cluster.network().Partition(old_leader.id());
    cluster.RunFor(3000);
    cluster.network().Restore(old_leader.id());
    cluster.RunFor(2000);
    if (!bundled && !cluster.txn(2).has_result) {
      cluster.SendCommit(2);
      cluster.RunFor(2000);
    }

    ASSERT_TRUE(cluster.txn(2).has_result);
    EXPECT_EQ(cluster.dm().InFlight(), 0u);
    EXPECT_EQ(cluster.dm().stats().branch_retries, bundled ? 0u : 1u);
    EXPECT_FALSE(old_leader.replicator()->IsLeader());
    EXPECT_FALSE(old_leader.HasBranch(cluster.txn(2).txn_id));
    if (bundled) {
      EXPECT_TRUE(cluster.txn(2).result.ok())
          << cluster.txn(2).result.ToString();
      EXPECT_TRUE(cluster.txn(2).result_values.empty());
      uint64_t revotes = 0;
      for (datasource::DataSourceNode* replica : cluster.replica_group(0)) {
        revotes += replica->replicator()->stats().revotes_sent;
      }
      EXPECT_EQ(revotes, 1u);
      ExpectGroupSettled(cluster, 0, a, 105);
      ExpectGroupSettled(cluster, 1, b, 206);
    } else {
      EXPECT_FALSE(cluster.txn(2).result.ok());
      ExpectGroupSettled(cluster, 0, a, 100);
      ExpectGroupSettled(cluster, 1, b, 200);
    }
  }
}

// The COMMIT entry ships as the record goes to the device, so it can
// reach the followers, and a quorum of them, before the leader's own flush
// ends. A leader that dies then leaves a decided commit: the new leader
// confirms it, and the old leader applies it once it rejoins, although it
// had seen the entry at quorum.
TEST(ReplicationTest, LeaderDeadMidFlushAfterShippingItsCommitStillCommits) {
  for (const bool at_quorum : {false, true}) {
    SCOPED_TRACE(at_quorum ? "crash once the entry is at quorum"
                           : "crash once a follower holds the entry");
    MiniCluster cluster(SlowLeaderWalOptions(0, /*commit_fsync_ms=*/30));
    const RecordKey key = cluster.KeyOn(0, 5);
    ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
    cluster.RunFor(500);
    datasource::DataSourceNode& leader = cluster.source(0);
    replication::Replicator* follower = cluster.follower(0, 0).replicator();
    const uint64_t before = leader.replicator()->log().last_index();
    const auto shipped = [&]() {
      return at_quorum ? leader.replicator()->commit_watermark() > before
                       : follower->log().last_index() > before;
    };

    cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                      /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                      /*commit=*/true);
    for (int step = 0; step < 100000 && !shipped(); ++step) {
      cluster.RunFor(0.01);
    }
    ASSERT_TRUE(shipped());
    // The COMMIT record is still on the WAL device.
    ASSERT_EQ(leader.committer().pending(), 1u);
    ASSERT_FALSE(cluster.txn(2).has_result);
    leader.Crash();
    cluster.RunFor(3000);

    ASSERT_TRUE(cluster.txn(2).has_result);
    EXPECT_TRUE(cluster.txn(2).result.ok())
        << cluster.txn(2).result.ToString();
    EXPECT_EQ(cluster.dm().InFlight(), 0u);
    leader.Restart();
    cluster.RunFor(3000);
    ExpectGroupSettled(cluster, 0, key, 105);
  }
}

// A crash keeps only the durable prefix of a replica's log: the COMMIT
// entry shipped at flush start, but its record never flushed here, so the
// restarted replica's log ends before it. The followers committed the
// entry without the dead leader, and the rejoined replica gets it back
// from the new leader.
TEST(ReplicationTest, CrashCutsTheLogBackToItsDurablePrefix) {
  MiniCluster cluster(SlowLeaderWalOptions(0, /*commit_fsync_ms=*/30));
  const RecordKey key = cluster.KeyOn(0, 5);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
  cluster.RunFor(500);
  datasource::DataSourceNode& leader = cluster.source(0);
  replication::Replicator* follower = cluster.follower(0, 0).replicator();
  const uint64_t durable = leader.replicator()->log().last_index();

  cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  for (int step = 0; step < 100000 && follower->log().last_index() == durable;
       ++step) {
    cluster.RunFor(0.01);
  }
  ASSERT_EQ(follower->log().last_index(), durable + 1);
  ASSERT_EQ(leader.replicator()->log().last_index(), durable + 1);
  ASSERT_EQ(leader.committer().pending(), 1u);  // still flushing
  leader.Crash();
  EXPECT_EQ(leader.replicator()->log().last_index(), durable);
  cluster.RunFor(3000);
  EXPECT_EQ(leader.replicator()->log().last_index(), durable);

  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_TRUE(cluster.txn(2).result.ok()) << cluster.txn(2).result.ToString();
  leader.Restart();
  cluster.RunFor(3000);
  EXPECT_GT(leader.replicator()->log().last_index(), durable);
  ExpectGroupSettled(cluster, 0, key, 105);
}

// A leader partitioned while its COMMIT record waits in the open batch
// ships the entry into the partition at flush start. The new leader never
// saw it, so the in-doubt one-phase commit aborts; once the new leader's
// entries cut the deposed node's divergent tail, that node rolls the
// branch back too, and a later commit there leaves it clean.
TEST(ReplicationTest, CommitShippedIntoAPartitionAbortsEverywhere) {
  MiniCluster cluster(SlowLeaderWalOptions(300));
  const RecordKey key = cluster.KeyOn(0, 5);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
  cluster.RunFor(1000);
  datasource::DataSourceNode& old_leader = cluster.source(0);
  const uint64_t before = old_leader.replicator()->log().last_index();

  cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  cluster.RunFor(100);
  ASSERT_EQ(old_leader.committer().pending(), 1u);  // waits in the batch
  cluster.network().Partition(old_leader.id());
  cluster.RunFor(1000);
  // It shipped the entry as the batch flushed, still believing it led.
  EXPECT_EQ(old_leader.replicator()->log().last_index(), before + 1);
  cluster.network().Restore(old_leader.id());
  cluster.RunFor(3000);
  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_FALSE(cluster.txn(2).result.ok());
  ASSERT_FALSE(old_leader.replicator()->IsLeader());

  ASSERT_TRUE(
      cluster.RunBundledTxn(3, {MiniCluster::Write(cluster.KeyOn(0, 7), 3)})
          .ok());
  cluster.RunFor(1000);
  EXPECT_FALSE(old_leader.HasBranch(cluster.txn(2).txn_id));
  ExpectGroupSettled(cluster, 0, key, 100);
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
}

// A term bump that re-elects the leader while its COMMIT record flushes:
// the entry shipped before the step-down, and the commit completes once
// the flush ends, as the DM expects of a leader that kept the batch. The
// commit counts once however it was made here.
TEST(ReplicationTest, LeaderReelectedMidFlushCompletesItsCommit) {
  for (const double commit_fsync_ms : {60.0, 400.0}) {
    SCOPED_TRACE("COMMIT flush of " + std::to_string(commit_fsync_ms) +
                 " ms");
    MiniCluster cluster(SlowLeaderWalOptions(0, commit_fsync_ms));
    const RecordKey key = cluster.KeyOn(0, 5);
    ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
    cluster.RunFor(500);
    datasource::DataSourceNode& leader = cluster.source(0);
    const uint64_t epoch = leader.replicator()->epoch();

    // A follower cut off while the group commits falls behind; back, it
    // forces an election its stale log cannot win.
    datasource::DataSourceNode& follower = cluster.follower(0, 0);
    cluster.network().Partition(follower.id());
    ASSERT_TRUE(
        cluster.RunBundledTxn(3, {MiniCluster::Write(cluster.KeyOn(0, 7), 3)})
            .ok());
    const uint64_t commits = leader.stats().commits;
    cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                      /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                      /*commit=*/true);
    cluster.RunFor(20);
    ASSERT_EQ(leader.committer().pending(), 1u);
    cluster.network().Restore(follower.id());
    cluster.RunFor(3000);

    ASSERT_EQ(cluster.leader_of(0), &leader);
    EXPECT_GT(leader.replicator()->epoch(), epoch);
    ASSERT_TRUE(cluster.txn(2).has_result);
    EXPECT_TRUE(cluster.txn(2).result.ok())
        << cluster.txn(2).result.ToString();
    EXPECT_EQ(leader.committer().pending(), 0u);
    // Counted once, whether the log or the flush end committed it.
    EXPECT_EQ(leader.stats().commits, commits + 1);
    EXPECT_EQ(cluster.dm().InFlight(), 0u);
    ExpectGroupSettled(cluster, 0, key, 105);
  }
}

// A partition shorter than an election while the leader's COMMIT record
// flushes: the leader keeps the leadership, and the entry it shipped into
// the partition (or that its followers acked just before) leaves again on
// the heartbeat once the partition heals, so the group commits the write.
//
// When the flush ends inside the partition with the entry already at
// quorum, the one-phase batch's response leaves into the partition and is
// lost. The DM re-sends nothing unless a LeaderAnnounce arrives, and a
// leader that kept its term sends none, so that transaction gets no
// result although it committed. This expectation tracks that open DM
// defect (CHANGES.md, the MiddlewareNode no-resend FOUND line) and flips
// once the DM re-sends.
TEST(ReplicationTest, SubElectionPartitionDuringACommitFlush) {
  struct Timing {
    double partition_at_ms;  ///< after the COMMIT record went to the device
    double partition_for_ms;
    bool response_lost;
  };
  for (const Timing& timing :
       {Timing{0, 100, false}, Timing{30, 100, true}}) {
    SCOPED_TRACE("partition at " + std::to_string(timing.partition_at_ms) +
                 " ms into the flush");
    MiniCluster cluster(SlowLeaderWalOptions(0, /*commit_fsync_ms=*/60));
    const RecordKey key = cluster.KeyOn(0, 5);
    ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
    cluster.RunFor(500);
    datasource::DataSourceNode& leader = cluster.source(0);
    const uint64_t epoch = leader.replicator()->epoch();

    cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                      /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                      /*commit=*/true);
    for (int step = 0; step < 100000 && leader.committer().pending() == 0;
         ++step) {
      cluster.RunFor(0.01);
    }
    ASSERT_EQ(leader.committer().pending(), 1u);
    cluster.RunFor(timing.partition_at_ms);
    cluster.network().Partition(leader.id());
    cluster.RunFor(timing.partition_for_ms);
    cluster.network().Restore(leader.id());
    cluster.RunFor(3000);

    EXPECT_EQ(cluster.leader_of(0), &leader);
    EXPECT_EQ(leader.replicator()->epoch(), epoch);
    ExpectGroupSettled(cluster, 0, key, 105);
    if (timing.response_lost) {
      EXPECT_FALSE(cluster.txn(2).has_result);
      EXPECT_EQ(cluster.dm().InFlight(), 1u);
    } else {
      ASSERT_TRUE(cluster.txn(2).has_result);
      EXPECT_TRUE(cluster.txn(2).result.ok());
      EXPECT_EQ(cluster.dm().InFlight(), 0u);
    }
  }
}

// The same re-election with an outbound migration on the written key: the
// promotion barrier applies the commit entry while the COMMIT record still
// flushes, and that apply commits the branch the leader holds. It must do
// a commit's bookkeeping there, counting the commit and forwarding the
// write as a delta: the flush end then finds the branch committed, and a
// write set captured there is empty, so without it the destination ends
// the migration without the write.
TEST(ReplicationTest, ReelectedLeaderForwardsAMidFlushCommitToItsMigration) {
  MiniCluster::Options options = ReplicatedOptions();
  options.num_data_sources = 2;
  options.rtts_ms = {10.0, 100.0};
  options.sharding = true;
  options.chunks_per_source = 4;
  options.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 16;
    ds->migration_stream_window = 1;
    ds->migration_apply_cost = 2000;  // 32 ms per chunk: a long stream
  };
  options.ds_tweak_node = [](NodeId node,
                             datasource::DataSourceConfig* config) {
    if (node == 3) config->engine.commit_fsync_cost = MsToMicros(400);
  };
  MiniCluster cluster(options);
  cluster.PreloadRange(1, 250);  // source 1's first chunk, [1000, 1250)
  const RecordKey key = cluster.KeyOn(1, 0);
  datasource::DataSourceNode& leader = cluster.source(1);
  const uint64_t epoch = leader.replicator()->epoch();

  // A follower cut off while the group commits falls behind; back, it
  // forces an election its stale log cannot win.
  datasource::DataSourceNode& follower = cluster.follower(1, 0);
  cluster.network().Partition(follower.id());
  ASSERT_TRUE(
      cluster.RunBundledTxn(1, {MiniCluster::Write(cluster.KeyOn(1, 300), 3)})
          .ok());

  auto migrate = std::make_unique<protocol::ShardMigrateRequest>();
  migrate->from = 0;
  migrate->to = leader.id();
  migrate->migration_id = 7;
  migrate->range = sharding::ShardRange{1, 1000, 1250, leader.id(), 0};
  migrate->dest = 2;
  migrate->dest_leader = 2;
  migrate->new_version = 1;
  cluster.network().Send(std::move(migrate));
  cluster.RunFor(150);  // the key's chunk went out with its old value
  ASSERT_GT(leader.migrator().stats().stream.snapshot_chunks_sent, 0u);
  ASSERT_EQ(leader.migrator().stats().stream.streams_completed, 0u);

  const uint64_t commits = leader.stats().commits;
  cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  for (int step = 0; step < 100000 && leader.committer().pending() == 0;
       ++step) {
    cluster.RunFor(0.1);
  }
  ASSERT_EQ(leader.committer().pending(), 1u);
  cluster.network().Restore(follower.id());
  cluster.RunFor(6000);

  ASSERT_EQ(cluster.leader_of(1), &leader);
  EXPECT_GT(leader.replicator()->epoch(), epoch);
  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_TRUE(cluster.txn(2).result.ok()) << cluster.txn(2).result.ToString();
  EXPECT_EQ(leader.stats().commits, commits + 1);
  ASSERT_EQ(cluster.cutovers().size(), 1u);
  const auto moved = cluster.source(0).engine().store().Get(key);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->value, 5);
}

// A leader counts its own copy of an entry toward the quorum only once the
// entry's WAL record is durable here. With one follower cut off, the other
// follower's ack alone is not a quorum: the watermark waits for the
// leader's flush, and passes the entry as soon as the flush ends.
TEST(ReplicationTest, LeaderCountsItsOwnCopyOnceItsRecordFlushed) {
  MiniCluster cluster(SlowLeaderWalOptions(0, /*commit_fsync_ms=*/30));
  const RecordKey key = cluster.KeyOn(0, 5);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(key, 100)}).ok());
  cluster.RunFor(500);
  datasource::DataSourceNode& leader = cluster.source(0);
  replication::Replicator* follower = cluster.follower(0, 0).replicator();
  cluster.network().Partition(cluster.follower(0, 1).id());
  const uint64_t before = leader.replicator()->log().last_index();

  cluster.SendRound(2, {MiniCluster::Write(key, 5, /*delta=*/true)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  for (int step = 0; step < 100000 && follower->log().last_index() == before;
       ++step) {
    cluster.RunFor(0.01);
  }
  ASSERT_GT(follower->log().last_index(), before);
  cluster.RunFor(5);  // the follower's ack is back; the flush takes 30 ms
  ASSERT_EQ(leader.committer().pending(), 1u);
  EXPECT_EQ(leader.replicator()->commit_watermark(), before);
  for (int step = 0; step < 100000 && leader.committer().pending() > 0;
       ++step) {
    cluster.RunFor(0.01);
  }
  EXPECT_EQ(leader.committer().pending(), 0u);
  EXPECT_EQ(leader.replicator()->commit_watermark(), before + 1);
  cluster.RunFor(100);
  ASSERT_TRUE(cluster.txn(2).has_result);
  EXPECT_TRUE(cluster.txn(2).result.ok());
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

TEST(ReplicationTest, WriteWithFollowerReadCommitsOnePhase) {
  // The last round writes on source 0 and reads source 1 through a
  // follower. The follower read begins no branch, so the writing branch
  // alone votes (IDLE) and commits one-phase. Counting every participant
  // instead left the transaction waiting for a second vote forever, with
  // the write's locks held.
  MiniCluster::Options options = ReplicatedOptions();
  options.dm.follower_reads = true;
  options.dm.follower_read_stale_bound = MsToMicros(500);
  MiniCluster cluster(options);
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(1, 4), 8)})
                  .ok());
  cluster.RunFor(200);

  const Status st =
      cluster.RunTxn(2, {MiniCluster::Write(cluster.KeyOn(0, 4), 5),
                         MiniCluster::Read(cluster.KeyOn(1, 4))});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(cluster.txn(2).round_responses[0].values[1], 8);
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
  EXPECT_GE(cluster.dm().stats().follower_reads, 1u);
  EXPECT_EQ(cluster.dm().stats().committed_distributed, 0u);
  EXPECT_EQ(cluster.source(0).engine().store().Get(cluster.KeyOn(0, 4))->value,
            5);
}

TEST(ReplicationTest, TwoPcTxnOfFollowerReadsOnlyCommits) {
  // Under 2PC a transaction that reads two sources through followers has
  // two participants and no begun branch: nothing to prepare, nothing to
  // commit. Counting participants sent it to wait for votes that never
  // come.
  MiniCluster::Options options = ReplicatedOptions();
  options.dm = MiddlewareConfig::SSP();
  options.dm.follower_reads = true;
  options.dm.follower_read_stale_bound = MsToMicros(500);
  MiniCluster cluster(options);
  cluster.RunFor(200);

  const Status st = cluster.RunTxn(1, {MiniCluster::Read(cluster.KeyOn(0, 4)),
                                       MiniCluster::Read(cluster.KeyOn(1, 4))});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
  EXPECT_EQ(cluster.dm().stats().follower_reads, 2u);
  EXPECT_EQ(cluster.dm().stats().decisions_sent, 0u);
}

TEST(ReplicationTest, IdleBranchPreparesWhenFollowerReadFallsBack) {
  // As above, but the follower is too stale and the read falls back to
  // the leader, beginning a second branch after the write's branch voted
  // IDLE: the write's branch is told to prepare, and both commit.
  MiniCluster::Options options = ReplicatedOptions();
  options.dm.follower_reads = true;
  options.repl.heartbeat_interval = SecToMicros(5);
  options.repl.election_timeout = SecToMicros(30);
  options.repl.election_stagger = SecToMicros(1);
  options.dm.follower_read_stale_bound = MsToMicros(1);
  MiniCluster cluster(options);

  const Status st =
      cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 4), 5),
                         MiniCluster::Read(cluster.KeyOn(1, 4))});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
  EXPECT_GE(cluster.dm().stats().follower_read_fallbacks, 1u);
  EXPECT_EQ(cluster.source(0).stats().explicit_prepares, 1u);
  EXPECT_EQ(cluster.dm().stats().committed_distributed, 1u);
  EXPECT_EQ(cluster.source(0).engine().store().Get(cluster.KeyOn(0, 4))->value,
            5);
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
  MiniCluster::Options options = ReplicatedOptions();
  options.dm.follower_reads = true;
  MiniCluster cluster(options);
  cluster.RunFor(500);
  // Pre-failover: the monitor pings the seed leader (and, with follower
  // reads on, the followers for nearest-replica routing), so all replicas
  // have RTT estimates.
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
  const uint64_t pongs_before = monitor.stats().pongs_received;
  const Micros logical_estimate = monitor.RttEstimate(2);  // logical id of group 0
  EXPECT_GT(logical_estimate, 0);
  cluster.RunFor(500);
  EXPECT_GT(monitor.stats().pongs_received, pongs_before);
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

TEST(ReplicationTest, MonitorPingsOnlyLeadersWithoutFollowerReads) {
  MiniCluster cluster(ReplicatedOptions());
  cluster.RunFor(500);
  auto& monitor = cluster.dm().monitor();
  for (int group = 0; group < 2; ++group) {
    EXPECT_GT(monitor.RttEstimate(cluster.source(group).id()), 0);
    for (int k = 0; k < 2; ++k) {
      const NodeId follower = cluster.follower(group, k).id();
      EXPECT_EQ(monitor.RttEstimate(follower), 0) << "follower " << follower;
      EXPECT_EQ(monitor.SampleAge(follower),
                std::numeric_limits<Micros>::max());
    }
  }
  // A promoted follower is a leader: it is pinged from then on.
  cluster.source(0).Crash();
  cluster.RunFor(3000);
  datasource::DataSourceNode* new_leader = cluster.leader_of(0);
  ASSERT_NE(new_leader, nullptr);
  EXPECT_GT(monitor.RttEstimate(new_leader->id()), 0);
  EXPECT_LT(monitor.SampleAge(new_leader->id()), MsToMicros(500));
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
// Sealed WAN streams + bootstrap re-seed stream
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

// Every batch ships sealed and compressed: followers open the stream and
// apply every commit, and the leader put fewer bytes on the wire than it
// packed.
TEST(ReplicationTest, CompressedLogStreamConverges) {
  MiniCluster cluster(ReplicatedOptions());
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
  const replication::LogShipperStats& zipped =
      cluster.source(0).replicator()->shipper_stats();
  EXPECT_GT(zipped.wan_bytes_raw, 0u);
  EXPECT_LT(zipped.wan_bytes_wire, zipped.wan_bytes_raw);
}

// Group 0 with `records` committed records (key offsets first_off ..
// first_off + records - 1) seeded on the leader and on follower 1 (and on
// follower 0 too when `warm`), `chunk_records` records per re-seed chunk.
// Six commits to seeded keys follow and the leader compacts its log.
std::unique_ptr<MiniCluster> SeededCluster(bool warm, uint64_t first_off,
                                           uint64_t records = 512,
                                           uint64_t chunk_records = 64) {
  MiniCluster::Options options = ReplicatedOptions();
  options.ds_tweak = [chunk_records](datasource::DataSourceConfig* config) {
    config->migration_chunk_records = chunk_records;
  };
  auto cluster = std::make_unique<MiniCluster>(options);
  for (uint64_t off = first_off; off < first_off + records; ++off) {
    cluster->source(0).engine().store().Apply(cluster->KeyOn(0, off), 0);
    cluster->follower(0, 1).engine().store().Apply(cluster->KeyOn(0, off),
                                                   0);
    if (warm) {
      cluster->follower(0, 0).engine().store().Apply(cluster->KeyOn(0, off),
                                                     0);
    }
  }
  for (uint64_t t = 1; t <= 6; ++t) {
    EXPECT_TRUE(
        cluster->RunTxn(t, {MiniCluster::Write(cluster->KeyOn(0, t), 10)})
            .ok());
  }
  cluster->RunFor(2000);
  EXPECT_GT(cluster->source(0).replicator()->log().first_index(), 1u);
  return cluster;
}

// SeededCluster, then follower 0 loses its log device (WipeForBootstrap
// keeps the store) and five more commits land while it is down.
std::unique_ptr<MiniCluster> WipedFollowerCluster(
    bool warm, uint64_t first_off = 0, uint64_t records = 512,
    uint64_t chunk_records = 64) {
  auto cluster = SeededCluster(warm, first_off, records, chunk_records);
  auto& wiped = cluster->follower(0, 0);
  wiped.Crash();
  wiped.replicator()->WipeForBootstrap();
  for (uint64_t t = 10; t <= 14; ++t) {
    EXPECT_TRUE(
        cluster->RunTxn(t, {MiniCluster::Write(cluster->KeyOn(0, t), 33)})
            .ok());
  }
  return cluster;
}

// Restarts the wiped follower 0 of group 0 and cuts it off the network
// the moment the leader's re-seed stream starts, so what it sent (chunk
// 1, all the initial credit allows) is lost in flight; restores it 60 ms
// later (well inside the election timeout) without it having installed
// anything.
void LoseFirstBootstrapStream(MiniCluster& cluster) {
  auto& wiped = cluster.follower(0, 0);
  const replication::SnapshotStreamStats& leader =
      cluster.source(0).replicator()->stats().reseed;
  wiped.Restart();
  for (int step = 0; step < 20000 && leader.snapshot_chunks_sent == 0;
       ++step) {
    cluster.RunFor(0.1);
  }
  ASSERT_GT(leader.snapshot_chunks_sent, 0u);
  cluster.network().Partition(wiped.id());
  cluster.RunFor(60);
  EXPECT_EQ(wiped.replicator()->stats().snapshot_installs, 0u);
  cluster.network().Restore(wiped.id());
}

// The bootstrapped follower 0 applied everything `leader` committed and
// holds its committed store byte for byte.
void ExpectConverged(MiniCluster& cluster,
                     datasource::DataSourceNode* leader = nullptr) {
  if (leader == nullptr) leader = &cluster.source(0);
  auto& wiped = cluster.follower(0, 0);
  EXPECT_EQ(wiped.replicator()->stats().snapshot_installs, 1u);
  EXPECT_GE(wiped.replicator()->applied_index(),
            leader->replicator()->commit_watermark());
  EXPECT_EQ(SortedStore(wiped), SortedStore(*leader));
}

// Hands `node` a bootstrap chunk only when `keep` accepts it (the rest
// are lost at its NIC); every other message passes through.
void KeepChunksWhere(
    MiniCluster& cluster, NodeId node,
    std::function<bool(const protocol::ShardSnapshotChunk&)> keep) {
  sim::Network& network = cluster.network();
  network.RegisterNode(
      node, [inner = network.handler(node), keep = std::move(keep)](
                std::unique_ptr<runtime::MessageBase> msg) {
        if (msg->type() == runtime::MessageType::kShardSnapshotChunk &&
            !keep(static_cast<const protocol::ShardSnapshotChunk&>(*msg))) {
          return;
        }
        inner(std::move(msg));
      });
}

// Warm (store kept) or cold (store empty), a wiped follower receives the
// same full stream: 8 chunks for 512 records at 64 per chunk, each sealed
// and sent once, and ends byte-identical to the leader.
TEST(ReplicationTest, WarmAndColdReseedsStreamEveryChunkOnceAndConverge) {
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    auto cluster = WipedFollowerCluster(warm);
    ASSERT_EQ(cluster->source(0).engine().CommittedRecords().size(), 512u);
    cluster->follower(0, 0).Restart();
    cluster->RunFor(4000);  // heartbeat -> gap nack -> stream -> tail
    const replication::SnapshotStreamStats& sent =
        cluster->source(0).replicator()->stats().reseed;
    EXPECT_EQ(sent.snapshot_chunks_sent, 8u);
    EXPECT_EQ(sent.chunks_sealed, 8u);
    EXPECT_EQ(sent.chunk_retransmits, 0u);
    EXPECT_EQ(sent.streams_completed, 1u);
    ExpectConverged(*cluster);
  }
}

// Only what was lost is re-sent: the stream's first chunk dies in the
// partition and the leader's resend timer re-sends that one chunk, a copy
// of its sealed envelope.
TEST(ReplicationTest, BootstrapStreamLostToAPartitionIsReSent) {
  auto cluster = WipedFollowerCluster(/*warm=*/false);
  LoseFirstBootstrapStream(*cluster);
  cluster->RunFor(4000);
  const replication::SnapshotStreamStats& sent =
      cluster->source(0).replicator()->stats().reseed;
  EXPECT_EQ(sent.snapshot_chunks_sent, 8u);
  EXPECT_EQ(sent.chunks_sealed, 8u);
  EXPECT_EQ(sent.chunk_retransmits, 1u);
  ExpectConverged(*cluster);
}

// A key committed while the stream runs, behind its cursor: no chunk
// carries it, and it reaches the follower through the log tail shipped
// after the install. Chunks 5..8 are lost (and re-sent as copies) until
// the key has committed below every chunk's first key.
TEST(ReplicationTest, KeyCommittedBehindTheCursorConvergesThroughTheTail) {
  auto cluster = WipedFollowerCluster(/*warm=*/false, /*first_off=*/1);
  auto& wiped = cluster->follower(0, 0);
  auto& leader = cluster->source(0);
  const replication::SnapshotStreamStats& sent =
      leader.replicator()->stats().reseed;
  bool hold = true;
  KeepChunksWhere(*cluster, wiped.id(),
                  [&hold](const protocol::ShardSnapshotChunk& chunk) {
                    return !hold || chunk.seq <= 4;
                  });
  wiped.Restart();
  cluster->RunFor(1500);  // past a resend of the lost chunks
  // Every chunk is cut: the cursor is past every seeded key.
  ASSERT_EQ(sent.snapshot_chunks_sent, 8u);
  EXPECT_GE(sent.chunk_retransmits, 4u);
  EXPECT_EQ(wiped.replicator()->stats().snapshot_installs, 0u);

  // A key that sorts before every seeded one commits, behind the cursor.
  const RecordKey first_key = cluster->KeyOn(0, 0);
  ASSERT_TRUE(
      cluster->RunTxn(20, {MiniCluster::Write(first_key, 44)}).ok());
  ASSERT_EQ(leader.engine().CommittedRecords().size(), 513u);
  hold = false;
  cluster->RunFor(4000);
  EXPECT_EQ(sent.snapshot_chunks_sent, 8u);
  EXPECT_EQ(sent.snapshot_records_sent, 512u);  // no chunk carried the key
  EXPECT_EQ(sent.chunks_sealed, sent.snapshot_chunks_sent);
  ExpectConverged(*cluster);
  auto record = wiped.engine().store().Get(first_key);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value, 44);
}

// A follower that crashes mid-install picks the stream up where it
// stopped: its install position survives the crash, like the store the
// applied chunks are in, so the leader's resends of the chunks it lacks
// complete the install. Nothing is cut or sealed twice.
TEST(ReplicationTest, FollowerCrashMidInstallResumesTheStream) {
  auto cluster = WipedFollowerCluster(/*warm=*/false);
  auto& wiped = cluster->follower(0, 0);
  const replication::SnapshotStreamStats& sent =
      cluster->source(0).replicator()->stats().reseed;
  bool hold = true;
  KeepChunksWhere(*cluster, wiped.id(),
                  [&hold](const protocol::ShardSnapshotChunk& chunk) {
                    return !hold || chunk.seq <= 4;
                  });
  wiped.Restart();
  cluster->RunFor(500);
  ASSERT_EQ(sent.snapshot_chunks_sent, 8u);
  EXPECT_EQ(wiped.replicator()->stats().snapshot_installs, 0u);
  wiped.Crash();
  cluster->RunFor(100);
  hold = false;
  wiped.Restart();
  cluster->RunFor(4000);
  EXPECT_EQ(sent.snapshot_chunks_sent, 8u);
  EXPECT_EQ(sent.chunks_sealed, 8u);
  ExpectConverged(*cluster);
}

// A re-seed of a 120k-record store at the default 512 records per chunk
// (235 chunks) never has more than the credit window of chunks unacked at
// the leader or buffered at the follower, seals each chunk once, and
// installs once.
TEST(ReplicationTest, LargeReseedStaysWithinTheCreditWindow) {
  auto cluster = WipedFollowerCluster(/*warm=*/false, /*first_off=*/0,
                                      /*records=*/120000,
                                      /*chunk_records=*/512);
  auto& wiped = cluster->follower(0, 0);
  wiped.Restart();
  for (int step = 0;
       step < 1200 && wiped.replicator()->stats().snapshot_installs == 0;
       ++step) {
    cluster->RunFor(50);
  }
  cluster->RunFor(1000);
  const replication::SnapshotStreamStats& sent =
      cluster->source(0).replicator()->stats().reseed;
  const uint64_t window =
      cluster->source(0).config().migration_stream_window;
  EXPECT_EQ(sent.snapshot_chunks_sent, 235u);
  EXPECT_EQ(sent.snapshot_records_sent, 120000u);
  EXPECT_EQ(sent.chunks_sealed, sent.snapshot_chunks_sent);
  EXPECT_EQ(sent.chunk_retransmits, 0u);
  EXPECT_LE(sent.peak_unacked_chunks, window);
  EXPECT_LE(wiped.replicator()->stats().reseed.peak_buffered_chunks, window);
  ExpectConverged(*cluster);
}

// The leader dies after part of its stream reached the wiped follower,
// and the replica promoted in its place compacted less: it learns the
// compaction floor one append late, so its base lies below the dead
// leader's. Its stream must start a fresh install, not be taken for a
// straggler of the old, higher base.
TEST(ReplicationTest, NewLeadersLowerBaseStreamRestartsAPartialInstall) {
  auto cluster = SeededCluster(/*warm=*/false, /*first_off=*/0);
  auto& old_leader = cluster->source(0);
  auto& wiped = cluster->follower(0, 0);
  auto& next_leader = cluster->follower(0, 1);
  // One more commit. Follower 1 is cut off the moment it holds the entry
  // (its ack still gets out), so it never hears the compaction floor the
  // leader moves past the entry once every replica acked it.
  const uint64_t entry = old_leader.replicator()->log().last_index() + 1;
  cluster->SendRound(7, {MiniCluster::Write(cluster->KeyOn(0, 7), 10)},
                     /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                     /*commit=*/true);
  for (int step = 0;
       step < 30000 && next_leader.replicator()->log().last_index() < entry;
       ++step) {
    cluster->RunFor(0.1);
  }
  ASSERT_EQ(next_leader.replicator()->log().last_index(), entry);
  cluster->network().Partition(next_leader.id());
  for (int step = 0;
       step < 3000 && old_leader.replicator()->log().first_index() <= entry;
       ++step) {
    cluster->RunFor(1);
  }
  next_leader.Crash();
  ASSERT_LT(next_leader.replicator()->log().first_index(),
            old_leader.replicator()->log().first_index());

  // Follower 0 loses its log and gets only chunks 1..4 of the old
  // leader's streams.
  bool lossy = true;
  uint64_t kept = 0;
  KeepChunksWhere(*cluster, wiped.id(),
                  [&](const protocol::ShardSnapshotChunk& chunk) {
                    if (lossy && chunk.seq > 4) return false;
                    ++kept;
                    return true;
                  });
  wiped.Crash();
  wiped.replicator()->WipeForBootstrap();
  wiped.Restart();
  cluster->RunFor(1000);
  ASSERT_GE(kept, 4u);
  EXPECT_EQ(wiped.replicator()->stats().snapshot_installs, 0u);

  // Follower 1 comes back only once the dead leader's last appends (which
  // carry the new floor) have been lost at its NIC.
  old_leader.Crash();
  cluster->RunFor(100);
  lossy = false;
  next_leader.Restart();
  cluster->RunFor(5000);
  ASSERT_TRUE(next_leader.replicator()->IsLeader());
  ExpectConverged(*cluster, &next_leader);
  // And the group commits again on the new pair.
  ASSERT_TRUE(
      cluster->RunTxn(100, {MiniCluster::Write(cluster->KeyOn(0, 50), 7)})
          .ok());
  cluster->RunFor(1000);
  ExpectConverged(*cluster, &next_leader);
}

// A group that only served distributed reads has logged their prepare
// and commit entries but holds no committed record: its stream is one
// empty `last` chunk, which still installs (here from the re-send, the
// first stream being lost).
TEST(ReplicationTest, EmptyStoreBootstrapsFromOneEmptyLastChunk) {
  MiniCluster cluster(ReplicatedOptions());
  for (uint64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(cluster
                    .RunTxn(t, {MiniCluster::Read(cluster.KeyOn(0, t)),
                                MiniCluster::Read(cluster.KeyOn(1, t))})
                    .ok());
  }
  cluster.RunFor(2000);
  auto* leader_repl = cluster.source(0).replicator();
  ASSERT_GT(leader_repl->log().first_index(), 1u);
  ASSERT_TRUE(cluster.source(0).engine().CommittedRecords().empty());

  auto& wiped = cluster.follower(0, 0);
  wiped.Crash();
  wiped.replicator()->WipeForBootstrap();
  LoseFirstBootstrapStream(cluster);
  cluster.RunFor(2000);
  // One chunk, sealed once: sent, lost, and re-sent as a copy.
  const replication::SnapshotStreamStats& sent = leader_repl->stats().reseed;
  EXPECT_EQ(sent.snapshot_chunks_sent + sent.chunk_retransmits, 2u);
  EXPECT_EQ(sent.chunks_sealed, 1u);
  ExpectConverged(cluster);
  EXPECT_EQ(wiped.replicator()->log().first_index(),
            leader_repl->log().first_index());
  // And it serves as a quorum member again.
  ASSERT_TRUE(
      cluster.RunTxn(100, {MiniCluster::Write(cluster.KeyOn(0, 50), 7)})
          .ok());
  cluster.RunFor(1000);
  ExpectConverged(cluster);
}

// A sealed append whose payload has one byte flipped in flight fails the
// envelope check: the follower drops the whole frame (it appends and acks
// nothing), the leader's next heartbeat finds the gap and re-ships, and
// the group converges byte for byte.
TEST(ReplicationTest, CorruptAppendFrameIsDroppedWholeAndReShipped) {
  MiniCluster cluster(ReplicatedOptions());
  auto& follower = cluster.follower(0, 0);
  const replication::Replicator& repl = *follower.replicator();
  sim::Network& network = cluster.network();
  bool corrupted = false;
  network.RegisterNode(
      follower.id(), [&, inner = network.handler(follower.id())](
                         std::unique_ptr<runtime::MessageBase> msg) {
        if (corrupted ||
            msg->type() != runtime::MessageType::kReplAppendRequest ||
            static_cast<const protocol::ReplAppendRequest&>(*msg)
                .payload.empty()) {
          inner(std::move(msg));
          return;
        }
        corrupted = true;
        auto& req = static_cast<protocol::ReplAppendRequest&>(*msg);
        req.payload[req.payload.size() / 2] ^= 0x20;
        std::vector<protocol::ReplEntry> opened;
        EXPECT_FALSE(protocol::OpenAppendPayload(req, &opened));
        const uint64_t last = repl.log().last_index();
        const uint64_t applied = repl.applied_index();
        const uint64_t appends = repl.stats().appends_received;
        inner(std::move(msg));
        EXPECT_EQ(repl.log().last_index(), last);
        EXPECT_EQ(repl.applied_index(), applied);
        EXPECT_EQ(repl.stats().appends_received, appends);
      });
  const replication::Replicator& leader = *cluster.source(0).replicator();
  const uint64_t retransmissions = leader.shipper_stats().retransmissions;
  for (uint64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(
        cluster.RunTxn(t, {MiniCluster::Write(cluster.KeyOn(0, t), 9)}).ok());
  }
  cluster.RunFor(1000);
  ASSERT_TRUE(corrupted);
  EXPECT_GT(leader.shipper_stats().retransmissions, retransmissions);
  const auto store = SortedStore(cluster.source(0));
  ASSERT_EQ(store.size(), 6u);
  for (int k = 0; k < 2; ++k) {
    SCOPED_TRACE(k);
    const replication::Replicator& peer = *cluster.follower(0, k).replicator();
    EXPECT_EQ(SortedStore(cluster.follower(0, k)), store);
    EXPECT_EQ(peer.applied_index(), leader.commit_watermark());
    ASSERT_EQ(peer.log().last_index(), leader.log().last_index());
    const uint64_t from =
        std::max(peer.log().first_index(), leader.log().first_index());
    EXPECT_EQ(wire::Pack(peer.log().Slice(from, peer.log().last_index())),
              wire::Pack(leader.log().Slice(from, leader.log().last_index())));
  }
}

// A re-seed chunk corrupted in flight is dropped whole, and only it is
// re-sent: the follower gets 9 deliveries for 8 chunks. After the 8th it
// still lacks the corrupt chunk, so nothing installs before the re-sent
// copy; then it installs once.
TEST(ReplicationTest, CorruptBootstrapChunkIsDroppedAndTheStreamReSent) {
  auto cluster = WipedFollowerCluster(/*warm=*/false);
  auto& wiped = cluster->follower(0, 0);
  const replication::ReplicatorStats& stats = wiped.replicator()->stats();
  sim::Network& network = cluster->network();
  uint64_t delivered = 0;
  uint64_t installs_after_eight = 0;
  network.RegisterNode(
      wiped.id(), [&, inner = network.handler(wiped.id())](
                      std::unique_ptr<runtime::MessageBase> msg) {
        if (msg->type() != runtime::MessageType::kShardSnapshotChunk) {
          inner(std::move(msg));
          return;
        }
        if (++delivered == 1) {
          auto& chunk = static_cast<protocol::ShardSnapshotChunk&>(*msg);
          chunk.payload[chunk.payload.size() / 2] ^= 0x20;
          std::vector<protocol::ReplWrite> opened;
          EXPECT_FALSE(protocol::OpenChunkPayload(chunk, &opened));
        }
        inner(std::move(msg));
        if (delivered == 8) installs_after_eight = stats.snapshot_installs;
      });
  wiped.Restart();
  cluster->RunFor(4000);
  ASSERT_EQ(delivered, 9u);
  EXPECT_EQ(installs_after_eight, 0u);
  const replication::SnapshotStreamStats& sent =
      cluster->source(0).replicator()->stats().reseed;
  EXPECT_EQ(sent.snapshot_chunks_sent, 8u);
  EXPECT_EQ(sent.chunks_sealed, sent.snapshot_chunks_sent);
  EXPECT_EQ(sent.chunk_retransmits, 1u);
  ExpectConverged(*cluster);  // installed exactly once
}


// A request parked behind a promoted leader's barrier reports, in its
// response's residence, the time since it first reached the node, parked
// time included; so the DM's RTT sample from that round trip (round trip
// less residence) leaves the parked time out.
TEST(ReplicationTest, ParkedRequestResidenceCountsFromFirstArrival) {
  MiniCluster::Options options = ReplicatedOptions();
  // Long enough that the follower cut off below does not call an election
  // (and depose the new leader) while it is cut off.
  options.repl.election_timeout = SecToMicros(1);
  MiniCluster cluster(options);
  ASSERT_TRUE(
      cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)}).ok());
  cluster.RunFor(500);
  cluster.dm().monitor().Stop();  // RTT samples come from traffic only
  cluster.RunFor(500);

  // Crash group 0's leader; hold the promoted follower's barrier by cutting
  // off the other follower once it has voted, before the no-op's ack.
  cluster.source(0).Crash();
  datasource::DataSourceNode* promoted = nullptr;
  for (int step = 0; step < 200000 && promoted == nullptr; ++step) {
    cluster.RunFor(0.1);
    for (int k = 0; k < 2; ++k) {
      if (cluster.follower(0, k).replicator()->IsLeader()) {
        promoted = &cluster.follower(0, k);
        cluster.network().Partition(cluster.follower(0, 1 - k).id());
      }
    }
  }
  ASSERT_NE(promoted, nullptr);
  ASSERT_FALSE(promoted->replicator()->ReadyToServe());
  const NodeId other =
      promoted == &cluster.follower(0, 0) ? cluster.follower(0, 1).id()
                                          : cluster.follower(0, 0).id();
  cluster.dm().catalog().UpdateLeader(cluster.source(0).id(), promoted->id(),
                                      promoted->replicator()->epoch());

  // Timestamps of the execute request's arrival and its response's.
  sim::Network& network = cluster.network();
  auto request_at = std::make_shared<Micros>(-1);
  auto response_at = std::make_shared<Micros>(-1);
  auto residence = std::make_shared<Micros>(-1);
  sim::EventLoop& loop = cluster.loop();
  network.RegisterNode(promoted->id(), [&loop, request_at,
                                        inner = network.handler(promoted->id())](
                                           std::unique_ptr<runtime::MessageBase> msg) {
    if (msg->type() == runtime::MessageType::kBranchExecuteRequest) {
      *request_at = loop.Now();
    }
    inner(std::move(msg));
  });
  const NodeId dm = cluster.dm().id();
  network.RegisterNode(dm, [&loop, response_at, residence,
                            inner = network.handler(dm)](
                               std::unique_ptr<runtime::MessageBase> msg) {
    if (msg->type() == runtime::MessageType::kBranchExecuteResponse) {
      *response_at = loop.Now();
      *residence =
          static_cast<protocol::BranchExecuteResponse&>(*msg).residence;
    }
    inner(std::move(msg));
  });

  const uint64_t samples = cluster.dm().monitor().stats().traffic_samples;
  cluster.SendRound(2, {MiniCluster::Write(cluster.KeyOn(0, 7), 1)},
                    /*last_round=*/false);
  cluster.RunFor(300);
  ASSERT_GE(*request_at, 0);
  ASSERT_LT(*response_at, 0);  // parked behind the barrier
  const Micros restored_at = loop.Now();
  network.Restore(other);
  cluster.RunFor(200);
  ASSERT_TRUE(promoted->replicator()->IsLeader());
  ASSERT_TRUE(promoted->replicator()->ReadyToServe());
  ASSERT_GE(*response_at, 0);
  ASSERT_EQ(cluster.txn(2).round_responses.size(), 1u);

  // Residence spans the parked time; what is left of the round trip is the
  // response's one-way trip (the DM-to-follower link is 12 ms round trip).
  EXPECT_GE(*residence, restored_at - *request_at);
  EXPECT_GE(restored_at - *request_at, MsToMicros(290));
  EXPECT_NEAR(static_cast<double>(*response_at - *request_at - *residence),
              static_cast<double>(MsToMicros(6)), 100.0);
  EXPECT_EQ(cluster.dm().monitor().stats().traffic_samples, samples + 1);
  EXPECT_LT(cluster.dm().monitor().RttEstimate(promoted->id()),
            MsToMicros(20));
}

}  // namespace
}  // namespace geotp
