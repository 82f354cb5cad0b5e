// Tests for the data-source node and its geo-agent role: execution
// batches, lock-wait timeouts, decentralized and explicit prepare votes,
// early abort and tombstones.
#include "datasource/data_source.h"

#include <gtest/gtest.h>

#include "protocol/messages.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace geotp {
namespace datasource {
namespace {

using protocol::BranchExecuteRequest;
using protocol::BranchExecuteResponse;
using protocol::ClientOp;
using protocol::DecisionAck;
using protocol::DecisionRequest;
using protocol::PeerAbortRequest;
using protocol::PingRequest;
using protocol::PingResponse;
using protocol::PrepareRequest;
using protocol::Vote;
using protocol::VoteMessage;

// Harness: node 0 plays the DM, nodes 1..2 are data sources.
class DataSourceTest : public ::testing::Test {
 protected:
  DataSourceTest() : DataSourceTest(DataSourceConfig::Postgres()) {}
  explicit DataSourceTest(DataSourceConfig ds2_config) {
    sim::LatencyMatrix matrix(3);
    matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(10.0));
    matrix.SetSymmetric(0, 2, sim::LinkSpec::FromRttMs(100.0));
    matrix.SetSymmetric(1, 2, sim::LinkSpec::FromRttMs(100.0));
    net_ = std::make_unique<sim::Network>(&loop_, matrix);
    rt_ = std::make_unique<runtime::SimRuntime>(&loop_, net_.get());
    ds1_ = std::make_unique<DataSourceNode>(rt_->EnvFor(1),
                                            DataSourceConfig::MySql());
    ds2_ = std::make_unique<DataSourceNode>(rt_->EnvFor(2), ds2_config);
    ds1_->Attach();
    ds2_->Attach();
    net_->RegisterNode(0, [this](std::unique_ptr<runtime::MessageBase> msg) {
      if (auto* resp = dynamic_cast<BranchExecuteResponse*>(msg.get())) {
        exec_responses_.push_back(*resp);
        wal_commits_at_response_.push_back(
            ds1_->engine().wal().stats().commits);
      } else if (auto* vote = dynamic_cast<VoteMessage*>(msg.get())) {
        votes_.push_back(*vote);
      } else if (auto* ack = dynamic_cast<DecisionAck*>(msg.get())) {
        acks_.push_back(*ack);
        ack_arrivals_.push_back(loop_.Now());
      } else if (auto* pong = dynamic_cast<PingResponse*>(msg.get())) {
        pongs_.push_back(*pong);
      }
    });
  }

  void SendExecute(NodeId ds, TxnId txn, std::vector<ClientOp> ops,
                   bool last, std::vector<NodeId> peers = {},
                   bool begin = true, uint64_t round = 0,
                   bool commit_one_phase = false) {
    auto req = std::make_unique<BranchExecuteRequest>();
    req->from = 0;
    req->to = ds;
    req->xid = Xid{txn, ds};
    req->round_seq = round;
    req->begin_branch = begin;
    req->ops = std::move(ops);
    req->last_statement = last;
    req->peers = std::move(peers);
    req->coordinator = 0;
    req->commit_one_phase = commit_one_phase;
    net_->Send(std::move(req));
  }

  void SendDecision(NodeId ds, TxnId txn, bool commit, bool one_phase,
                    bool lazy_ack = false) {
    auto req = std::make_unique<DecisionRequest>();
    req->from = 0;
    req->to = ds;
    req->item = protocol::DecisionItem{Xid{txn, ds}, commit, one_phase,
                                       lazy_ack};
    net_->Send(std::move(req));
  }

  void SendPing(NodeId ds) {
    auto ping = std::make_unique<PingRequest>();
    ping->from = 0;
    ping->to = ds;
    net_->Send(std::move(ping));
  }

  static ClientOp Write(RecordKey key, int64_t value) {
    ClientOp op;
    op.key = key;
    op.is_write = true;
    op.value = value;
    return op;
  }
  static ClientOp Read(RecordKey key) {
    ClientOp op;
    op.key = key;
    return op;
  }

  sim::EventLoop loop_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  std::unique_ptr<DataSourceNode> ds1_;
  std::unique_ptr<DataSourceNode> ds2_;
  std::vector<BranchExecuteResponse> exec_responses_;
  /// DS1's WAL commit-record count as each execute response arrived.
  std::vector<uint64_t> wal_commits_at_response_;
  std::vector<VoteMessage> votes_;
  std::vector<DecisionAck> acks_;
  std::vector<Micros> ack_arrivals_;
  std::vector<PingResponse> pongs_;
};

TEST_F(DataSourceTest, ExecutesBatchAndReturnsValues) {
  ds1_->engine().store().Put(RecordKey{1, 5}, 99);
  SendExecute(1, 100, {Read(RecordKey{1, 5}), Write(RecordKey{1, 6}, 7)},
              /*last=*/false);
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_TRUE(exec_responses_[0].status.ok());
  ASSERT_EQ(exec_responses_[0].values.size(), 2u);
  EXPECT_EQ(exec_responses_[0].values[0], 99);
  EXPECT_EQ(exec_responses_[0].values[1], 7);
  EXPECT_GT(exec_responses_[0].local_exec_latency, 0);
}

TEST_F(DataSourceTest, CentralizedLastStatementVotesIdle) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, /*last=*/true,
              /*peers=*/{});
  loop_.Run();
  // The IDLE vote rides on the execute response. No VoteMessage, no
  // decentralized prepare.
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_TRUE(exec_responses_[0].status.ok());
  EXPECT_EQ(exec_responses_[0].vote, Vote::kIdle);
  EXPECT_TRUE(votes_.empty());
  EXPECT_EQ(ds1_->stats().prepares_initiated, 0u);
  // Branch stays active for the one-phase commit.
  EXPECT_EQ(ds1_->engine().StateOf(Xid{100, 1}), storage::TxnState::kActive);
}

TEST_F(DataSourceTest, OnePhaseBatchCommitsBeforeResponding) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 42)}, /*last=*/true,
              /*peers=*/{}, /*begin=*/true, /*round=*/0,
              /*commit_one_phase=*/true);
  loop_.Run();
  // The response reports a durable commit: its one COMMIT record was
  // written before it left, and no decision round follows.
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_TRUE(exec_responses_[0].status.ok());
  EXPECT_TRUE(exec_responses_[0].committed);
  EXPECT_EQ(wal_commits_at_response_[0], 1u);
  EXPECT_EQ(ds1_->engine().wal().stats().commits, 1u);
  EXPECT_EQ(ds1_->engine().wal().stats().prepares, 0u);
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 1})->value, 42);
  EXPECT_FALSE(ds1_->HasBranch(100));
  EXPECT_EQ(ds1_->engine().ActiveCount(), 0u);
  EXPECT_EQ(ds1_->stats().exec_commits, 1u);
  EXPECT_EQ(ds1_->stats().commits, 1u);
  EXPECT_TRUE(votes_.empty());
  EXPECT_TRUE(acks_.empty());
}

TEST_F(DataSourceTest, FailedOnePhaseBatchRollsBackWithoutCommitRecord) {
  // T1 holds the lock; T2's commit-carrying batch times out behind it.
  ds1_->engine().store().Put(RecordKey{1, 1}, 7);
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, /*last=*/false);
  loop_.Run();
  SendExecute(1, 200, {Write(RecordKey{1, 2}, 5), Write(RecordKey{1, 1}, 2)},
              /*last=*/true, /*peers=*/{}, /*begin=*/true, /*round=*/0,
              /*commit_one_phase=*/true);
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 2u);
  EXPECT_TRUE(exec_responses_[1].status.IsTimedOut());
  EXPECT_TRUE(exec_responses_[1].rolled_back);
  EXPECT_FALSE(exec_responses_[1].committed);
  EXPECT_EQ(ds1_->engine().wal().stats().commits, 0u);
  EXPECT_EQ(ds1_->stats().exec_commits, 0u);
  const auto undone = ds1_->engine().store().Get(RecordKey{1, 2});
  EXPECT_EQ(undone ? undone->value : 0, 0);
  EXPECT_FALSE(ds1_->HasBranch(200));
}

TEST_F(DataSourceTest, CommitDecisionWaitsForTheRunningOnePhaseBatch) {
  // T1 holds the lock; T2's commit-carrying batch queues behind it when a
  // coordinator's one-phase commit decision for T2 arrives.
  ds1_->engine().store().Put(RecordKey{1, 1}, 7);
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, /*last=*/false);
  loop_.RunUntil(MsToMicros(20));
  SendExecute(1, 200, {Write(RecordKey{1, 1}, 5)},
              /*last=*/true, /*peers=*/{}, /*begin=*/true, /*round=*/0,
              /*commit_one_phase=*/true);
  loop_.RunUntil(MsToMicros(40));
  SendDecision(1, 200, /*commit=*/true, /*one_phase=*/true);
  loop_.RunUntil(MsToMicros(60));
  EXPECT_TRUE(acks_.empty());  // answered by the batch, not alongside it
  EXPECT_EQ(ds1_->engine().wal().stats().commits, 0u);

  SendDecision(1, 100, /*commit=*/true, /*one_phase=*/true);
  loop_.Run();
  // One commit of T2 answers both its execute and its decision.
  ASSERT_EQ(acks_.size(), 2u);
  for (const DecisionAck& ack : acks_) EXPECT_TRUE(ack.committed);
  ASSERT_EQ(exec_responses_.size(), 2u);
  EXPECT_TRUE(exec_responses_[1].committed);
  EXPECT_EQ(ds1_->engine().wal().stats().commits, 2u);
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 1})->value, 5);
  EXPECT_EQ(ds1_->stats().exec_commits, 1u);
  EXPECT_EQ(ds1_->engine().ActiveCount(), 0u);
}

TEST_F(DataSourceTest, CommitForAnUnknownBranchWritesNoRecord) {
  SendDecision(1, 300, /*commit=*/true, /*one_phase=*/true);
  loop_.Run();
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_FALSE(acks_[0].committed);
  EXPECT_TRUE(acks_[0].status.IsNotFound());
  EXPECT_EQ(ds1_->committer().stats().entries, 0u);
}

TEST_F(DataSourceTest, DistributedLastStatementVotesPrepared) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, /*last=*/true,
              /*peers=*/{2});
  loop_.Run();
  // The response waited for the prepare and carries the PREPARED vote;
  // no VoteMessage leaves.
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_TRUE(exec_responses_[0].status.ok());
  EXPECT_EQ(exec_responses_[0].vote, Vote::kPrepared);
  EXPECT_TRUE(votes_.empty());
  EXPECT_EQ(ds1_->stats().votes_on_response, 1u);
  EXPECT_EQ(ds1_->engine().StateOf(Xid{100, 1}),
            storage::TxnState::kPrepared);
  EXPECT_EQ(ds1_->stats().prepares_initiated, 1u);
}

TEST_F(DataSourceTest, DecentralizedPrepareIsLanNotWan) {
  // The vote must arrive at the DM ~ (0.5 RTT + LAN + fsync) after the
  // request: one-way 5ms + exec + agent LAN 0.3ms + fsync ~2.2ms + 5ms
  // back — far less than an extra WAN round trip would cost.
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, true, {2});
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_EQ(exec_responses_[0].vote, Vote::kPrepared);
  EXPECT_LT(loop_.Now(), MsToMicros(15));
  // The footprint's local latency ends with the ops, not the prepare.
  EXPECT_LT(exec_responses_[0].local_exec_latency, 1000);
}

TEST_F(DataSourceTest, ExplicitPrepareRequestVotes) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, /*last=*/false);
  loop_.Run();
  auto prep = std::make_unique<PrepareRequest>();
  prep->from = 0;
  prep->to = 1;
  prep->xid = Xid{100, 1};
  net_->Send(std::move(prep));
  loop_.Run();
  ASSERT_EQ(votes_.size(), 1u);
  EXPECT_EQ(votes_[0].vote, Vote::kPrepared);
  EXPECT_EQ(ds1_->stats().explicit_prepares, 1u);
}

TEST_F(DataSourceTest, PrepareUnknownBranchVotesFailure) {
  auto prep = std::make_unique<PrepareRequest>();
  prep->from = 0;
  prep->to = 1;
  prep->xid = Xid{999, 1};
  net_->Send(std::move(prep));
  loop_.Run();
  ASSERT_EQ(votes_.size(), 1u);
  EXPECT_EQ(votes_[0].vote, Vote::kFailure);
}

TEST_F(DataSourceTest, CommitDecisionAppliesAndAcks) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 42)}, true, {2});
  loop_.Run();
  SendDecision(1, 100, /*commit=*/true, /*one_phase=*/false);
  loop_.Run();
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_TRUE(acks_[0].committed);
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 1})->value, 42);
}

TEST_F(DataSourceTest, LazyCommitAckLeavesAloneAtItsBound) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 42)}, true, {2});
  loop_.Run();
  const Micros sent = loop_.Now();
  SendDecision(1, 100, /*commit=*/true, /*one_phase=*/false,
               /*lazy_ack=*/true);
  loop_.RunUntil(sent + MsToMicros(10));
  EXPECT_EQ(ds1_->stats().commits, 1u);
  EXPECT_TRUE(acks_.empty());
  loop_.Run();
  // No message to the DM came along: the ack left alone once it had
  // waited its bound (5 ms each way, about 1 ms for the COMMIT record).
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_TRUE(acks_[0].committed);
  EXPECT_FALSE(acks_[0].one_phase);
  EXPECT_GE(ack_arrivals_[0] - sent, MsToMicros(10) + kAckDelayBound);
  EXPECT_LE(ack_arrivals_[0] - sent, MsToMicros(12) + kAckDelayBound);
  EXPECT_EQ(ds1_->stats().acks_sent_alone, 1u);
  EXPECT_EQ(ds1_->stats().acks_piggybacked, 0u);
}

TEST_F(DataSourceTest, LazyCommitAcksRideOnTheNextMessageToTheDm) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, true, {2});
  SendExecute(1, 200, {Write(RecordKey{1, 2}, 2)}, true, {2});
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 2u);
  // The first ack rides on a pong.
  const Micros start = loop_.Now();
  SendDecision(1, 100, /*commit=*/true, /*one_phase=*/false,
               /*lazy_ack=*/true);
  loop_.RunUntil(start + MsToMicros(8));
  SendPing(1);
  loop_.RunUntil(start + MsToMicros(20));
  ASSERT_EQ(pongs_.size(), 1u);
  EXPECT_EQ(pongs_[0].acked_commits, std::vector<TxnId>{100});
  // The second rides on the next batch's response.
  SendDecision(1, 200, /*commit=*/true, /*one_phase=*/false,
               /*lazy_ack=*/true);
  loop_.RunUntil(start + MsToMicros(28));
  SendExecute(1, 300, {Read(RecordKey{1, 3})}, false);
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 3u);
  EXPECT_EQ(exec_responses_[2].acked_commits, std::vector<TxnId>{200});
  EXPECT_TRUE(acks_.empty());
  EXPECT_EQ(ds1_->stats().acks_piggybacked, 2u);
  EXPECT_EQ(ds1_->stats().acks_sent_alone, 0u);
  EXPECT_EQ(ds1_->stats().commits, 2u);
}

TEST_F(DataSourceTest, AbortDecisionRollsBack) {
  ds1_->engine().store().Put(RecordKey{1, 1}, 7);
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 42)}, true, {2});
  loop_.Run();
  SendDecision(1, 100, /*commit=*/false, /*one_phase=*/false);
  loop_.Run();
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_FALSE(acks_[0].committed);
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 1})->value, 7);
}

TEST_F(DataSourceTest, LockWaitTimeoutAbortsBranch) {
  // T1 holds the lock forever (never committed); T2 times out after 5s.
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, false);
  loop_.Run();
  SendExecute(1, 200, {Write(RecordKey{1, 1}, 2)}, false);
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 2u);
  EXPECT_TRUE(exec_responses_[0].status.ok());
  EXPECT_TRUE(exec_responses_[1].status.IsTimedOut());
  EXPECT_TRUE(exec_responses_[1].rolled_back);
  EXPECT_EQ(ds1_->stats().lock_timeouts, 1u);
  // The timeout fires at the configured 5s.
  EXPECT_GE(loop_.Now(), SecToMicros(5));
}

TEST_F(DataSourceTest, EarlyAbortNotifiesPeerAndPeerVotesRollbacked) {
  // A branch of txn 100 exists on DS2 (idle, executed earlier round).
  SendExecute(2, 100, {Write(RecordKey{1, 2000}, 1)}, false, {1});
  loop_.Run();
  exec_responses_.clear();
  // On DS1: txn 100's branch fails via lock timeout (blocked by txn 300).
  SendExecute(1, 300, {Write(RecordKey{1, 1}, 1)}, false);
  loop_.Run();
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 2)}, false, {2});
  loop_.Run();
  // DS1's agent must have notified DS2 directly; DS2 rolled back and told
  // the DM.
  EXPECT_EQ(ds1_->stats().early_aborts_sent, 1u);
  EXPECT_EQ(ds2_->stats().early_aborts_received, 1u);
  EXPECT_FALSE(ds2_->HasBranch(100));
  bool saw_rollbacked = false;
  for (const auto& vote : votes_) {
    if (vote.xid.txn_id == 100 && vote.from == 2 &&
        vote.vote == Vote::kRollbacked) {
      saw_rollbacked = true;
    }
  }
  EXPECT_TRUE(saw_rollbacked);
}

TEST_F(DataSourceTest, PeerAbortBeforeBranchArrivalTombstones) {
  auto peer_abort = std::make_unique<PeerAbortRequest>();
  peer_abort->from = 1;
  peer_abort->to = 2;
  peer_abort->txn_id = 100;
  net_->Send(std::move(peer_abort));
  loop_.Run();
  EXPECT_TRUE(ds2_->IsTombstoned(100));
  // The (postponed) branch arrives late and must be refused.
  SendExecute(2, 100, {Write(RecordKey{1, 2000}, 1)}, true, {1});
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_TRUE(exec_responses_[0].status.IsAborted());
  EXPECT_TRUE(exec_responses_[0].rolled_back);
  EXPECT_EQ(ds2_->stats().tombstone_hits, 1u);
}

// DS2's group commit holds a batch 50 ms for co-travellers, so a prepare
// record waits that long for its flush and a peer abort can land first.
class HeldPrepareFlushTest : public DataSourceTest {
 protected:
  HeldPrepareFlushTest() : DataSourceTest(HeldFlushConfig()) {}

  static DataSourceConfig HeldFlushConfig() {
    DataSourceConfig config = DataSourceConfig::Postgres();
    config.group_commit.max_batch_delay = MsToMicros(50);
    return config;
  }

  /// DS1 early-aborts txn 100 at DS2 `delay` from now (50 ms in flight).
  void PeerAbortAfter(Micros delay) {
    loop_.Schedule(delay, [this]() {
      auto req = std::make_unique<PeerAbortRequest>();
      req->from = 1;
      req->to = 2;
      req->txn_id = 100;
      net_->Send(std::move(req));
    });
  }
};

TEST_F(HeldPrepareFlushTest, DecentralizedPrepareRefusedAfterPeerAbort) {
  // The last statement runs at 50 ms and its prepare record waits from
  // ~51 ms to ~101 ms; the peer abort lands at 80 ms.
  SendExecute(2, 100, {Write(RecordKey{1, 2000}, 1)}, /*last=*/true,
              /*peers=*/{1});
  PeerAbortAfter(MsToMicros(30));
  loop_.Run();
  // The peer abort answered through the held response, with the reads;
  // the refused prepare adds nothing, not even a FAILURE vote.
  EXPECT_TRUE(votes_.empty());
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_TRUE(exec_responses_[0].status.ok());
  EXPECT_EQ(exec_responses_[0].vote, Vote::kRollbacked);
  EXPECT_EQ(exec_responses_[0].values.size(), 1u);
  EXPECT_EQ(ds2_->engine().StateOf(Xid{100, 2}), storage::TxnState::kAborted);
  EXPECT_FALSE(ds2_->HasBranch(100));
  EXPECT_EQ(ds2_->stats().early_aborts_sent, 0u);
}

TEST_F(HeldPrepareFlushTest, ExplicitPrepareRefusedAfterPeerAbort) {
  SendExecute(2, 100, {Write(RecordKey{1, 2000}, 1)}, /*last=*/false,
              /*peers=*/{1});
  loop_.Run();
  // The prepare record waits from +50 ms to +100 ms; the peer abort lands
  // at +80 ms.
  auto prep = std::make_unique<PrepareRequest>();
  prep->from = 0;
  prep->to = 2;
  prep->xid = Xid{100, 2};
  net_->Send(std::move(prep));
  PeerAbortAfter(MsToMicros(30));
  loop_.Run();
  // The DM asked for this prepare, so the refusal answers it.
  ASSERT_EQ(votes_.size(), 2u);
  EXPECT_EQ(votes_[0].vote, Vote::kRollbacked);
  EXPECT_EQ(votes_[1].vote, Vote::kFailure);
  EXPECT_EQ(ds2_->engine().StateOf(Xid{100, 2}), storage::TxnState::kAborted);
  EXPECT_FALSE(ds2_->HasBranch(100));
}

TEST_F(DataSourceTest, MultipleRoundsReuseBranch) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, false, {}, true, 0);
  loop_.Run();
  SendExecute(1, 100, {Write(RecordKey{1, 2}, 2)}, true, {}, false, 1);
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 2u);
  EXPECT_TRUE(exec_responses_[1].status.ok());
  SendDecision(1, 100, true, /*one_phase=*/true);
  loop_.Run();
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 1})->value, 1);
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 2})->value, 2);
}

TEST_F(DataSourceTest, CrashDropsMessagesAndAbortsActive) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, false);
  loop_.Run();
  ds1_->Crash();
  EXPECT_EQ(ds1_->engine().ActiveCount(), 0u);
  exec_responses_.clear();
  SendExecute(1, 200, {Write(RecordKey{1, 2}, 2)}, false);
  loop_.Run();
  EXPECT_TRUE(exec_responses_.empty());
  ds1_->Restart();
  SendExecute(1, 300, {Write(RecordKey{1, 3}, 3)}, false);
  loop_.Run();
  EXPECT_EQ(exec_responses_.size(), 1u);
}

TEST_F(DataSourceTest, CommitDecisionReleasesLocksBeforeItsRecordFlushes) {
  // T100 prepares on DS1; T200 parks on its exclusive lock.
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, true, {2});
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 1u);
  ASSERT_EQ(exec_responses_[0].vote, Vote::kPrepared);
  SendExecute(1, 200, {Write(RecordKey{1, 1}, 2)}, false);
  loop_.RunUntil(loop_.Now() + MsToMicros(10));
  ASSERT_TRUE(ds1_->engine().HasPendingOp(Xid{200, 1}));
  // The decision reaches DS1 5 ms after it leaves, and its COMMIT record
  // then flushes for 1 ms. Halfway through that flush T200 already runs.
  const Micros arrives = loop_.Now() + MsToMicros(5);
  SendDecision(1, 100, /*commit=*/true, /*one_phase=*/false);
  loop_.RunUntil(arrives + 500);
  EXPECT_FALSE(ds1_->engine().HasPendingOp(Xid{200, 1}));
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 1})->value, 2);
  // The commit is counted, and acked, only once its record is durable.
  EXPECT_EQ(ds1_->stats().commits, 0u);
  loop_.Run();
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_TRUE(acks_[0].committed);
  EXPECT_EQ(ds1_->stats().commits, 1u);
  ASSERT_EQ(exec_responses_.size(), 2u);
  EXPECT_TRUE(exec_responses_[1].status.ok());
}

TEST_F(DataSourceTest, CrashUndoesOnePhaseCommitsWhoseRecordsWereLost) {
  ds1_->engine().store().Put(RecordKey{1, 2}, 5);
  // T100 commits one-phase, and its record flushes.
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 10)}, true, {}, true, 0,
              /*commit_one_phase=*/true);
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 1u);
  ASSERT_TRUE(exec_responses_[0].committed);
  // T200 commits one-phase on key 2 and releases its lock as its record
  // joins the WAL (its flush runs 420-1420 us after arrival). T300, parked
  // on that lock, adds 7 and appends its own record at 840 us, behind the
  // busy device.
  const Micros arrives = loop_.Now() + MsToMicros(5);
  SendExecute(1, 200, {Write(RecordKey{1, 2}, 20)}, true, {}, true, 0,
              /*commit_one_phase=*/true);
  ClientOp add = Write(RecordKey{1, 2}, 7);
  add.is_delta = true;
  SendExecute(1, 300, {add}, true, {}, true, 0, /*commit_one_phase=*/true);
  loop_.RunUntil(arrives + 1000);
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 2})->value, 27);
  ds1_->Crash();
  // Neither record was durable: both commits are undone. T100's stays.
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 2})->value, 5);
  EXPECT_EQ(ds1_->engine().store().Get(RecordKey{1, 1})->value, 10);
  loop_.Run();
  EXPECT_EQ(exec_responses_.size(), 1u);  // no result for T200 or T300
  EXPECT_EQ(ds1_->stats().commits, 1u);
}

TEST_F(DataSourceTest, OnCoordinatorFailureAbortsOnlyUnprepared) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, true, {2});  // prepares
  SendExecute(1, 200, {Write(RecordKey{1, 2}, 2)}, false);      // active
  loop_.Run();
  ds1_->OnCoordinatorFailure(0);
  EXPECT_EQ(ds1_->engine().StateOf(Xid{100, 1}),
            storage::TxnState::kPrepared);
  EXPECT_EQ(ds1_->engine().StateOf(Xid{200, 1}),
            storage::TxnState::kAborted);
}

TEST_F(DataSourceTest, DialectsCarryDifferentCostModels) {
  EXPECT_NE(ds1_->config().engine.read_cost, ds2_->config().engine.read_cost);
}

}  // namespace
}  // namespace datasource
}  // namespace geotp
