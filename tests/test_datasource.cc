// Tests for the data-source node and its geo-agent: execution batches,
// lock-wait timeouts, decentralized prepare votes, early abort and
// tombstones.
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
using protocol::PrepareRequest;
using protocol::Vote;
using protocol::VoteMessage;

// Harness: node 0 plays the DM, nodes 1..2 are data sources.
class DataSourceTest : public ::testing::Test {
 protected:
  DataSourceTest() {
    sim::LatencyMatrix matrix(3);
    matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(10.0));
    matrix.SetSymmetric(0, 2, sim::LinkSpec::FromRttMs(100.0));
    matrix.SetSymmetric(1, 2, sim::LinkSpec::FromRttMs(100.0));
    net_ = std::make_unique<sim::Network>(&loop_, matrix);
    rt_ = std::make_unique<runtime::SimRuntime>(&loop_, net_.get());
    ds1_ = std::make_unique<DataSourceNode>(rt_->EnvFor(1),
                                            DataSourceConfig::MySql());
    ds2_ = std::make_unique<DataSourceNode>(rt_->EnvFor(2),
                                            DataSourceConfig::Postgres());
    ds1_->Attach();
    ds2_->Attach();
    net_->RegisterNode(0, [this](std::unique_ptr<runtime::MessageBase> msg) {
      if (auto* resp = dynamic_cast<BranchExecuteResponse*>(msg.get())) {
        exec_responses_.push_back(*resp);
      } else if (auto* vote = dynamic_cast<VoteMessage*>(msg.get())) {
        votes_.push_back(*vote);
      } else if (auto* ack = dynamic_cast<DecisionAck*>(msg.get())) {
        acks_.push_back(*ack);
      }
    });
  }

  void SendExecute(NodeId ds, TxnId txn, std::vector<ClientOp> ops,
                   bool last, std::vector<NodeId> peers = {},
                   bool begin = true, uint64_t round = 0) {
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
    net_->Send(std::move(req));
  }

  void SendDecision(NodeId ds, TxnId txn, bool commit, bool one_phase) {
    auto req = std::make_unique<DecisionRequest>();
    req->from = 0;
    req->to = ds;
    req->xid = Xid{txn, ds};
    req->commit = commit;
    req->one_phase = one_phase;
    net_->Send(std::move(req));
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
  std::vector<VoteMessage> votes_;
  std::vector<DecisionAck> acks_;
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
  ASSERT_EQ(votes_.size(), 1u);
  EXPECT_EQ(votes_[0].vote, Vote::kIdle);
  // Branch stays active for the one-phase commit.
  EXPECT_EQ(ds1_->engine().StateOf(Xid{100, 1}), storage::TxnState::kActive);
}

TEST_F(DataSourceTest, DistributedLastStatementVotesPrepared) {
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, /*last=*/true,
              /*peers=*/{2});
  loop_.Run();
  ASSERT_EQ(votes_.size(), 1u);
  EXPECT_EQ(votes_[0].vote, Vote::kPrepared);
  EXPECT_EQ(ds1_->engine().StateOf(Xid{100, 1}),
            storage::TxnState::kPrepared);
  EXPECT_EQ(ds1_->agent().stats().prepares_initiated, 1u);
}

TEST_F(DataSourceTest, DecentralizedPrepareIsLanNotWan) {
  // The vote must arrive at the DM ~ (0.5 RTT + LAN + fsync) after the
  // request: one-way 5ms + exec + agent LAN 0.3ms + fsync ~2.2ms + 5ms
  // back — far less than an extra WAN round trip would cost.
  SendExecute(1, 100, {Write(RecordKey{1, 1}, 1)}, true, {2});
  loop_.Run();
  ASSERT_EQ(votes_.size(), 1u);
  EXPECT_LT(loop_.Now(), MsToMicros(15));
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
  peer_abort->origin = 1;
  net_->Send(std::move(peer_abort));
  loop_.Run();
  EXPECT_TRUE(ds2_->agent().IsTombstoned(100));
  // The (postponed) branch arrives late and must be refused.
  SendExecute(2, 100, {Write(RecordKey{1, 2000}, 1)}, true, {1});
  loop_.Run();
  ASSERT_EQ(exec_responses_.size(), 1u);
  EXPECT_TRUE(exec_responses_[0].status.IsAborted());
  EXPECT_TRUE(exec_responses_[0].rolled_back);
  EXPECT_EQ(ds2_->agent().stats().tombstone_hits, 1u);
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
