// Tests for the ScalarDB-style and YugabyteDB-style baselines.
#include <gtest/gtest.h>

#include "baselines/scalardb.h"
#include "baselines/store_node.h"
#include "baselines/yugabyte.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "workload/runner.h"

namespace geotp {
namespace baselines {
namespace {

using protocol::ClientOp;
using protocol::ClientRoundRequest;
using protocol::ClientTxnResult;

// Harness for the store-node level: node 0 = coordinator side.
class StoreNodeTest : public ::testing::Test {
 protected:
  StoreNodeTest() {
    sim::LatencyMatrix matrix(2);
    matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(10.0));
    net_ = std::make_unique<sim::Network>(&loop_, matrix);
    rt_ = std::make_unique<runtime::SimRuntime>(&loop_, net_.get());
    store_ = std::make_unique<StoreNode>(rt_->EnvFor(1));
    store_->Attach();
    net_->RegisterNode(0, [this](std::unique_ptr<runtime::MessageBase> msg) {
      if (auto* read = dynamic_cast<StoreReadResponse*>(msg.get())) {
        reads_.push_back(*read);
      } else if (auto* prep = dynamic_cast<StorePrepareResponse*>(msg.get())) {
        prepares_.push_back(*prep);
      } else if (auto* ack = dynamic_cast<StoreDecisionAck*>(msg.get())) {
        acks_.push_back(*ack);
      }
    });
  }

  sim::EventLoop loop_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  std::unique_ptr<StoreNode> store_;
  std::vector<StoreReadResponse> reads_;
  std::vector<StorePrepareResponse> prepares_;
  std::vector<StoreDecisionAck> acks_;
};

TEST_F(StoreNodeTest, ReadReturnsValuesAndVersions) {
  store_->store().LoadTable(1, 10, 7);
  auto req = std::make_unique<StoreReadRequest>();
  req->from = 0;
  req->to = 1;
  req->txn = 100;
  req->req_id = 1;
  req->keys = {RecordKey{1, 3}, RecordKey{1, 4}};
  net_->Send(std::move(req));
  loop_.Run();
  ASSERT_EQ(reads_.size(), 1u);
  ASSERT_EQ(reads_[0].results.size(), 2u);
  EXPECT_EQ(reads_[0].results[0].value, 7);
  EXPECT_EQ(reads_[0].results[0].version, 0u);
}

TEST_F(StoreNodeTest, PrepareValidatesAndCommits) {
  auto prep = std::make_unique<StorePrepareRequest>();
  prep->from = 0;
  prep->to = 1;
  prep->txn = 100;
  StagedOp op;
  op.key = RecordKey{1, 3};
  op.expected_version = 0;
  op.is_write = true;
  op.write_value = 42;
  prep->ops = {op};
  net_->Send(std::move(prep));
  loop_.Run();
  ASSERT_EQ(prepares_.size(), 1u);
  EXPECT_TRUE(prepares_[0].status.ok());

  auto decide = std::make_unique<StoreDecisionRequest>();
  decide->from = 0;
  decide->to = 1;
  decide->txn = 100;
  decide->commit = true;
  net_->Send(std::move(decide));
  loop_.Run();
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(store_->store().Get(RecordKey{1, 3})->value, 42);
}

TEST_F(StoreNodeTest, StaleVersionConflicts) {
  store_->store().LoadTable(1, 10, 0);
  // Commit a bump so the version becomes 1.
  ASSERT_TRUE(store_->store().PutIntent(RecordKey{1, 3}, 9, 1).ok());
  store_->store().CommitIntents(9);
  auto prep = std::make_unique<StorePrepareRequest>();
  prep->from = 0;
  prep->to = 1;
  prep->txn = 100;
  StagedOp op;
  op.key = RecordKey{1, 3};
  op.expected_version = 0;  // stale
  prep->ops = {op};
  net_->Send(std::move(prep));
  loop_.Run();
  ASSERT_EQ(prepares_.size(), 1u);
  EXPECT_TRUE(prepares_[0].status.IsConflict());
  EXPECT_EQ(store_->stats().prepare_conflicts, 1u);
  EXPECT_FALSE(store_->store().HasIntent(RecordKey{1, 3}, 100));
}

// ---------------------------------------------------------------------------
// COMMIT riding on the last round
// ---------------------------------------------------------------------------

// Harness: node 0 = client, node 1 = coordinator, node 2 = another data
// node. Counts the replies each coordinator sends the client.
class BundledCommitTest : public ::testing::Test {
 protected:
  BundledCommitTest() {
    sim::LatencyMatrix matrix(3);
    matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(0.5));
    matrix.SetSymmetric(0, 2, sim::LinkSpec::FromRttMs(20.0));
    matrix.SetSymmetric(1, 2, sim::LinkSpec::FromRttMs(20.0));
    net_ = std::make_unique<sim::Network>(&loop_, matrix);
    rt_ = std::make_unique<runtime::SimRuntime>(&loop_, net_.get());
    net_->RegisterNode(0, [this](std::unique_ptr<runtime::MessageBase> msg) {
      if (msg->type() == runtime::MessageType::kClientRoundResponse) {
        round_responses_++;
      } else if (auto* result = dynamic_cast<ClientTxnResult*>(msg.get())) {
        results_.push_back(*result);
      }
    });
  }

  /// Runs a one-round transaction whose round carries the COMMIT and
  /// returns its result.
  ClientTxnResult RunBundled(std::vector<ClientOp> ops) {
    const size_t before = results_.size();
    auto req = std::make_unique<ClientRoundRequest>();
    req->from = 0;
    req->to = 1;
    req->client_tag = before;
    req->ops = std::move(ops);
    req->last_round = true;
    req->commit = true;
    net_->Send(std::move(req));
    loop_.Run();
    EXPECT_EQ(results_.size(), before + 1);
    return results_.empty() ? ClientTxnResult() : results_.back();
  }

  static ClientOp Write(uint64_t key, int64_t value) {
    ClientOp op;
    op.key = RecordKey{1, key};
    op.is_write = true;
    op.value = value;
    return op;
  }
  static ClientOp Read(uint64_t key) {
    ClientOp op;
    op.key = RecordKey{1, key};
    return op;
  }

  sim::EventLoop loop_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<runtime::SimRuntime> rt_;
  int round_responses_ = 0;
  std::vector<ClientTxnResult> results_;
};

TEST_F(BundledCommitTest, ScalarDbCommitsAsTheRoundCompletes) {
  middleware::Catalog catalog;
  catalog.AddRangePartitionedTable(1, 100, {2});
  StoreNode store(rt_->EnvFor(2));
  store.Attach();
  ScalarDbNode coordinator(rt_->EnvFor(1), catalog, /*plus=*/false);
  coordinator.Attach();

  const ClientTxnResult write = RunBundled({Write(3, 7)});
  EXPECT_TRUE(write.status.ok()) << write.status.ToString();
  EXPECT_EQ(write.values, (std::vector<int64_t>{7}));
  const ClientTxnResult read = RunBundled({Read(3)});
  EXPECT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(read.values, (std::vector<int64_t>{7}));
  EXPECT_EQ(round_responses_, 0);
  EXPECT_EQ(coordinator.stats().committed, 2u);
}

TEST_F(BundledCommitTest, YugabyteCommitsAsTheRoundCompletes) {
  middleware::Catalog catalog;
  catalog.AddRangePartitionedTable(1, 100, {1, 2});
  YbTabletNode coordinator(rt_->EnvFor(1), &catalog);
  YbTabletNode remote(rt_->EnvFor(2), &catalog);
  coordinator.Attach();
  remote.Attach();

  // Distributed: one write on each tablet.
  const ClientTxnResult write = RunBundled({Write(3, 7), Write(103, 9)});
  EXPECT_TRUE(write.status.ok()) << write.status.ToString();
  EXPECT_EQ(write.values, (std::vector<int64_t>{7, 9}));
  loop_.Run();  // intents resolve asynchronously after the commit
  const ClientTxnResult read = RunBundled({Read(103)});
  EXPECT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(read.values, (std::vector<int64_t>{9}));
  EXPECT_EQ(round_responses_, 0);
  EXPECT_EQ(coordinator.stats().committed, 2u);
  // Neither transaction stayed on the coordinator's own tablet.
  EXPECT_EQ(coordinator.stats().distributed, 2u);
}

// ---------------------------------------------------------------------------
// End-to-end baseline runs via the experiment runner
// ---------------------------------------------------------------------------

workload::ExperimentConfig SmallRun(workload::SystemKind system) {
  workload::ExperimentConfig config;
  config.system = system;
  config.ycsb.theta = 0.5;
  config.ycsb.distributed_ratio = 0.3;
  config.driver.terminals = 16;
  config.driver.warmup = SecToMicros(2);
  config.driver.measure = SecToMicros(10);
  return config;
}

TEST(ScalarDbTest, CommitsTransactions) {
  auto result = workload::RunExperiment(SmallRun(
      workload::SystemKind::kScalarDb));
  EXPECT_GT(result.run.committed, 50u);
  EXPECT_GT(result.Tps(), 1.0);
}

TEST(ScalarDbTest, PlusIsAtLeastAsGoodUnderContention) {
  auto base = SmallRun(workload::SystemKind::kScalarDb);
  base.ycsb.theta = 1.1;
  auto plus = base;
  plus.system = workload::SystemKind::kScalarDbPlus;
  const auto r_base = workload::RunExperiment(base);
  const auto r_plus = workload::RunExperiment(plus);
  EXPECT_GE(r_plus.Tps(), r_base.Tps() * 0.9)
      << "plus=" << r_plus.Tps() << " base=" << r_base.Tps();
}

TEST(ScalarDbTest, ConflictsSurfaceAsAborts) {
  auto config = SmallRun(workload::SystemKind::kScalarDb);
  config.ycsb.theta = 1.4;  // heavy contention -> OCC conflicts
  const auto result = workload::RunExperiment(config);
  EXPECT_GT(result.run.abort_events, 0u);
}

TEST(YugabyteTest, CommitsTransactions) {
  auto result = workload::RunExperiment(SmallRun(
      workload::SystemKind::kYugabyte));
  EXPECT_GT(result.run.committed, 50u);
}

TEST(YugabyteTest, LowContentionBeatsMiddleware) {
  // The paper's Fig. 13 LC point: Yugabyte's 1-RTT single-shard commit
  // with async apply beats the 2-RTT middleware path.
  auto yb = SmallRun(workload::SystemKind::kYugabyte);
  yb.ycsb.theta = 0.3;
  yb.ycsb.distributed_ratio = 0.2;
  auto ssp = yb;
  ssp.system = workload::SystemKind::kSSP;
  const auto r_yb = workload::RunExperiment(yb);
  const auto r_ssp = workload::RunExperiment(ssp);
  EXPECT_GT(r_yb.Tps(), r_ssp.Tps());
}

TEST(YugabyteTest, HighContentionCollapsesVsGeoTP) {
  // Fig. 13 HC point: fail-fast intent conflicts + retries collapse.
  auto yb = SmallRun(workload::SystemKind::kYugabyte);
  yb.ycsb.theta = 1.5;
  yb.ycsb.distributed_ratio = 0.2;
  yb.driver.terminals = 64;
  auto geotp = yb;
  geotp.system = workload::SystemKind::kGeoTP;
  const auto r_yb = workload::RunExperiment(yb);
  const auto r_geotp = workload::RunExperiment(geotp);
  EXPECT_GT(r_geotp.Tps(), r_yb.Tps() * 2)
      << "geotp=" << r_geotp.Tps() << " yb=" << r_yb.Tps();
}

}  // namespace
}  // namespace baselines
}  // namespace geotp
