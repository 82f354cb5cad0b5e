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

using protocol::ClientFinishRequest;
using protocol::ClientOp;
using protocol::ClientRoundRequest;
using protocol::ClientRoundResponse;
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
