// Integration tests for the middleware coordinator: commit/abort paths,
// atomicity (AC1-AC4 observable behaviour), decentralized prepare timing,
// early abort, scheduling postpones, and multi-round transactions.
#include "middleware/middleware.h"

#include <gtest/gtest.h>

#include "sim_fixture.h"

namespace geotp {
namespace {

using middleware::MiddlewareConfig;
using protocol::ClientOp;
using testing_support::MiniCluster;

MiniCluster::Options WithDm(MiddlewareConfig dm) {
  MiniCluster::Options options;
  options.dm = std::move(dm);
  return options;
}

TEST(MiddlewareTest, CentralizedTxnCommits) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  Status st = cluster.RunTxn(
      1, {MiniCluster::Write(cluster.KeyOn(0, 5), 42)});
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(cluster.source(0).engine().store().Get(cluster.KeyOn(0, 5))->value,
            42);
  EXPECT_EQ(cluster.dm().stats().committed, 1u);
}

TEST(MiddlewareTest, DistributedTxnCommitsAtomically) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  Status st = cluster.RunTxn(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 10),
      MiniCluster::Write(cluster.KeyOn(1, 1), 20),
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(cluster.source(0).engine().store().Get(cluster.KeyOn(0, 1))->value,
            10);
  EXPECT_EQ(cluster.source(1).engine().store().Get(cluster.KeyOn(1, 1))->value,
            20);
}

TEST(MiddlewareTest, ReadsReturnCommittedValues) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 3), 7)})
                  .ok());
  cluster.SendRound(2, {MiniCluster::Read(cluster.KeyOn(0, 3))}, true);
  cluster.RunFor(3000);
  ASSERT_EQ(cluster.txn(2).round_responses.size(), 1u);
  EXPECT_EQ(cluster.txn(2).round_responses[0].values[0], 7);
  cluster.SendCommit(2);
  cluster.RunFor(3000);
  EXPECT_TRUE(cluster.txn(2).result.ok());
}

TEST(MiddlewareTest, DeltaWritesAccumulate) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  ASSERT_TRUE(
      cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 3), 10, true)})
          .ok());
  ASSERT_TRUE(
      cluster.RunTxn(2, {MiniCluster::Write(cluster.KeyOn(0, 3), 5, true)})
          .ok());
  EXPECT_EQ(cluster.source(0).engine().store().Get(cluster.KeyOn(0, 3))->value,
            15);
}

class AllSystemsTest
    : public ::testing::TestWithParam<middleware::MiddlewareConfig (*)()> {};

TEST_P(AllSystemsTest, DistributedCommitWorks) {
  MiniCluster cluster(WithDm(GetParam()()));
  Status st = cluster.RunTxn(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 1),
      MiniCluster::Write(cluster.KeyOn(1, 1), 2),
      MiniCluster::Read(cluster.KeyOn(0, 2)),
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(cluster.source(0).engine().store().Get(cluster.KeyOn(0, 1))->value,
            1);
  EXPECT_EQ(cluster.source(1).engine().store().Get(cluster.KeyOn(1, 1))->value,
            2);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystemsTest,
    ::testing::Values(&MiddlewareConfig::SSP, &MiddlewareConfig::SSPLocal,
                      &MiddlewareConfig::Quro, &MiddlewareConfig::Chiller,
                      &MiddlewareConfig::GeoTPO1,
                      &MiddlewareConfig::GeoTPO1O2, &MiddlewareConfig::GeoTP));

TEST(MiddlewareTest, DecentralizedPrepareSavesAWanRoundTrip) {
  // Commit latency of a distributed transaction: GeoTP needs ~2 WAN round
  // trips (execution+prepare, commit); SSP needs ~3. With a 100ms max-RTT
  // data source, the difference is ~100ms.
  auto run = [](MiddlewareConfig dm) {
    MiniCluster cluster(WithDm(std::move(dm)));
    cluster.SendRound(1, {
        MiniCluster::Write(cluster.KeyOn(0, 1), 1),
        MiniCluster::Write(cluster.KeyOn(1, 1), 2),
    }, true);
    cluster.RunFor(3000);
    cluster.SendCommit(1);
    cluster.RunFor(3000);
    EXPECT_TRUE(cluster.txn(1).result.ok());
    return cluster.txn(1).result_at;
  };
  const Micros geotp = run(MiddlewareConfig::GeoTPO1());
  const Micros ssp = run(MiddlewareConfig::SSP());
  EXPECT_LT(geotp + MsToMicros(80), ssp)
      << "GeoTP=" << MicrosToMs(geotp) << "ms SSP=" << MicrosToMs(ssp) << "ms";
}

TEST(MiddlewareTest, VotesArriveBeforeCommitRequest) {
  // With decentralized prepare the votes are already at the DM when the
  // client's COMMIT arrives; the commit phase costs one WAN round trip.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTPO1()));
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 1),
      MiniCluster::Write(cluster.KeyOn(1, 1), 2),
  }, true);
  cluster.RunFor(3000);
  const Micros round_done = cluster.loop().Now();
  cluster.SendCommit(1);
  cluster.RunFor(3000);
  const Micros total = cluster.txn(1).result_at - round_done;
  // Commit phase ~ 1 RTT to the slowest source (100ms) + fsyncs + LAN.
  EXPECT_LT(total, MsToMicros(115));
  EXPECT_GT(total, MsToMicros(95));
}

TEST(MiddlewareTest, DispatchSendsNoEmptyEnvelopes) {
  // GeoTP queues only decisions (the prepare was decentralized); SSP
  // queues prepares, then decisions. Neither may flush an empty batch of
  // the other kind, which would also wrap dispatches_coalesced.
  for (auto config : {&MiddlewareConfig::GeoTP, &MiddlewareConfig::SSP}) {
    MiniCluster cluster(WithDm(config()));
    ASSERT_TRUE(cluster
                    .RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1),
                                MiniCluster::Write(cluster.KeyOn(1, 1), 2)})
                    .ok());
    const middleware::MiddlewareStats& stats = cluster.dm().stats();
    EXPECT_EQ(stats.prepare_requests_sent, config == &MiddlewareConfig::SSP
                                               ? 2u
                                               : 0u);
    EXPECT_EQ(stats.decisions_sent, 2u);
    EXPECT_EQ(stats.prepare_batches_sent, 0u);
    EXPECT_EQ(stats.decision_batches_sent, 0u);
    EXPECT_EQ(stats.dispatches_coalesced, 0u);
  }
}

TEST(MiddlewareTest, LockConflictOnSharedRecordSerializes) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  const RecordKey hot = cluster.KeyOn(0, 1);
  // T1 writes hot; T2 writes hot concurrently; both must commit, final
  // value = last committer's, and no deadlock/timeout.
  cluster.SendRound(1, {MiniCluster::Write(hot, 5, true)}, true);
  cluster.SendRound(2, {MiniCluster::Write(hot, 7, true)}, true);
  cluster.RunFor(3000);
  cluster.SendCommit(1);
  cluster.SendCommit(2);
  cluster.RunFor(3000);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_TRUE(cluster.txn(2).result.ok());
  EXPECT_EQ(cluster.source(0).engine().store().Get(hot)->value, 12);
}

TEST(MiddlewareTest, AbortRollsBackAllParticipants) {
  // Force an abort by deadlocking two distributed transactions; whatever
  // aborts must leave no partial writes anywhere (AC atomicity).
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  const RecordKey a = cluster.KeyOn(0, 1);
  const RecordKey b = cluster.KeyOn(1, 1);
  // Seed both keys with known values.
  ASSERT_TRUE(cluster.RunTxn(90, {MiniCluster::Write(a, 111)}).ok());
  ASSERT_TRUE(cluster.RunTxn(91, {MiniCluster::Write(b, 222)}).ok());

  // T1: write a then b (two rounds); T2: write b then a. One becomes a
  // deadlock victim at the data sources.
  cluster.SendRound(1, {MiniCluster::Write(a, 1)}, false);
  cluster.SendRound(2, {MiniCluster::Write(b, 2)}, false);
  cluster.RunFor(3000);
  cluster.SendRound(1, {MiniCluster::Write(b, 1)}, true);
  cluster.SendRound(2, {MiniCluster::Write(a, 2)}, true);
  cluster.RunFor(3000);
  if (!cluster.txn(1).has_result) cluster.SendCommit(1);
  if (!cluster.txn(2).has_result) cluster.SendCommit(2);
  cluster.RunFor(3000);

  const bool t1_ok = cluster.txn(1).result.ok();
  const bool t2_ok = cluster.txn(2).result.ok();
  EXPECT_NE(t1_ok, t2_ok) << "exactly one should survive the deadlock";
  const int64_t va =
      cluster.source(0).engine().store().Get(a)->value;
  const int64_t vb =
      cluster.source(1).engine().store().Get(b)->value;
  if (t1_ok) {
    EXPECT_EQ(va, 1);
    EXPECT_EQ(vb, 1);
  } else {
    EXPECT_EQ(va, 2);
    EXPECT_EQ(vb, 2);
  }
  // No locks may remain.
  EXPECT_EQ(cluster.source(0).engine().ActiveCount(), 0u);
  EXPECT_EQ(cluster.source(1).engine().ActiveCount(), 0u);
}

TEST(MiddlewareTest, EarlyAbortNotifiesPeersDirectly) {
  MiddlewareConfig dm = MiddlewareConfig::GeoTP();
  MiniCluster cluster(WithDm(dm));
  const RecordKey a = cluster.KeyOn(0, 1);
  const RecordKey b = cluster.KeyOn(1, 1);
  cluster.SendRound(1, {MiniCluster::Write(a, 1)}, false);
  cluster.SendRound(2, {MiniCluster::Write(b, 2)}, false);
  cluster.RunFor(3000);
  cluster.SendRound(1, {MiniCluster::Write(b, 1)}, true);
  cluster.SendRound(2, {MiniCluster::Write(a, 2)}, true);
  cluster.RunFor(3000);
  if (!cluster.txn(1).has_result) cluster.SendCommit(1);
  if (!cluster.txn(2).has_result) cluster.SendCommit(2);
  cluster.RunFor(3000);
  // The deadlock victim's failing source notified its peer directly.
  const uint64_t sent = cluster.source(0).stats().early_aborts_sent +
                        cluster.source(1).stats().early_aborts_sent;
  EXPECT_GE(sent, 1u);
}

TEST(MiddlewareTest, LatencyAwareSchedulingPostponesFastSubtxn) {
  // With O2, the 10ms source's batch is dispatched ~90ms after the 100ms
  // source's batch — observable via the sources' batch execution times.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTPO1O2()));
  // Let the latency monitor learn the RTTs first.
  cluster.loop().RunUntil(SecToMicros(1));
  const Micros start = cluster.loop().Now();
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 1),   // 10ms source
      MiniCluster::Write(cluster.KeyOn(1, 1), 2),   // 100ms source
  }, true);
  // Step in small increments so we can timestamp the round response.
  while (cluster.txn(1).round_responses.empty()) cluster.RunFor(1);
  const Micros round_latency = cluster.loop().Now() - start;
  // Eq. 2 constraint: postponing must not extend the execution phase
  // beyond the slowest participant's round trip (~100ms + costs).
  EXPECT_LT(round_latency, MsToMicros(115));
  cluster.SendCommit(1);
  const Micros commit_sent = cluster.loop().Now();
  while (!cluster.txn(1).has_result) cluster.RunFor(1);
  ASSERT_TRUE(cluster.txn(1).result.ok());
  // Commit phase: one WAN round trip to the slowest participant.
  EXPECT_LT(cluster.txn(1).result_at - commit_sent, MsToMicros(115));
}

TEST(MiddlewareTest, MultiRoundTransactionCommits) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)}, false);
  cluster.RunFor(3000);
  ASSERT_EQ(cluster.txn(1).round_responses.size(), 1u);
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(1, 1), 2)}, true);
  cluster.RunFor(3000);
  ASSERT_EQ(cluster.txn(1).round_responses.size(), 2u);
  cluster.SendCommit(1);
  cluster.RunFor(3000);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_EQ(cluster.source(0).engine().store().Get(cluster.KeyOn(0, 1))->value,
            1);
  EXPECT_EQ(cluster.source(1).engine().store().Get(cluster.KeyOn(1, 1))->value,
            2);
}

TEST(MiddlewareTest, EarlierRoundOnlyParticipantGetsExplicitPrepare) {
  // DS0 participates only in round 1; DS1 carries the last statement.
  // §III: DS0 must be told to prepare explicitly.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTPO1()));
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)}, false);
  cluster.RunFor(3000);
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(1, 1), 2)}, true);
  cluster.RunFor(3000);
  cluster.SendCommit(1);
  cluster.RunFor(3000);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_EQ(cluster.source(0).stats().explicit_prepares, 1u);
  EXPECT_EQ(cluster.source(1).agent().stats().prepares_initiated, 1u);
}

TEST(MiddlewareTest, BreakdownRecordsAllPhases) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  ASSERT_TRUE(cluster.RunTxn(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 1),
      MiniCluster::Write(cluster.KeyOn(1, 1), 2),
  }).ok());
  const auto& breakdown = cluster.dm().breakdown();
  EXPECT_GT(breakdown.total(metrics::TxnPhase::kAnalysis), 0);
  EXPECT_GT(breakdown.total(metrics::TxnPhase::kExecution), 0);
  EXPECT_GT(breakdown.total(metrics::TxnPhase::kCommit), 0);
}

TEST(MiddlewareTest, SspLocalCommitsWithoutPrepare) {
  MiniCluster cluster(WithDm(MiddlewareConfig::SSPLocal()));
  ASSERT_TRUE(cluster.RunTxn(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 1),
      MiniCluster::Write(cluster.KeyOn(1, 1), 2),
  }).ok());
  EXPECT_EQ(cluster.source(0).stats().explicit_prepares, 0u);
  EXPECT_EQ(cluster.source(0).agent().stats().prepares_initiated, 0u);
  EXPECT_EQ(cluster.dm().stats().prepare_requests_sent, 0u);
}

TEST(MiddlewareTest, TwoPcSingleParticipantUsesOnePhase) {
  MiniCluster cluster(WithDm(MiddlewareConfig::SSP()));
  ASSERT_TRUE(
      cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)}).ok());
  // No prepare request for a centralized transaction.
  EXPECT_EQ(cluster.dm().stats().prepare_requests_sent, 0u);
}

TEST(MiddlewareTest, InFlightCountReturnsToZero) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)})
                  .ok());
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
}

}  // namespace
}  // namespace geotp
