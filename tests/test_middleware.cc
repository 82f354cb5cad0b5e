// Integration tests for the middleware coordinator: commit/abort paths,
// atomicity (AC1-AC4 observable behaviour), decentralized prepare timing,
// early abort, scheduling postpones, and multi-round transactions.
#include "middleware/middleware.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "datasource/data_source.h"
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

/// Takes RTT samples, then stops the DM's pings and lets the last pongs
/// land: from here on the network's counters see protocol messages only.
void SilenceMonitor(MiniCluster& cluster) {
  cluster.RunFor(500);
  cluster.dm().monitor().Stop();
  cluster.RunFor(500);
}

/// Counts the messages delivered to the client, the DM and the sources of
/// a two-source cluster, by type. The monitor keeps pinging, so lazy
/// commit acks ride on its pongs; protocol() leaves pings and pongs out.
class MessageCounter {
 public:
  explicit MessageCounter(MiniCluster& cluster) {
    sim::Network& network = cluster.network();
    for (NodeId node = 0; node < 4; ++node) {
      network.RegisterNode(
          node, [this, inner = network.handler(node)](
                    std::unique_ptr<runtime::MessageBase> msg) {
            counts_[msg->type()]++;
            inner(std::move(msg));
          });
    }
  }

  uint64_t of(runtime::MessageType type) const {
    auto it = counts_.find(type);
    return it == counts_.end() ? 0 : it->second;
  }
  uint64_t protocol() const {
    uint64_t total = 0;
    for (const auto& [type, count] : counts_) total += count;
    return total - of(runtime::MessageType::kPingRequest) -
           of(runtime::MessageType::kPingResponse);
  }

 private:
  std::map<runtime::MessageType, uint64_t> counts_;
};

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
  // client's COMMIT arrives, and the DM answers once its decision is
  // durable: the commit costs the decision-log flush, no WAN round trip.
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
  // Client <-> DM LAN hops plus one decision-log flush (0.5 ms).
  EXPECT_LT(total, MsToMicros(2));
  EXPECT_GE(total, 500);
}

TEST(MiddlewareTest, GeoTpAnswersOnceTheDecisionIsDurable) {
  // The client gets its result when the decision-log flush ends; the DM
  // keeps the transaction, settling, until the last DecisionAck.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTPO1()));
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 1),
      MiniCluster::Write(cluster.KeyOn(1, 1), 2),
  }, true);
  cluster.RunFor(3000);
  cluster.SendCommit(1);
  cluster.RunFor(2);  // the decisions are still on the WAN
  ASSERT_TRUE(cluster.txn(1).has_result);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_EQ(cluster.dm().stats().committed, 1u);
  EXPECT_EQ(cluster.source(0).stats().commits, 0u);
  EXPECT_EQ(cluster.source(1).stats().commits, 0u);
  EXPECT_EQ(cluster.dm().InFlight(), 1u);
  cluster.RunFor(20);  // source 0 (10 ms away) acked, source 1 not yet
  EXPECT_EQ(cluster.source(0).stats().commits, 1u);
  EXPECT_EQ(cluster.dm().InFlight(), 1u);
  cluster.RunFor(200);
  EXPECT_EQ(cluster.source(1).stats().commits, 1u);
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
  EXPECT_EQ(cluster.dm().stats().committed, 1u);
}

TEST(MiddlewareTest, SspAnswersAfterEveryDecisionAck) {
  // An XA commit() returns after phase 2: SSP keeps its answer point.
  MiniCluster cluster(WithDm(MiddlewareConfig::SSP()));
  cluster.SendRound(1, {
      MiniCluster::Write(cluster.KeyOn(0, 1), 1),
      MiniCluster::Write(cluster.KeyOn(1, 1), 2),
  }, true);
  cluster.RunFor(3000);
  const Micros commit_at = cluster.loop().Now();
  cluster.SendCommit(1);
  cluster.RunFor(3000);
  ASSERT_TRUE(cluster.txn(1).has_result);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  // Prepare round plus decision round to the 100 ms source.
  EXPECT_GT(cluster.txn(1).result_at - commit_at, MsToMicros(200));
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
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

TEST(MiddlewareTest, CentralizedCommitSendsNoVote) {
  // The IDLE vote rides on the execute response: the source sends that
  // response and the one-phase commit's ack, nothing else.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  SilenceMonitor(cluster);
  const NodeId source = cluster.source(0).id();
  const uint64_t sent_before = cluster.network().StatsFor(source).messages_sent;
  ASSERT_TRUE(
      cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)}).ok());
  EXPECT_EQ(cluster.network().StatsFor(source).messages_sent - sent_before,
            2u);
  EXPECT_EQ(cluster.source(0).stats().prepares_initiated, 0u);
  EXPECT_EQ(cluster.source(0).stats().commits, 1u);
  // One-phase: the decision was never logged.
  EXPECT_EQ(cluster.dm().stats().log_entries_flushed, 0u);
  EXPECT_EQ(cluster.dm().stats().decisions_sent, 1u);
}

TEST(MiddlewareTest, MessageBudgetPerCommit) {
  // Every message one GeoTP commit puts on the wire, pings and pongs
  // excluded. A change that adds a message to each transaction fails here.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  cluster.RunFor(500);
  const MessageCounter counter(cluster);
  uint64_t before = counter.protocol();
  // Centralized, 8: round, execute, response (the IDLE vote), round reply;
  // commit, one-phase decision, ack, result.
  ASSERT_TRUE(
      cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 2), 1)}).ok());
  EXPECT_EQ(counter.protocol() - before, 8u);

  before = counter.protocol();
  // Two sources, 10: round, 2 executes, 2 responses (the PREPARED votes),
  // round reply; commit, 2 decisions, result. The acks ride on pongs.
  ASSERT_TRUE(cluster
                  .RunTxn(2, {MiniCluster::Write(cluster.KeyOn(0, 3), 1),
                              MiniCluster::Write(cluster.KeyOn(1, 3), 2)})
                  .ok());
  EXPECT_EQ(counter.protocol() - before, 10u);

  before = counter.protocol();
  // Centralized with COMMIT on the round, 4: round, execute, response (the
  // branch committed one-phase as it ended), result.
  ASSERT_TRUE(
      cluster.RunBundledTxn(3, {MiniCluster::Write(cluster.KeyOn(0, 4), 1)})
          .ok());
  EXPECT_EQ(counter.protocol() - before, 4u);
  EXPECT_EQ(cluster.dm().stats().exec_commits, 1u);

  before = counter.protocol();
  // Two sources with COMMIT on the round, 8: round, 2 executes, 2
  // responses (the PREPARED votes), 2 decisions, result. The acks ride on
  // pongs.
  ASSERT_TRUE(cluster
                  .RunBundledTxn(4, {MiniCluster::Write(cluster.KeyOn(0, 5), 1),
                                     MiniCluster::Write(cluster.KeyOn(1, 5), 2)})
                  .ok());
  EXPECT_EQ(counter.protocol() - before, 8u);
  EXPECT_EQ(cluster.dm().stats().exec_commits, 1u);
  EXPECT_EQ(cluster.source(0).stats().exec_commits, 1u);

  // No vote travelled alone; only the one-phase commit's ack did.
  EXPECT_EQ(counter.of(runtime::MessageType::kVoteMessage), 0u);
  EXPECT_EQ(counter.of(runtime::MessageType::kDecisionAck), 1u);
  uint64_t piggybacked = 0;
  for (int i = 0; i < 2; ++i) {
    piggybacked += cluster.source(i).stats().acks_piggybacked;
  }
  EXPECT_EQ(piggybacked, 4u);
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
}

TEST(MiddlewareTest, LazyAcksLeaveAloneWithinTheirBoundWithoutPongs) {
  // With the monitor silenced no pong comes: each lazy commit ack leaves
  // as a plain DecisionAck once it has waited its bound, and the DM
  // settles within a round trip plus that bound of answering.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  SilenceMonitor(cluster);
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1),
                        MiniCluster::Write(cluster.KeyOn(1, 1), 2)},
                    /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
                    /*commit=*/true);
  while (!cluster.txn(1).has_result) cluster.RunFor(0.1);
  ASSERT_TRUE(cluster.txn(1).result.ok());
  const Micros answered = cluster.loop().Now();
  while (cluster.dm().InFlight() > 0) cluster.RunFor(0.1);
  // Source 1 is 100 ms away; its COMMIT record takes about 2 ms.
  EXPECT_LE(cluster.loop().Now() - answered,
            MsToMicros(100 + 5) + datasource::kAckDelayBound);
  EXPECT_GE(cluster.loop().Now() - answered,
            MsToMicros(100) + datasource::kAckDelayBound);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.source(i).stats().acks_sent_alone, 1u);
    EXPECT_EQ(cluster.source(i).stats().acks_piggybacked, 0u);
  }
}

TEST(MiddlewareTest, ParticipantAddedInTheLastRoundStillVotes) {
  // Source 0 began alone in round 1; the last round adds source 1. Source
  // 0's last statement now has a peer, so it prepares and votes.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)}, false);
  cluster.RunFor(3000);
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 2), 1),
                        MiniCluster::Write(cluster.KeyOn(1, 1), 2)},
                    true);
  cluster.RunFor(3000);
  ASSERT_EQ(cluster.txn(1).round_responses.size(), 2u);
  cluster.SendCommit(1);
  cluster.RunFor(3000);
  ASSERT_TRUE(cluster.txn(1).has_result);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_EQ(cluster.source(0).stats().decentralized_prepares, 1u);
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
}

TEST(MiddlewareTest, BundledCommitReturnsReadsWithTheResult) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 11),
                                 MiniCluster::Write(cluster.KeyOn(1, 1), 22)})
                  .ok());
  // Centralized (one-phase at the source) and distributed (voted, then
  // decided): either way the only reply is the result, with the reads.
  ASSERT_TRUE(
      cluster.RunBundledTxn(2, {MiniCluster::Read(cluster.KeyOn(0, 1))}).ok());
  EXPECT_TRUE(cluster.txn(2).round_responses.empty());
  EXPECT_EQ(cluster.txn(2).result_values, (std::vector<int64_t>{11}));
  ASSERT_TRUE(cluster
                  .RunBundledTxn(3, {MiniCluster::Read(cluster.KeyOn(1, 1)),
                                     MiniCluster::Read(cluster.KeyOn(0, 1))})
                  .ok());
  EXPECT_TRUE(cluster.txn(3).round_responses.empty());
  EXPECT_EQ(cluster.txn(3).result_values, (std::vector<int64_t>{22, 11}));
  // The explicit COMMIT path keeps its reads on the round response.
  ASSERT_TRUE(cluster.RunTxn(4, {MiniCluster::Read(cluster.KeyOn(0, 1))}).ok());
  EXPECT_TRUE(cluster.txn(4).result_values.empty());
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
}

TEST(MiddlewareTest, TwoPhaseNeverCommitsAtTheSource) {
  // ShardingSphere's XA sends COMMIT ONE PHASE from the middleware: under
  // SSP a bundled COMMIT only saves the client's round trip.
  MiniCluster cluster(WithDm(MiddlewareConfig::SSP()));
  SilenceMonitor(cluster);
  const uint64_t before = cluster.network().total_messages();
  ASSERT_TRUE(
      cluster.RunBundledTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 2), 1)})
          .ok());
  // Round, execute, response, one-phase decision, ack, result.
  EXPECT_EQ(cluster.network().total_messages() - before, 6u);
  EXPECT_EQ(cluster.dm().stats().exec_commits, 0u);
  EXPECT_EQ(cluster.dm().stats().decisions_sent, 1u);
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

TEST(MiddlewareTest, TombstonesExpireAfterTheirLifetime) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  obs::MetricsRegistry registry;
  for (auto* source : cluster.source_ptrs()) source->RegisterMetrics(&registry);
  const auto tombstones = [&registry]() {
    const std::string json = registry.SnapshotJson();
    double total = 0;
    for (const std::string name : {"ds.2.", "ds.3."}) {
      const std::string needle = "\"" + name + "retained.tombstones\":";
      const size_t at = json.find(needle);
      EXPECT_NE(at, std::string::npos) << needle;
      if (at != std::string::npos) {
        total += std::stod(json.substr(at + needle.size()));
      }
    }
    return total;
  };
  // Eight crossed pairs deadlock; each victim's branch fails and
  // early-aborts its peer. Both participants confirm their rollback
  // before the DM decides, so the abort decision skips them and cannot
  // clear their tombstones: only expiry does.
  constexpr uint64_t kPairs = 8;
  for (uint64_t pair = 0; pair < kPairs; ++pair) {
    cluster.SendRound(2 * pair + 1,
                      {MiniCluster::Write(cluster.KeyOn(0, pair), 1)}, false);
    cluster.SendRound(2 * pair + 2,
                      {MiniCluster::Write(cluster.KeyOn(1, pair), 2)}, false);
  }
  cluster.RunFor(3000);
  for (uint64_t pair = 0; pair < kPairs; ++pair) {
    cluster.SendRound(2 * pair + 1,
                      {MiniCluster::Write(cluster.KeyOn(1, pair), 1)}, true);
    cluster.SendRound(2 * pair + 2,
                      {MiniCluster::Write(cluster.KeyOn(0, pair), 2)}, true);
  }
  cluster.RunFor(3000);
  for (uint64_t tag = 1; tag <= 2 * kPairs; ++tag) {
    if (!cluster.txn(tag).has_result) cluster.SendCommit(tag);
  }
  cluster.RunFor(3000);
  for (uint64_t tag = 1; tag <= 2 * kPairs; ++tag) {
    ASSERT_TRUE(cluster.txn(tag).has_result) << tag;
  }
  EXPECT_GT(tombstones(), 0);
  cluster.RunFor(static_cast<double>(datasource::kTombstoneLifetime) / 1000);
  EXPECT_EQ(tombstones(), 0);
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
  EXPECT_EQ(cluster.source(1).stats().prepares_initiated, 1u);
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
  EXPECT_EQ(cluster.source(0).stats().prepares_initiated, 0u);
  EXPECT_EQ(cluster.dm().stats().prepare_requests_sent, 0u);
}

TEST(MiddlewareTest, TwoPcSingleParticipantUsesOnePhase) {
  MiniCluster cluster(WithDm(MiddlewareConfig::SSP()));
  ASSERT_TRUE(
      cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)}).ok());
  // No prepare request for a centralized transaction.
  EXPECT_EQ(cluster.dm().stats().prepare_requests_sent, 0u);
}

// ---------------------------------------------------------------------------
// Traffic as the latency probe
// ---------------------------------------------------------------------------

/// Closed-loop clients against one data source: each terminal runs
/// single-write transactions with the COMMIT on the round (one round trip,
/// committed one-phase at the source), back to back on a key of its own.
/// Terminals start `stagger_ms` apart, so responses arrive spread out.
class ClosedLoop {
 public:
  ClosedLoop(MiniCluster& cluster, int source, int terminals,
             double stagger_ms)
      : cluster_(cluster),
        source_(source),
        tags_(static_cast<size_t>(terminals), 0),
        start_(cluster.loop().Now()),
        stagger_(MsToMicros(stagger_ms)) {}

  /// Advances virtual time by `ms`, starting each terminal's next
  /// transaction as soon as its last one has its result.
  void RunFor(double ms) {
    const Micros end = cluster_.loop().Now() + MsToMicros(ms);
    while (cluster_.loop().Now() < end) {
      for (size_t k = 0; k < tags_.size(); ++k) {
        if (cluster_.loop().Now() < start_ + stagger_ * static_cast<Micros>(k)) {
          continue;
        }
        if (tags_[k] != 0) {
          const MiniCluster::ClientTxn& txn = cluster_.txn(tags_[k]);
          if (!txn.has_result) continue;
          EXPECT_TRUE(txn.result.ok()) << txn.result.ToString();
        }
        tags_[k] = next_tag_++;
        cluster_.SendRound(
            tags_[k], {MiniCluster::Write(cluster_.KeyOn(source_, 500 + k), 1)},
            /*last_round=*/true, /*coordinator=*/1, /*tenant=*/0,
            /*commit=*/true);
      }
      cluster_.RunFor(0.1);
    }
  }

 private:
  MiniCluster& cluster_;
  int source_;
  std::vector<uint64_t> tags_;
  Micros start_;
  Micros stagger_;
  uint64_t next_tag_ = 1000;
};

/// Counts the PingRequests delivered to `node` from here on.
std::shared_ptr<uint64_t> CountPings(MiniCluster& cluster, NodeId node) {
  auto count = std::make_shared<uint64_t>(0);
  sim::Network& network = cluster.network();
  network.RegisterNode(node, [count, inner = network.handler(node)](
                                 std::unique_ptr<runtime::MessageBase> msg) {
    if (msg->type() == runtime::MessageType::kPingRequest) ++*count;
    inner(std::move(msg));
  });
  return count;
}

TEST(MiddlewareTest, TrafficSamplesLeaveOutTheTimeAResponseWasHeld) {
  // Without pings, the estimates come from execute round trips only. Each
  // response below is held at its source: through the decentralized
  // prepare (a prepare record's fsync), or through a one-phase commit (a
  // commit record's fsync). The source reports that residence and the DM
  // takes it off the round trip, so the estimates stay on the links' RTTs
  // (this deployment has no jitter); counted in, they would drift by the
  // fsyncs.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  SilenceMonitor(cluster);
  const core::LatencyMonitor& monitor = cluster.dm().monitor();
  const uint64_t pongs = monitor.stats().pongs_received;
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster
                    .RunTxn(10 + i, {MiniCluster::Write(cluster.KeyOn(0, i), 1),
                                     MiniCluster::Write(cluster.KeyOn(1, i), 2)})
                    .ok());
    ASSERT_TRUE(
        cluster.RunBundledTxn(20 + i, {MiniCluster::Write(cluster.KeyOn(0, 50 + i), 1)})
            .ok());
    ASSERT_TRUE(
        cluster.RunBundledTxn(30 + i, {MiniCluster::Write(cluster.KeyOn(1, 50 + i), 1)})
            .ok());
  }
  EXPECT_EQ(monitor.stats().pongs_received, pongs);
  EXPECT_EQ(monitor.stats().traffic_samples, 20u);
  EXPECT_EQ(cluster.source(0).stats().exec_commits, 5u);
  EXPECT_EQ(cluster.source(1).stats().exec_commits, 5u);
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(cluster.source(0).id())),
              static_cast<double>(MsToMicros(10)), 10.0);
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(cluster.source(1).id())),
              static_cast<double>(MsToMicros(100)), 10.0);
}

TEST(MiddlewareTest, LoadEstimateFollowsResponsesWithoutPongs) {
  // Eight transactions open a branch each at source 0 and stay open: every
  // execute response reports the branches in flight there, and the
  // balancer's load term follows with no pong.
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  SilenceMonitor(cluster);
  const core::LatencyMonitor& monitor = cluster.dm().monitor();
  const NodeId source = cluster.source(0).id();
  EXPECT_EQ(monitor.LoadEstimate(source), 0.0);
  const uint64_t pongs = monitor.stats().pongs_received;
  for (uint64_t i = 0; i < 8; ++i) {
    cluster.SendRound(40 + i, {MiniCluster::Write(cluster.KeyOn(0, i), 1)},
                      /*last_round=*/false);
  }
  cluster.RunFor(50);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(cluster.txn(40 + i).round_responses.size(), 1u);
  }
  EXPECT_EQ(monitor.stats().pongs_received, pongs);
  // Seeded at 0 by the last pong, blended toward 8 by eight reports.
  EXPECT_GT(monitor.LoadEstimate(source), 5.0);
  EXPECT_EQ(monitor.LoadEstimate(cluster.source(1).id()), 0.0);
}

/// Source 0's first chunk split in two, same owner, at map version 1:
/// routing is unchanged, only the epoch moves.
sharding::ShardMap SplitFirstChunk(const MiniCluster::Options& options) {
  sharding::ShardMap map = sharding::ShardMap::FromRangePartition(
      options.table, options.keys_per_node, {2, 3}, options.chunks_per_source);
  EXPECT_TRUE(map.Split(0, 100, 1));
  return map;
}

TEST(MiddlewareTest, SourceAheadOfTheDmsMapIsPingedDespiteTraffic) {
  // Source 0 alone learns a newer map. Busy with traffic, it would not be
  // pinged; but its responses report the newer epoch, so the monitor
  // pings it anyway and the DM adopts the map off the pong.
  MiniCluster::Options options = WithDm(MiddlewareConfig::GeoTP());
  options.sharding = true;
  MiniCluster cluster(options);
  const auto pings = CountPings(cluster, cluster.source(0).id());
  ClosedLoop load(cluster, /*source=*/0, /*terminals=*/8, /*stagger_ms=*/1.5);
  load.RunFor(300);
  const uint64_t busy_pings = *pings;
  load.RunFor(200);
  EXPECT_LE(*pings - busy_pings, 2u);  // the busy link is not pinged

  auto update = std::make_unique<protocol::ShardMapUpdate>();
  update->from = 0;
  update->to = cluster.source(0).id();
  update->entries = SplitFirstChunk(options).ranges();
  cluster.network().Send(std::move(update));
  load.RunFor(100);
  EXPECT_EQ(cluster.source(0).migrator().map().epoch(), 1u);
  EXPECT_GE(cluster.dm().stats().shard_map_pulls, 1u);
  EXPECT_EQ(cluster.dm().catalog().ShardEpoch(), 1u);
  EXPECT_GE(*pings - busy_pings, 1u);
}

TEST(MiddlewareTest, SourceBehindTheDmsMapIsPushedItFromAResponse) {
  // The DM learns a newer map; source 0 does not. With no pong, the
  // source's next execute response reports its old epoch and the DM pushes
  // it the map.
  MiniCluster::Options options = WithDm(MiddlewareConfig::GeoTP());
  options.sharding = true;
  MiniCluster cluster(options);
  SilenceMonitor(cluster);
  ASSERT_TRUE(cluster.dm().catalog().mutable_shard_map().Adopt(
      SplitFirstChunk(options).ranges()));
  const uint64_t pongs = cluster.dm().monitor().stats().pongs_received;
  ASSERT_TRUE(
      cluster.RunBundledTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 500), 1)})
          .ok());
  EXPECT_EQ(cluster.dm().monitor().stats().pongs_received, pongs);
  EXPECT_EQ(cluster.dm().stats().shard_map_pushes, 1u);
  EXPECT_EQ(cluster.source(0).migrator().map().epoch(), 1u);
  EXPECT_EQ(cluster.source(1).migrator().map().epoch(), 0u);
}

TEST(MiddlewareTest, EstimateFollowsALatencyChangeOnABusyLinkWithoutPings) {
  // Source 0's link goes from 10 ms to 15 ms while the link is busy. The
  // execute round trips alone carry the estimate to the new RTT within
  // 200 ms, and not one ping goes there meanwhile. (A rise of more than a
  // ping interval leaves that long a gap between the last fast response
  // and the first slow one, and a ping goes out in the gap.)
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  const NodeId source = cluster.source(0).id();
  const auto pings = CountPings(cluster, source);
  ClosedLoop load(cluster, /*source=*/0, /*terminals=*/8, /*stagger_ms=*/1.5);
  load.RunFor(500);
  const core::LatencyMonitor& monitor = cluster.dm().monitor();
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(source)),
              static_cast<double>(MsToMicros(10)), 10.0);

  const uint64_t pings_before = *pings;
  cluster.network().matrix().SetSymmetric(1, source,
                                          sim::LinkSpec::FromRttMs(15.0));
  load.RunFor(200);
  EXPECT_NEAR(static_cast<double>(monitor.RttEstimate(source)),
              static_cast<double>(MsToMicros(15)),
              0.1 * static_cast<double>(MsToMicros(15)));
  EXPECT_EQ(*pings, pings_before);
}

TEST(MiddlewareTest, InFlightCountReturnsToZero) {
  MiniCluster cluster(WithDm(MiddlewareConfig::GeoTP()));
  ASSERT_TRUE(cluster.RunTxn(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)})
                  .ok());
  EXPECT_EQ(cluster.dm().InFlight(), 0u);
}

}  // namespace
}  // namespace geotp
