// Overload control: DM admission budget, per-tenant fair shares,
// shed replies with retry hints, bounded data-source run queues, and the
// whole layer surviving leader failovers without leaking budget.
//
// Structure mirrors the rest of the suite: AdmissionController unit
// tests first, then MiniCluster integration, then a seeded chaos
// harness (overload coinciding with replica-leader crashes), then a
// loopback-runtime case so the TSan job exercises the shed path across
// real threads and sockets.
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "middleware/overload.h"
#include "runtime/loopback_runtime.h"
#include "sim_fixture.h"

namespace geotp {
namespace {

using middleware::AdmissionController;
using middleware::MiddlewareConfig;
using middleware::OverloadConfig;
using middleware::ShedReason;
using testing_support::MiniCluster;

// ---------------------------------------------------------------------------
// AdmissionController unit tests
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, BudgetIsExactAndReleasable) {
  OverloadConfig config;
  config.max_inflight = 4;
  AdmissionController admission(config);

  int admitted = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    const ShedReason verdict = admission.Consider(
        /*tenant=*/0, /*dispatch_queue_depth=*/0,
        /*worst_source_occupancy=*/0.0, /*now=*/0);
    if (verdict == ShedReason::kNone) {
      admitted++;
    } else {
      EXPECT_EQ(verdict, ShedReason::kInflightBudget);
      shed++;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(admission.InFlight(), 4u);
  EXPECT_EQ(admission.stats().admitted, 4u);
  EXPECT_EQ(admission.stats().shed_inflight, 6u);
  EXPECT_EQ(admission.stats().peak_inflight, 4u);

  // Releases restore the budget slot-for-slot.
  for (int i = 0; i < 4; ++i) admission.Release(0);
  EXPECT_EQ(admission.InFlight(), 0u);
  EXPECT_EQ(admission.Consider(0, 0, 0.0, 0), ShedReason::kNone);
}

TEST(AdmissionControllerTest, RetryHintDoublesUnderSustainedShedding) {
  OverloadConfig config;
  config.max_inflight = 1;
  AdmissionController admission(config);
  ASSERT_EQ(admission.Consider(0, 0, 0.0, 0), ShedReason::kNone);

  // Sheds 1..7: base hint. Shed 8 crosses the first doubling step.
  for (int i = 0; i < 7; ++i) {
    admission.Consider(0, 0, 0.0, 0);
    EXPECT_EQ(admission.RetryHint(), config.retry_hint_base);
  }
  admission.Consider(0, 0, 0.0, 0);
  EXPECT_EQ(admission.RetryHint(), 2 * config.retry_hint_base);
  for (int i = 0; i < 8; ++i) admission.Consider(0, 0, 0.0, 0);
  EXPECT_EQ(admission.RetryHint(), 4 * config.retry_hint_base);

  // Saturates at the cap no matter how long the overload lasts.
  for (int i = 0; i < 200; ++i) admission.Consider(0, 0, 0.0, 0);
  EXPECT_EQ(admission.RetryHint(), config.retry_hint_max);

  // One admission resets the horizon to the base.
  admission.Release(0);
  ASSERT_EQ(admission.Consider(0, 0, 0.0, 0), ShedReason::kNone);
  admission.Consider(0, 0, 0.0, 0);
  EXPECT_EQ(admission.RetryHint(), config.retry_hint_base);
}

TEST(AdmissionControllerTest, WeightedSharesAreWorkConserving) {
  OverloadConfig config;
  config.max_inflight = 12;
  config.tenant_weights = {{0, 2}, {1, 1}};
  AdmissionController admission(config);

  // Only tenant 0 is active: it may borrow the whole budget.
  ASSERT_EQ(admission.Consider(0, 0, 0.0, /*now=*/0), ShedReason::kNone);
  EXPECT_EQ(admission.TenantShare(0, /*now=*/0), 12u);

  // Tenant 1 arrives: shares split 2:1 over the active weight mass.
  ASSERT_EQ(admission.Consider(1, 0, 0.0, /*now=*/0), ShedReason::kNone);
  EXPECT_EQ(admission.TenantShare(0, 0), 8u);
  EXPECT_EQ(admission.TenantShare(1, 0), 4u);

  // Tenant 1 goes idle (releases, and its activity window expires): its
  // share is lent back to tenant 0 — work-conserving borrowing.
  admission.Release(1);
  const Micros later = config.tenant_active_window + MsToMicros(1);
  EXPECT_EQ(admission.TenantShare(0, later), 12u);
}

TEST(AdmissionControllerTest, BackpressureSignalsShedNewAdmissions) {
  OverloadConfig config;
  config.max_inflight = 8;
  config.max_dispatch_queue = 2;
  AdmissionController admission(config);

  EXPECT_EQ(admission.Consider(0, /*dispatch_queue_depth=*/2, 0.0, 0),
            ShedReason::kDispatchQueue);
  EXPECT_EQ(admission.Consider(0, 0, /*worst_source_occupancy=*/0.96, 0),
            ShedReason::kSourcePressure);
  EXPECT_EQ(admission.stats().shed_dispatch, 1u);
  EXPECT_EQ(admission.stats().shed_source, 1u);
  // Both signals gone: admit again.
  EXPECT_EQ(admission.Consider(0, 1, 0.5, 0), ShedReason::kNone);
}

// ---------------------------------------------------------------------------
// MiniCluster integration
// ---------------------------------------------------------------------------

TEST(OverloadIntegrationTest, BudgetExactUnderConcurrentArrivals) {
  MiniCluster::Options options;
  options.dm.overload.max_inflight = 4;
  MiniCluster cluster(options);

  // Ten new transactions land at the DM in the same instant (same-pair
  // delivery preserves send order, so the decision sequence is exact).
  for (uint64_t tag = 1; tag <= 10; ++tag) {
    cluster.SendRound(tag, {MiniCluster::Write(cluster.KeyOn(0, tag), 1)},
                      /*last_round=*/true);
  }
  cluster.RunFor(2);

  const auto& admission = cluster.dm().admission();
  EXPECT_EQ(admission.InFlight(), 4u);
  EXPECT_EQ(admission.stats().admitted, 4u);
  EXPECT_EQ(admission.stats().shed_inflight, 6u);

  int shed_tags = 0;
  for (uint64_t tag = 1; tag <= 10; ++tag) {
    const auto& txn = cluster.txn(tag);
    if (txn.sheds > 0) {
      shed_tags++;
      // Every shed reply carries a usable backoff hint.
      EXPECT_GE(txn.last_retry_hint, MsToMicros(5)) << "tag " << tag;
    }
  }
  EXPECT_EQ(shed_tags, 6);

  // The admitted four finish normally and return their budget.
  cluster.RunFor(3000);
  int committed = 0;
  for (uint64_t tag = 1; tag <= 10; ++tag) {
    auto& txn = cluster.txn(tag);
    if (!txn.round_responses.empty() && !txn.has_result) {
      cluster.SendCommit(tag);
    }
  }
  cluster.RunFor(3000);
  for (uint64_t tag = 1; tag <= 10; ++tag) {
    auto& txn = cluster.txn(tag);
    if (txn.has_result && txn.result.ok()) committed++;
  }
  EXPECT_EQ(committed, 4);
  EXPECT_EQ(admission.InFlight(), 0u);
  EXPECT_EQ(cluster.dm().InFlight(), admission.InFlight());
}

TEST(OverloadIntegrationTest, RetryHintsGrowWhileOverloadPersists) {
  MiniCluster::Options options;
  options.dm.overload.max_inflight = 1;
  MiniCluster cluster(options);

  // Occupy the single budget slot and never finish.
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 1)},
                    /*last_round=*/false);
  cluster.RunFor(50);
  ASSERT_EQ(cluster.dm().admission().InFlight(), 1u);

  // 17 consecutive sheds: hints start at the base and double every 8.
  for (uint64_t tag = 2; tag <= 18; ++tag) {
    cluster.SendRound(tag, {MiniCluster::Write(cluster.KeyOn(0, tag), 1)},
                      /*last_round=*/true);
    cluster.RunFor(2);
    EXPECT_EQ(cluster.txn(tag).sheds, 1) << "tag " << tag;
  }
  EXPECT_EQ(cluster.txn(2).last_retry_hint, MsToMicros(5));
  EXPECT_EQ(cluster.txn(18).last_retry_hint, MsToMicros(20));
  EXPECT_EQ(cluster.dm().admission().stats().Sheds(), 17u);
}

TEST(OverloadIntegrationTest, InFlightRoundsAreNeverShedMidTransaction) {
  MiniCluster::Options options;
  options.dm.overload.max_inflight = 1;
  MiniCluster cluster(options);

  // Round 1 of a two-round distributed transaction is admitted.
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(0, 1), 7)},
                    /*last_round=*/false);
  cluster.RunFor(3000);
  ASSERT_FALSE(cluster.txn(1).round_responses.empty());

  // The budget is now saturated: new transactions shed...
  for (uint64_t tag = 2; tag <= 4; ++tag) {
    cluster.SendRound(tag, {MiniCluster::Write(cluster.KeyOn(0, tag), 1)},
                      /*last_round=*/true);
  }
  cluster.RunFor(10);
  EXPECT_EQ(cluster.dm().admission().stats().Sheds(), 3u);

  // ...but the admitted transaction's continuation round and commit
  // always proceed (finishing is what frees the budget).
  cluster.SendRound(1, {MiniCluster::Write(cluster.KeyOn(1, 1), 7)},
                    /*last_round=*/true);
  cluster.RunFor(3000);
  cluster.SendCommit(1);
  cluster.RunFor(3000);
  EXPECT_EQ(cluster.txn(1).sheds, 0);
  ASSERT_TRUE(cluster.txn(1).has_result);
  EXPECT_TRUE(cluster.txn(1).result.ok());
  EXPECT_EQ(cluster.dm().admission().InFlight(), 0u);
}

TEST(OverloadIntegrationTest, TenantShareCapsHotTenantUnderSkew) {
  MiniCluster::Options options;
  options.dm.overload.max_inflight = 4;  // equal weights: 2 slots each
  MiniCluster cluster(options);

  // Hot tenant 0 offers ten transactions, tenant 1 offers two, all in
  // the same instant (10:1-style skew squeezed into one arrival wave).
  // Send order: two from tenant 0, one from tenant 1, eight more from
  // tenant 0, one from tenant 1.
  uint64_t tag = 1;
  auto send = [&](uint32_t tenant) {
    cluster.SendRound(tag, {MiniCluster::Write(cluster.KeyOn(0, tag), 1)},
                      /*last_round=*/true, /*coordinator=*/1, tenant);
    ++tag;
  };
  send(0);
  send(0);
  send(1);
  for (int i = 0; i < 8; ++i) send(0);
  send(1);
  cluster.RunFor(2);

  const auto& admission = cluster.dm().admission();
  // Both tenants hold exactly their weighted share; the hot tenant's
  // excess was shed by the tenant-share rule, not the global budget.
  EXPECT_EQ(admission.TenantInFlight(0), 2u);
  EXPECT_EQ(admission.TenantInFlight(1), 2u);
  EXPECT_EQ(admission.stats().admitted, 4u);
  EXPECT_EQ(admission.stats().shed_tenant, 8u);
  EXPECT_EQ(admission.stats().shed_inflight, 0u);
}

TEST(OverloadIntegrationTest, SourceRunQueueBoundRefusesOnlyNewBranches) {
  MiniCluster::Options options;
  options.ds_tweak = [](datasource::DataSourceConfig* config) {
    config->max_run_queue = 1;
  };
  MiniCluster cluster(options);

  // Three concurrent single-round transactions on the same source: the
  // first takes the only run-queue slot; the other two are refused
  // retryably at begin_branch and abort.
  for (uint64_t tag = 1; tag <= 3; ++tag) {
    cluster.SendRound(tag, {MiniCluster::Write(cluster.KeyOn(0, tag), 1)},
                      /*last_round=*/true);
  }
  cluster.RunFor(3000);
  EXPECT_EQ(cluster.source(0).stats().run_queue_rejections, 2u);

  // The in-flight branch is never evicted: it commits normally.
  ASSERT_FALSE(cluster.txn(1).round_responses.empty());
  cluster.SendCommit(1);
  cluster.RunFor(3000);
  ASSERT_TRUE(cluster.txn(1).has_result);
  EXPECT_TRUE(cluster.txn(1).result.ok());

  int aborted = 0;
  for (uint64_t tag = 2; tag <= 3; ++tag) {
    if (cluster.txn(tag).has_result && !cluster.txn(tag).result.ok()) {
      aborted++;
    }
  }
  EXPECT_EQ(aborted, 2);
  EXPECT_EQ(cluster.source(0).engine().ActiveCount(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos: overload coinciding with replica-leader failovers. The admission
// budget must come back whole (no wedge), and shed/aborted transactions
// must leave no trace in committed state (no double-execute).
// ---------------------------------------------------------------------------

class OverloadChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverloadChaosTest, FailoverUnderOverloadConservesBudgetAndBalances) {
  MiniCluster::Options options;
  options.dm = MiddlewareConfig::GeoTP();
  options.dm.overload.max_inflight = 6;
  options.replication_factor = 3;
  options.ds_tweak = [](datasource::DataSourceConfig* config) {
    config->max_run_queue = 8;
  };
  MiniCluster cluster(options);
  Rng rng(GetParam());
  constexpr int kAccounts = 16;
  constexpr int kTxns = 60;

  uint64_t tag = 1;
  int leader_crashes = 0;
  for (int i = 0; i < kTxns; ++i) {
    const int node_a = static_cast<int>(rng.NextU64(2));
    const int node_b = static_cast<int>(rng.NextU64(2));
    const uint64_t off_a = rng.NextU64(kAccounts);
    uint64_t off_b = rng.NextU64(kAccounts);
    if (node_a == node_b && off_a == off_b) off_b = (off_b + 1) % kAccounts;
    const int64_t amount = static_cast<int64_t>(rng.NextU64(50)) + 1;
    cluster.SendRound(tag, {
        MiniCluster::Write(cluster.KeyOn(node_a, off_a), -amount, true),
        MiniCluster::Write(cluster.KeyOn(node_b, off_b), amount, true),
    }, true);
    ++tag;
    // Short gaps keep many transactions in flight, so arrivals race the
    // budget and a good fraction get shed.
    cluster.RunFor(rng.NextU64(25));

    if (rng.NextBool(0.08)) {
      const int group = static_cast<int>(rng.NextU64(2));
      auto* leader = cluster.leader_of(group);
      if (leader != nullptr) {
        leader->Crash();
        cluster.RunFor(300 + rng.NextU64(300));
        leader->Restart();
        ++leader_crashes;
      }
    }
  }

  // Let in-flight work settle; commit whatever produced responses.
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

  // Budget bookkeeping never leaks: the admission controller's view of
  // in-flight work matches the coordinator's transaction table exactly.
  EXPECT_EQ(cluster.dm().admission().InFlight(), cluster.dm().InFlight())
      << "seed " << GetParam();
  EXPECT_GT(cluster.dm().admission().stats().admitted, 0u);

  // The system is not wedged: a fresh probe transaction is admitted and
  // commits (a leaked budget would shed it forever).
  const Status probe = cluster.RunTxn(tag, {
      MiniCluster::Write(cluster.KeyOn(0, 0), -5, true),
      MiniCluster::Write(cluster.KeyOn(1, 0), 5, true),
  });
  EXPECT_TRUE(probe.ok()) << "seed " << GetParam() << ": " << probe.message();

  // No double-execute, no in-doubt branches, no lock leaks — over the
  // current leaders' committed state.
  int64_t sum = 0;
  for (int group = 0; group < 2; ++group) {
    auto* leader = cluster.leader_of(group);
    ASSERT_NE(leader, nullptr) << "group " << group << " has no leader";
    for (uint64_t off = 0; off < kAccounts; ++off) {
      auto rec = leader->engine().store().Get(cluster.KeyOn(group, off));
      if (rec) sum += rec->value;
    }
    EXPECT_TRUE(leader->engine().PreparedXids().empty())
        << "group " << group << " leader " << leader->id();
    EXPECT_EQ(leader->engine().ActiveCount(), 0u)
        << "group " << group << " leader " << leader->id();
  }
  EXPECT_EQ(sum, 0) << "seed " << GetParam() << " (" << leader_crashes
                    << " leader crashes, "
                    << cluster.dm().admission().stats().Sheds()
                    << " sheds)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Loopback runtime: the shed path across real threads and sockets (the
// TSan job runs this). Eight same-instant arrivals against a budget of
// two must produce exactly two admissions and six Overloaded replies,
// in arrival order, with no data races.
// ---------------------------------------------------------------------------

TEST(OverloadLoopbackTest, ShedsAcrossRealSockets) {
  runtime::LoopbackConfig config;
  config.data_dir = ::testing::TempDir() + "geotp-overload-loopback";
  runtime::LoopbackRuntime rt(config);

  workload::Deployment deployment;
  deployment.middlewares = {1};
  deployment.groups = {{2}, {3}};
  deployment.catalog.AddRangePartitionedTable(/*table=*/1,
                                              /*keys_per_node=*/1000, {2, 3});
  deployment.dm.overload.max_inflight = 2;
  const std::unique_ptr<workload::Cluster> cluster =
      workload::Build(deployment, &rt);

  std::mutex mu;
  int responses = 0;
  int sheds = 0;
  Micros worst_hint = 0;
  std::atomic<int> total{0};
  rt.transport()->RegisterNode(
      0, [&](std::unique_ptr<runtime::MessageBase> msg) {
        std::lock_guard<std::mutex> lock(mu);
        if (msg->type() == runtime::MessageType::kClientRoundResponse) {
          responses++;
        } else if (msg->type() == runtime::MessageType::kOverloadedResponse) {
          auto& shed = static_cast<protocol::OverloadedResponse&>(*msg);
          sheds++;
          worst_hint = std::max(worst_hint, shed.retry_after_hint);
        }
        total.fetch_add(1);
      });

  for (uint64_t tag = 1; tag <= 8; ++tag) {
    auto req = std::make_unique<protocol::ClientRoundRequest>();
    req->from = 0;
    req->to = 1;
    req->client_tag = tag;
    req->ops = {MiniCluster::Write(RecordKey{1, tag}, 1)};
    req->last_round = true;
    rt.transport()->Send(std::move(req));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (total.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.Shutdown();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(sheds, 6);
  EXPECT_GE(worst_hint, MsToMicros(5));
  const middleware::AdmissionController& admission = cluster->dm().admission();
  EXPECT_EQ(admission.InFlight(), 2u);
  EXPECT_EQ(admission.stats().admitted, 2u);
  EXPECT_EQ(admission.stats().shed_inflight, 6u);
}

}  // namespace
}  // namespace geotp
