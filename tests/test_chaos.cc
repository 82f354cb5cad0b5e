// Chaos test: randomized crash/restart injection (data sources and the
// middleware) under a concurrent bank-transfer workload, followed by
// §V-A recovery. Invariants checked after the dust settles:
//   * the global balance sum is conserved (atomicity across failures),
//   * no branch remains prepared/in-doubt after recovery (AC5),
//   * no locks leak.
// In the crash, replicated and batched harnesses a seeded half of the
// transactions bundle COMMIT with their round, so a single-source one
// commits one-phase at the data source as its batch ends; the rest send
// COMMIT after the round response. `bundle_rng` is a stream of its own:
// bundling draws nothing from `rng`, which alone sets the crash schedule.
#include <string>

#include <gtest/gtest.h>

#include "sim_fixture.h"

namespace geotp {
namespace {

using middleware::MiddlewareConfig;
using testing_support::MiniCluster;

/// One-line repro command for the currently running (parameterized) test,
/// appended to every failing assertion of the chaos harnesses.
std::string ReproLine(uint64_t seed) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string("seed ") + std::to_string(seed) +
         " — repro: ./test_chaos --gtest_filter=" + info->test_suite_name() +
         "." + info->name();
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, CrashRecoveryConservesBalances) {
  MiniCluster::Options options;
  options.dm = MiddlewareConfig::GeoTP();
  MiniCluster cluster(options);
  Rng rng(GetParam());
  Rng bundle_rng(GetParam() ^ 0xB0D1ED);  // see the file comment
  constexpr int kAccounts = 16;
  constexpr int kTxns = 80;

  uint64_t tag = 1;
  int ds_crashes = 0;
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
    }, true, /*coordinator=*/1, /*tenant=*/0,
       /*commit=*/bundle_rng.NextBool(0.5));
    ++tag;
    cluster.RunFor(rng.NextU64(60));

    // Occasionally crash a data source mid-traffic and restart it a bit
    // later (prepared branches survive; active ones abort).
    if (rng.NextBool(0.08)) {
      const int victim = static_cast<int>(rng.NextU64(2));
      cluster.source(victim).Crash();
      cluster.RunFor(rng.NextU64(80));
      cluster.source(victim).Restart();
      ++ds_crashes;
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

  // §V-A recovery pass: crash + restart the DM so every in-doubt branch
  // is resolved from the decision log.
  cluster.dm().Crash();
  cluster.dm().Restart(cluster.source_ptrs());
  cluster.RunFor(5000);

  // Invariants.
  int64_t sum = 0;
  for (int node = 0; node < 2; ++node) {
    for (uint64_t off = 0; off < kAccounts; ++off) {
      auto rec =
          cluster.source(node).engine().store().Get(cluster.KeyOn(node, off));
      if (rec) sum += rec->value;
    }
  }
  EXPECT_EQ(sum, 0) << "seed " << GetParam() << " (" << ds_crashes
                    << " source crashes injected)";
  EXPECT_TRUE(cluster.source(0).engine().PreparedXids().empty());
  EXPECT_TRUE(cluster.source(1).engine().PreparedXids().empty());
  EXPECT_EQ(cluster.source(0).engine().ActiveCount(), 0u);
  EXPECT_EQ(cluster.source(1).engine().ActiveCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// Replicated chaos: every data source is a 3-replica group; crashes hit
// the group's *current leader* and stay down long enough to force an
// election, then restart and rejoin as followers. The workload must keep
// committing through failovers and conserve the global balance sum over
// the surviving leaders' committed state.
class ReplicatedChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicatedChaosTest, LeaderCrashFailoverConservesBalances) {
  MiniCluster::Options options;
  options.dm = MiddlewareConfig::GeoTP();
  options.replication_factor = 3;
  MiniCluster cluster(options);
  Rng rng(GetParam());
  Rng bundle_rng(GetParam() ^ 0xB0D1ED);  // see the file comment
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
    }, true, /*coordinator=*/1, /*tenant=*/0,
       /*commit=*/bundle_rng.NextBool(0.5));
    ++tag;
    cluster.RunFor(rng.NextU64(60));

    // Occasionally crash a group's current leader; keep it down past the
    // election timeout so a follower takes over, then rejoin it.
    if (rng.NextBool(0.06)) {
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

  // Invariants over the current leaders' committed state.
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
                    << " leader crashes injected)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatedChaosTest,
                         ::testing::Values(3, 11, 17, 29));

// Group-commit chaos: same replicated leader-crash schedule, but with a
// wide WAL batching window at every replica, so crashes regularly land
// while multiple transactions sit in one open (un-flushed) batch. The
// balance sum must still be conserved: losing a batch may abort
// transactions but can never tear one.
class BatchedChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedChaosTest, BatchingPlusFailoverConservesBalances) {
  MiniCluster::Options options;
  options.dm = MiddlewareConfig::GeoTP();
  options.replication_factor = 3;
  options.group_commit.max_batch_delay = 400;  // wide open-batch window
  options.group_commit.max_batch_size = 8;
  MiniCluster cluster(options);
  Rng rng(GetParam());
  Rng bundle_rng(GetParam() ^ 0xB0D1ED);  // see the file comment
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
    }, true, /*coordinator=*/1, /*tenant=*/0,
       /*commit=*/bundle_rng.NextBool(0.5));
    ++tag;
    cluster.RunFor(rng.NextU64(50));

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
                    << " leader crashes injected)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedChaosTest,
                         ::testing::Values(7, 19, 42));

// Deposed-mid-flush chaos: the replicated transfer workload with a wide
// WAL batching window, where the fault is a partition instead of a crash.
// The group's leader is cut off while its records sit in the open batch
// or on the WAL device, so it ships entries that may never leave, often
// loses the leadership with branches still held, and rejoins as a
// follower with its divergent tail. Checked with the committed-write
// ledger on every replica: each key holds exactly the committed
// transfers, every transaction settled, and no replica holds a branch or
// a commit left in doubt.
class DeposedMidFlushChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeposedMidFlushChaosTest, PartitionedLeaderKeepsReplicasOnTheLedger) {
  MiniCluster::Options options;
  options.dm = MiddlewareConfig::GeoTP();
  options.replication_factor = 3;
  options.group_commit.max_batch_delay = 400;  // wide open-batch window
  options.group_commit.max_batch_size = 8;
  MiniCluster cluster(options);
  Rng rng(GetParam());
  Rng bundle_rng(GetParam() ^ 0xB0D1ED);  // see the file comment
  const std::string repro = ReproLine(GetParam());
  constexpr int kAccounts = 16;
  constexpr int kTxns = 60;

  struct Leg {
    RecordKey a;
    RecordKey b;
    int64_t amount = 0;
  };
  std::map<uint64_t, Leg> ledger;
  uint64_t tag = 1;
  int partitions = 0;
  for (int i = 0; i < kTxns; ++i) {
    const int node_a = static_cast<int>(rng.NextU64(2));
    const int node_b = static_cast<int>(rng.NextU64(2));
    const uint64_t off_a = rng.NextU64(kAccounts);
    uint64_t off_b = rng.NextU64(kAccounts);
    if (node_a == node_b && off_a == off_b) off_b = (off_b + 1) % kAccounts;
    const int64_t amount = static_cast<int64_t>(rng.NextU64(50)) + 1;
    const RecordKey a = cluster.KeyOn(node_a, off_a);
    const RecordKey b = cluster.KeyOn(node_b, off_b);
    cluster.SendRound(tag, {
        MiniCluster::Write(a, -amount, true),
        MiniCluster::Write(b, amount, true),
    }, true, /*coordinator=*/1, /*tenant=*/0,
       /*commit=*/bundle_rng.NextBool(0.5));
    ledger[tag] = Leg{a, b, amount};
    ++tag;
    cluster.RunFor(rng.NextU64(50));

    // Occasionally cut a group's leader off the moment it has records in
    // its WAL pipeline, for as long as the crash families keep a crashed
    // leader down: past the election timeout, so a follower takes over.
    if (rng.NextBool(0.1)) {
      const int group = static_cast<int>(rng.NextU64(2));
      auto* leader = cluster.leader_of(group);
      if (leader == nullptr) continue;
      for (int step = 0; step < 4000 && leader->committer().pending() == 0;
           ++step) {
        cluster.RunFor(0.05);
      }
      cluster.network().Partition(leader->id());
      cluster.RunFor(300 + rng.NextU64(300));
      cluster.network().Restore(leader->id());
      ++partitions;
    }
  }

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

  std::map<uint64_t, int64_t> expected;
  for (uint64_t t = 1; t < tag; ++t) {
    auto& txn = cluster.txn(t);
    ASSERT_TRUE(txn.has_result) << repro << " (txn " << t << " unresolved)";
    if (!txn.result.ok()) continue;
    expected[ledger[t].a.key] -= ledger[t].amount;
    expected[ledger[t].b.key] += ledger[t].amount;
  }
  EXPECT_EQ(cluster.dm().InFlight(), 0u) << repro;
  for (int group = 0; group < 2; ++group) {
    ASSERT_NE(cluster.leader_of(group), nullptr)
        << repro << " (group " << group << " has no leader)";
    for (datasource::DataSourceNode* replica : cluster.replica_group(group)) {
      for (uint64_t off = 0; off < kAccounts; ++off) {
        const RecordKey key = cluster.KeyOn(group, off);
        const auto rec = replica->engine().store().Get(key);
        EXPECT_EQ(rec ? rec->value : 0, expected[key.key])
            << repro << " (key " << key.key << " at replica "
            << replica->id() << ", " << partitions << " partitions)";
      }
      EXPECT_TRUE(replica->engine().PreparedXids().empty())
          << repro << " (replica " << replica->id() << ")";
      EXPECT_EQ(replica->engine().ActiveCount(), 0u)
          << repro << " (replica " << replica->id() << ")";
      EXPECT_EQ(replica->replicator()->commit_waiters(), 0u)
          << repro << " (replica " << replica->id() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeposedMidFlushChaosTest,
                         ::testing::Values(2, 6, 14, 23, 31, 47));

// ---------------------------------------------------------------------------
// Shard chaos: a deterministic seeded fuzzer interleaving splits, merges,
// balancer migrations, and replica-leader crashes over live skewed
// (mirrored-zipf-style) transfer traffic through two DMs. Invariants:
//   * the shard map stays an exact partition of the key space at every
//     event step (no gaps, no overlaps),
//   * after the dust settles every DM's and data source's shard map
//     converges to the balancer's (anti-entropy included),
//   * no committed write is lost: the global balance sum over the
//     authoritative owners is conserved,
//   * no branch stays prepared/active on any current leader.
// A failing seed prints a one-line repro command.
// ---------------------------------------------------------------------------

class ShardChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardChaosTest, SplitMergeMigrateCrashConvergesAndConservesBalances) {
  const uint64_t seed = GetParam();
  const std::string repro = ReproLine(seed);

  MiniCluster::Options options;
  options.num_data_sources = 2;
  options.rtts_ms = {10.0, 100.0};
  options.replication_factor = 3;
  options.num_middlewares = 2;
  options.sharding = true;
  options.chunks_per_source = 4;
  options.dm = MiddlewareConfig::GeoTP();
  options.dm.balancer.enabled = true;
  options.dm.balancer.interval = MsToMicros(150);
  options.dm.balancer.min_heat = 3;
  options.dm.balancer.min_rtt_gain = MsToMicros(40);
  options.dm.balancer.migration_timeout = SecToMicros(3);
  options.dm.balancer.range_cooldown = SecToMicros(2);
  options.dm.balancer.max_concurrent = 2;
  options.dm.balancer.split_min_keys = 4;
  options.dm.balancer.merge_cold_ticks = 8;
  MiniCluster cluster(options);
  Rng rng(0x5EED0000 + seed);

  constexpr int kAccounts = 24;  // per source
  constexpr int kTxns = 50;
  const NodeId dm2 = 2 + options.num_data_sources * options.replication_factor;
  sharding::ShardBalancer* balancer = cluster.dm().balancer();
  ASSERT_NE(balancer, nullptr) << repro;

  // Zipf-style skew: most traffic hits the low offsets of the FAR source
  // (the placement the balancer wants to change), with a uniform tail.
  auto skewed_offset = [&rng]() {
    const double u = rng.NextDouble();
    return static_cast<uint64_t>(static_cast<double>(kAccounts) *
                                 (u * u * u));
  };

  uint64_t tag = 1;
  std::vector<bool> commit_sent(kTxns + 1, false);
  // Client-side ledger of submitted transfers: committed ones define the
  // expected value of every key at the end.
  struct Leg {
    RecordKey a;
    RecordKey b;
    int64_t amount = 0;
  };
  std::map<uint64_t, Leg> ledger;
  int leader_crashes = 0, force_splits = 0, force_merges = 0;
  for (int i = 0; i < kTxns; ++i) {
    // Transfer between two keys; the skewed leg usually lives on the far
    // source, the other leg anywhere — so splits, migrations, and fences
    // all see cross-shard transactions.
    const uint64_t off_a = skewed_offset();
    const int node_b = static_cast<int>(rng.NextU64(2));
    uint64_t off_b = rng.NextU64(kAccounts);
    if (node_b == 1 && off_a == off_b) off_b = (off_b + 1) % kAccounts;
    const int64_t amount = static_cast<int64_t>(rng.NextU64(50)) + 1;
    const NodeId coordinator = rng.NextBool(0.3) ? dm2 : NodeId{1};
    cluster.SendRound(tag, {
        MiniCluster::Write(cluster.KeyOn(1, off_a), -amount, true),
        MiniCluster::Write(cluster.KeyOn(node_b, off_b), amount, true),
    }, true, coordinator);
    ledger[tag] = Leg{cluster.KeyOn(1, off_a), cluster.KeyOn(node_b, off_b),
                      amount};
    ++tag;
    cluster.RunFor(rng.NextU64(60));

    // Clients usually commit promptly (so prepared branches drain and
    // migrations can cut over); a few stragglers stay parked across
    // crashes and fences until the settle phase.
    for (uint64_t t = 1; t < tag; ++t) {
      auto& txn = cluster.txn(t);
      if (!commit_sent[t] && !txn.has_result && !txn.round_responses.empty() &&
          rng.NextBool(0.85)) {
        cluster.SendCommit(t);
        commit_sent[t] = true;
      }
    }

    if (rng.NextBool(0.06)) {
      const int group = static_cast<int>(rng.NextU64(2));
      auto* leader = cluster.leader_of(group);
      if (leader != nullptr) {
        leader->Crash();
        cluster.RunFor(300 + rng.NextU64(300));
        leader->Restart();
        ++leader_crashes;
      }
    }
    if (rng.NextBool(0.08)) {
      const uint64_t at = rng.NextU64(2 * options.keys_per_node);
      if (balancer->ForceSplit(options.table, at)) ++force_splits;
    }
    if (rng.NextBool(0.06)) {
      const uint64_t at = rng.NextU64(2 * options.keys_per_node);
      if (balancer->ForceMerge(options.table, at)) ++force_merges;
    }

    // Structural invariant, every event step: the authoritative map is an
    // exact partition — no key ever routes nowhere or twice.
    ASSERT_TRUE(cluster.dm().catalog().shard_map().IsPartition(options.table))
        << repro << " (step " << i << ")";
  }

  // Settle: commit whatever produced responses, keep driving until the
  // in-flight work (including migrations and elections) drains.
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
  // Convergence horizon: ping-piggybacked anti-entropy repairs any actor
  // that missed a publish within a few ping round trips, with NO traffic.
  cluster.RunFor(8000);

  // --- Invariant: every actor's shard map converged to the balancer's ---
  const sharding::ShardMap& authority = cluster.dm().catalog().shard_map();
  ASSERT_TRUE(authority.IsPartition(options.table)) << repro;
  EXPECT_EQ(cluster.dm(1).catalog().ShardEpoch(), authority.epoch()) << repro;
  auto expect_same_map = [&](const sharding::ShardMap& map,
                             const std::string& who) {
    if (map.empty() && authority.epoch() == 0) return;  // nothing published
    ASSERT_EQ(map.size(), authority.size()) << repro << " at " << who;
    for (size_t r = 0; r < authority.size(); ++r) {
      const sharding::ShardRange& a = authority.ranges()[r];
      const sharding::ShardRange& b = map.ranges()[r];
      EXPECT_TRUE(a.SameSpan(b) && a.owner == b.owner &&
                  a.version == b.version)
          << repro << " at " << who << ": " << a.ToString() << " vs "
          << b.ToString();
    }
  };
  expect_same_map(cluster.dm(1).catalog().shard_map(), "dm2");
  for (auto* src : cluster.source_ptrs()) {
    ASSERT_FALSE(src->crashed()) << repro;
    expect_same_map(src->migrator().map(),
                    "source " + std::to_string(src->id()));
  }

  // --- Invariant: no committed write lost, none resurrected. Per key,
  // the value at its authoritative owner must equal the client-side
  // ledger of committed transfers — stronger than sum conservation (which
  // compensating errors could fake), and it names the torn key on
  // failure. Every transaction must also have settled to a result.
  std::map<uint64_t, int64_t> expected;
  for (uint64_t t = 1; t < tag; ++t) {
    auto& txn = cluster.txn(t);
    ASSERT_TRUE(txn.has_result) << repro << " (txn " << t << " unresolved)";
    if (!txn.result.ok()) continue;
    expected[ledger[t].a.key] -= ledger[t].amount;
    expected[ledger[t].b.key] += ledger[t].amount;
  }
  int64_t sum = 0;
  for (int node = 0; node < 2; ++node) {
    for (uint64_t off = 0; off < kAccounts; ++off) {
      const RecordKey key = cluster.KeyOn(node, off);
      const NodeId owner = cluster.dm().catalog().Route(key);
      ASSERT_TRUE(owner == 2 || owner == 3) << repro;
      auto* leader = cluster.leader_of(static_cast<int>(owner) - 2);
      ASSERT_NE(leader, nullptr) << repro << " (group " << owner << ")";
      auto rec = leader->engine().store().Get(key);
      const int64_t got = rec ? rec->value : 0;
      EXPECT_EQ(got, expected[key.key])
          << repro << " (key " << key.key << " at owner " << owner << ")";
      sum += got;
    }
  }
  EXPECT_EQ(sum, 0) << repro << " (" << leader_crashes << " leader crashes, "
                    << force_splits << " splits, " << force_merges
                    << " merges, "
                    << balancer->stats().migrations_completed
                    << " migrations completed)";

  // --- Invariant: nothing left prepared/active on any current leader ---
  for (int group = 0; group < 2; ++group) {
    auto* leader = cluster.leader_of(group);
    ASSERT_NE(leader, nullptr) << repro;
    EXPECT_TRUE(leader->engine().PreparedXids().empty())
        << repro << " (group " << group << ")";
    EXPECT_EQ(leader->engine().ActiveCount(), 0u)
        << repro << " (group " << group << ")";
  }

  // One-line schedule summary per seed (lands in the CI log artifact; on
  // a red seed the repro command follows).
  std::fprintf(stderr,
               "[shard-chaos] seed %llu: %d leader crashes, %d forced splits, "
               "%d forced merges, %llu balancer splits, %llu merges, "
               "%llu migrations completed, %llu cancelled, epoch %llu\n",
               static_cast<unsigned long long>(seed), leader_crashes,
               force_splits, force_merges,
               static_cast<unsigned long long>(balancer->stats().splits),
               static_cast<unsigned long long>(balancer->stats().merges),
               static_cast<unsigned long long>(
                   balancer->stats().migrations_completed),
               static_cast<unsigned long long>(
                   balancer->stats().migrations_cancelled),
               static_cast<unsigned long long>(authority.epoch()));
  if (::testing::Test::HasFailure()) {
    std::fprintf(stderr, "[shard-chaos] FAILED %s\n", repro.c_str());
  }
}

// 20 fixed seeds — the set CI runs under ASan+UBSan.
INSTANTIATE_TEST_SUITE_P(Seeds, ShardChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 17, 18, 19,
                                           20));

// ---------------------------------------------------------------------------
// Streaming-migration chaos: the same split/merge/migration/leader-crash
// fuzzer, but every source group is preloaded with enough resident records
// that migrations stream many bounded chunks (small chunk size, tight
// credit window), so injected leader crashes regularly land MID-STREAM —
// on the source (the promoted leader must abort or resume from the
// replicated Begin/Cutover records) and on the destination (the stream
// stalls and the balancer's timeout cancels cleanly). Invariants are the
// ShardChaosTest set: exact partition at every step, map convergence, a
// per-key committed ledger (no write lost, none resurrected), and nothing
// left prepared/active on any current leader.
// ---------------------------------------------------------------------------

class StreamingShardChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingShardChaosTest, MidStreamCrashesResumeOrAbortFromTheLog) {
  const uint64_t seed = GetParam();
  const std::string repro = ReproLine(seed);

  MiniCluster::Options options;
  options.num_data_sources = 2;
  options.rtts_ms = {10.0, 100.0};
  options.replication_factor = 3;
  options.num_middlewares = 2;
  options.sharding = true;
  options.chunks_per_source = 4;
  options.dm = MiddlewareConfig::GeoTP();
  options.dm.balancer.enabled = true;
  options.dm.balancer.interval = MsToMicros(150);
  options.dm.balancer.min_heat = 3;
  options.dm.balancer.min_rtt_gain = MsToMicros(40);
  options.dm.balancer.migration_timeout = SecToMicros(3);
  options.dm.balancer.range_cooldown = SecToMicros(2);
  options.dm.balancer.max_concurrent = 2;
  // Split disabled on purpose: the balancer would otherwise carve the
  // tiny hot head out and migrate a 1-chunk child, and the injected
  // crashes would never land mid-stream. Whole chunk-ranges must move.
  options.dm.balancer.split_enabled = false;
  options.dm.balancer.merge_cold_ticks = 8;
  // Long streams: 250 resident records per chunk-range, 16-record
  // chunks, a 2-chunk window — ~16 chunks per migration, in flight for
  // hundreds of virtual milliseconds, so the 6% per-step crash hazard
  // hits plenty of them mid-stream across the seed set.
  options.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 16;
    ds->migration_stream_window = 2;
    ds->migration_resend_timeout = MsToMicros(400);
  };
  MiniCluster cluster(options);
  cluster.PreloadRange(0, 1000);
  cluster.PreloadRange(1, 1000);
  Rng rng(0x57E40000 + seed);

  constexpr int kAccounts = 24;  // per source
  constexpr int kTxns = 50;
  const NodeId dm2 = 2 + options.num_data_sources * options.replication_factor;
  sharding::ShardBalancer* balancer = cluster.dm().balancer();
  ASSERT_NE(balancer, nullptr) << repro;

  auto skewed_offset = [&rng]() {
    const double u = rng.NextDouble();
    return static_cast<uint64_t>(static_cast<double>(kAccounts) *
                                 (u * u * u));
  };

  uint64_t tag = 1;
  std::vector<bool> commit_sent(kTxns + 1, false);
  struct Leg {
    RecordKey a;
    RecordKey b;
    int64_t amount = 0;
  };
  std::map<uint64_t, Leg> ledger;
  int leader_crashes = 0, mid_stream_crashes = 0;
  for (int i = 0; i < kTxns; ++i) {
    const uint64_t off_a = skewed_offset();
    const int node_b = static_cast<int>(rng.NextU64(2));
    uint64_t off_b = rng.NextU64(kAccounts);
    if (node_b == 1 && off_a == off_b) off_b = (off_b + 1) % kAccounts;
    const int64_t amount = static_cast<int64_t>(rng.NextU64(50)) + 1;
    const NodeId coordinator = rng.NextBool(0.3) ? dm2 : NodeId{1};
    cluster.SendRound(tag, {
        MiniCluster::Write(cluster.KeyOn(1, off_a), -amount, true),
        MiniCluster::Write(cluster.KeyOn(node_b, off_b), amount, true),
    }, true, coordinator);
    ledger[tag] = Leg{cluster.KeyOn(1, off_a), cluster.KeyOn(node_b, off_b),
                      amount};
    ++tag;
    cluster.RunFor(rng.NextU64(60));

    for (uint64_t t = 1; t < tag; ++t) {
      auto& txn = cluster.txn(t);
      if (!commit_sent[t] && !txn.has_result && !txn.round_responses.empty() &&
          rng.NextBool(0.85)) {
        cluster.SendCommit(t);
        commit_sent[t] = true;
      }
    }

    if (rng.NextBool(0.06)) {
      const int group = static_cast<int>(rng.NextU64(2));
      auto* leader = cluster.leader_of(group);
      if (leader != nullptr) {
        if (balancer->InFlight() > 0) ++mid_stream_crashes;
        leader->Crash();
        cluster.RunFor(300 + rng.NextU64(300));
        leader->Restart();
        ++leader_crashes;
      }
    }

    ASSERT_TRUE(cluster.dm().catalog().shard_map().IsPartition(options.table))
        << repro << " (step " << i << ")";
  }

  // Settle: commit whatever produced responses, keep driving until the
  // in-flight work (streams, elections, balancer retries) drains.
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

  // --- Invariant: every actor's shard map converged to the balancer's ---
  const sharding::ShardMap& authority = cluster.dm().catalog().shard_map();
  ASSERT_TRUE(authority.IsPartition(options.table)) << repro;
  auto expect_same_map = [&](const sharding::ShardMap& map,
                             const std::string& who) {
    if (map.empty() && authority.epoch() == 0) return;
    ASSERT_EQ(map.size(), authority.size()) << repro << " at " << who;
    for (size_t r = 0; r < authority.size(); ++r) {
      const sharding::ShardRange& a = authority.ranges()[r];
      const sharding::ShardRange& b = map.ranges()[r];
      EXPECT_TRUE(a.SameSpan(b) && a.owner == b.owner &&
                  a.version == b.version)
          << repro << " at " << who << ": " << a.ToString() << " vs "
          << b.ToString();
    }
  };
  expect_same_map(cluster.dm(1).catalog().shard_map(), "dm2");
  for (auto* src : cluster.source_ptrs()) {
    ASSERT_FALSE(src->crashed()) << repro;
    expect_same_map(src->migrator().map(),
                    "source " + std::to_string(src->id()));
  }

  // --- Invariant: no committed write lost, none resurrected ---
  std::map<uint64_t, int64_t> expected;
  for (uint64_t t = 1; t < tag; ++t) {
    auto& txn = cluster.txn(t);
    ASSERT_TRUE(txn.has_result) << repro << " (txn " << t << " unresolved)";
    if (!txn.result.ok()) continue;
    expected[ledger[t].a.key] -= ledger[t].amount;
    expected[ledger[t].b.key] += ledger[t].amount;
  }
  int64_t sum = 0;
  for (int node = 0; node < 2; ++node) {
    for (uint64_t off = 0; off < kAccounts; ++off) {
      const RecordKey key = cluster.KeyOn(node, off);
      const NodeId owner = cluster.dm().catalog().Route(key);
      ASSERT_TRUE(owner == 2 || owner == 3) << repro;
      auto* leader = cluster.leader_of(static_cast<int>(owner) - 2);
      ASSERT_NE(leader, nullptr) << repro << " (group " << owner << ")";
      auto rec = leader->engine().store().Get(key);
      const int64_t got = rec ? rec->value : 0;
      EXPECT_EQ(got, expected[key.key])
          << repro << " (key " << key.key << " at owner " << owner << ")";
      sum += got;
    }
  }
  EXPECT_EQ(sum, 0) << repro;

  // --- Invariant: nothing left prepared/active on any current leader ---
  uint64_t resumes = 0, log_aborts = 0, chunks = 0;
  for (int group = 0; group < 2; ++group) {
    auto* leader = cluster.leader_of(group);
    ASSERT_NE(leader, nullptr) << repro;
    EXPECT_TRUE(leader->engine().PreparedXids().empty())
        << repro << " (group " << group << ")";
    EXPECT_EQ(leader->engine().ActiveCount(), 0u)
        << repro << " (group " << group << ")";
  }
  for (auto* src : cluster.source_ptrs()) {
    resumes += src->migrator().stats().migration_resumes;
    log_aborts += src->migrator().stats().migration_aborts_from_log;
    chunks += src->migrator().stats().snapshot_chunks_sent;
  }

  std::fprintf(stderr,
               "[stream-chaos] seed %llu: %d leader crashes (%d with a "
               "migration in flight), %llu chunks streamed, %llu log "
               "resumes, %llu log aborts, %llu migrations completed, "
               "%llu cancelled, epoch %llu\n",
               static_cast<unsigned long long>(seed), leader_crashes,
               mid_stream_crashes, static_cast<unsigned long long>(chunks),
               static_cast<unsigned long long>(resumes),
               static_cast<unsigned long long>(log_aborts),
               static_cast<unsigned long long>(
                   balancer->stats().migrations_completed),
               static_cast<unsigned long long>(
                   balancer->stats().migrations_cancelled),
               static_cast<unsigned long long>(authority.epoch()));
  if (::testing::Test::HasFailure()) {
    std::fprintf(stderr, "[stream-chaos] FAILED %s\n", repro.c_str());
  }
}

// 10 fixed seeds — run with the shard set in the CI chaos step.
INSTANTIATE_TEST_SUITE_P(Seeds, StreamingShardChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Directed destination-failover chaos: the same streaming setup, but the
// injected crash specifically kills the DESTINATION group's leader while a
// migration is in flight (at a seed-randomized point mid-stream). The
// balancer must detect the destination epoch change and re-point the
// migration at the promoted leader; the source re-sends its unacked
// chunks and deltas, and the new leader resumes from the position its
// replicated ingest journal holds instead of re-pulling the whole range
// (or waiting out the migration-timeout cancel). Invariants are the
// StreamingShardChaosTest set, plus: the re-point happened, a migration
// still completed, and no chunk was applied twice (the promoted leader
// applied nothing at or below its journaled prefix).
// ---------------------------------------------------------------------------

class DestFailoverStreamingShardChaosTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DestFailoverStreamingShardChaosTest, ResumesByRetransmission) {
  const uint64_t seed = GetParam();
  const std::string repro = ReproLine(seed);

  MiniCluster::Options options;
  options.num_data_sources = 2;
  options.rtts_ms = {10.0, 100.0};
  options.replication_factor = 3;
  options.num_middlewares = 2;
  options.sharding = true;
  options.chunks_per_source = 4;
  options.dm = MiddlewareConfig::GeoTP();
  options.dm.balancer.enabled = true;
  options.dm.balancer.interval = MsToMicros(150);
  options.dm.balancer.min_heat = 3;
  options.dm.balancer.min_rtt_gain = MsToMicros(40);
  // Generous: the whole point is that resume beats the timeout cancel.
  options.dm.balancer.migration_timeout = SecToMicros(6);
  options.dm.balancer.range_cooldown = SecToMicros(2);
  options.dm.balancer.max_concurrent = 1;
  options.dm.balancer.split_enabled = false;
  // Long streams (250 records, 16-record chunks, 2-chunk window) with a
  // slow bulk ingest, so the directed crash always lands mid-stream with
  // a quorum-applied prefix for the promoted leader to resume from.
  options.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 16;
    ds->migration_stream_window = 2;
    ds->migration_resend_timeout = MsToMicros(400);
    ds->migration_apply_cost = 2000;
  };
  MiniCluster cluster(options);
  cluster.PreloadRange(0, 1000);
  cluster.PreloadRange(1, 1000);
  Rng rng(0xDE57F000 + seed);

  constexpr int kAccounts = 24;  // per source
  constexpr int kTxns = 40;
  sharding::ShardBalancer* balancer = cluster.dm().balancer();
  ASSERT_NE(balancer, nullptr) << repro;

  // Heat concentrates on group 1's low keys (the far source at 100 ms
  // RTT), so the balancer migrates its hot chunk toward group 0 — the
  // crash target below is therefore always the destination group.
  auto skewed_offset = [&rng]() {
    const double u = rng.NextDouble();
    return static_cast<uint64_t>(static_cast<double>(kAccounts) *
                                 (u * u * u));
  };

  uint64_t tag = 1;
  std::vector<bool> commit_sent(kTxns + 1, false);
  struct Leg {
    RecordKey a;
    RecordKey b;
    int64_t amount = 0;
  };
  std::map<uint64_t, Leg> ledger;
  bool dest_crashed = false;
  for (int i = 0; i < kTxns; ++i) {
    const uint64_t off_a = skewed_offset();
    const int node_b = static_cast<int>(rng.NextU64(2));
    uint64_t off_b = rng.NextU64(kAccounts);
    if (node_b == 1 && off_a == off_b) off_b = (off_b + 1) % kAccounts;
    const int64_t amount = static_cast<int64_t>(rng.NextU64(50)) + 1;
    cluster.SendRound(tag, {
        MiniCluster::Write(cluster.KeyOn(1, off_a), -amount, true),
        MiniCluster::Write(cluster.KeyOn(node_b, off_b), amount, true),
    }, true);
    ledger[tag] = Leg{cluster.KeyOn(1, off_a), cluster.KeyOn(node_b, off_b),
                      amount};
    ++tag;
    cluster.RunFor(rng.NextU64(60));

    for (uint64_t t = 1; t < tag; ++t) {
      auto& txn = cluster.txn(t);
      if (!commit_sent[t] && !txn.has_result && !txn.round_responses.empty() &&
          rng.NextBool(0.85)) {
        cluster.SendCommit(t);
        commit_sent[t] = true;
      }
    }

    // The directed fault: once, the first time a migration is in flight,
    // kill the destination leader a random slice into the stream — but
    // only after a couple of chunks are quorum-applied there (chunk acks
    // follow quorum replication), so the promoted leader's ingest journal
    // has a prefix to resume from.
    if (!dest_crashed && balancer->InFlight() > 0) {
      for (int spin = 0; spin < 40; ++spin) {
        if (cluster.source(0).migrator().stats().snapshot_chunks_applied >= 2) {
          break;
        }
        cluster.RunFor(25);
      }
      cluster.RunFor(50 + rng.NextU64(150));
      auto* dest_leader = cluster.leader_of(0);
      if (dest_leader != nullptr && balancer->InFlight() > 0) {
        dest_leader->Crash();
        dest_crashed = true;
        cluster.RunFor(400 + rng.NextU64(300));
        dest_leader->Restart();
      }
    }

    ASSERT_TRUE(cluster.dm().catalog().shard_map().IsPartition(options.table))
        << repro << " (step " << i << ")";
  }
  ASSERT_TRUE(dest_crashed) << repro << " (no migration ever started)";

  // Settle: commit each straggler as soon as its round responds (a
  // prepared branch on a fenced range blocks the drain until its decision
  // lands), and drain streams / elections / re-points.
  for (int step = 0; step < 640; ++step) {
    cluster.RunFor(50);
    for (uint64_t t = 1; t < tag; ++t) {
      auto& txn = cluster.txn(t);
      if (!commit_sent[t] && !txn.has_result && !txn.round_responses.empty()) {
        cluster.SendCommit(t);
        commit_sent[t] = true;
      }
    }
  }
  cluster.RunFor(8000);

  // --- The directed scenario actually exercised the resume path ---
  EXPECT_GE(balancer->stats().migrations_repointed, 1u) << repro;
  EXPECT_GE(balancer->stats().migrations_completed, 1u) << repro;
  uint64_t built = 0, applied = 0;
  for (auto* src : cluster.source_ptrs()) {
    built += src->migrator().stats().snapshot_chunks_sent;
    applied += src->migrator().stats().snapshot_chunks_applied;
  }
  EXPECT_LE(applied, built) << repro;

  // --- Invariant: every actor's shard map converged to the balancer's ---
  const sharding::ShardMap& authority = cluster.dm().catalog().shard_map();
  ASSERT_TRUE(authority.IsPartition(options.table)) << repro;
  auto expect_same_map = [&](const sharding::ShardMap& map,
                             const std::string& who) {
    if (map.empty() && authority.epoch() == 0) return;
    ASSERT_EQ(map.size(), authority.size()) << repro << " at " << who;
    for (size_t r = 0; r < authority.size(); ++r) {
      const sharding::ShardRange& a = authority.ranges()[r];
      const sharding::ShardRange& b = map.ranges()[r];
      EXPECT_TRUE(a.SameSpan(b) && a.owner == b.owner &&
                  a.version == b.version)
          << repro << " at " << who << ": " << a.ToString() << " vs "
          << b.ToString();
    }
  };
  expect_same_map(cluster.dm(1).catalog().shard_map(), "dm2");
  for (auto* src : cluster.source_ptrs()) {
    ASSERT_FALSE(src->crashed()) << repro;
    expect_same_map(src->migrator().map(),
                    "source " + std::to_string(src->id()));
  }

  // --- Invariant: no committed write lost, none resurrected ---
  std::map<uint64_t, int64_t> expected;
  for (uint64_t t = 1; t < tag; ++t) {
    auto& txn = cluster.txn(t);
    ASSERT_TRUE(txn.has_result) << repro << " (txn " << t << " unresolved)";
    if (!txn.result.ok()) continue;
    expected[ledger[t].a.key] -= ledger[t].amount;
    expected[ledger[t].b.key] += ledger[t].amount;
  }
  int64_t sum = 0;
  for (int node = 0; node < 2; ++node) {
    for (uint64_t off = 0; off < kAccounts; ++off) {
      const RecordKey key = cluster.KeyOn(node, off);
      const NodeId owner = cluster.dm().catalog().Route(key);
      ASSERT_TRUE(owner == 2 || owner == 3) << repro;
      auto* leader = cluster.leader_of(static_cast<int>(owner) - 2);
      ASSERT_NE(leader, nullptr) << repro << " (group " << owner << ")";
      auto rec = leader->engine().store().Get(key);
      const int64_t got = rec ? rec->value : 0;
      EXPECT_EQ(got, expected[key.key])
          << repro << " (key " << key.key << " at owner " << owner << ")";
      sum += got;
    }
  }
  EXPECT_EQ(sum, 0) << repro;

  // --- Invariant: nothing left prepared/active on any current leader ---
  for (int group = 0; group < 2; ++group) {
    auto* leader = cluster.leader_of(group);
    ASSERT_NE(leader, nullptr) << repro;
    EXPECT_TRUE(leader->engine().PreparedXids().empty())
        << repro << " (group " << group << ")";
    EXPECT_EQ(leader->engine().ActiveCount(), 0u)
        << repro << " (group " << group << ")";
  }

  std::fprintf(stderr,
               "[dest-failover-chaos] seed %llu: %llu chunks built, %llu "
               "applied, %llu re-points, %llu migrations completed, "
               "%llu cancelled, epoch %llu\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(built),
               static_cast<unsigned long long>(applied),
               static_cast<unsigned long long>(
                   balancer->stats().migrations_repointed),
               static_cast<unsigned long long>(
                   balancer->stats().migrations_completed),
               static_cast<unsigned long long>(
                   balancer->stats().migrations_cancelled),
               static_cast<unsigned long long>(authority.epoch()));
  if (::testing::Test::HasFailure()) {
    std::fprintf(stderr, "[dest-failover-chaos] FAILED %s\n", repro.c_str());
  }
}

// 20 fixed seeds — matched by the CI chaos step's *StreamingShardChaos*
// filter alongside the undirected streaming set.
INSTANTIATE_TEST_SUITE_P(Seeds, DestFailoverStreamingShardChaosTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace geotp
