// Elastic sharding: shard map semantics, balancer-driven live migration
// under traffic (no committed write lost), stale-epoch redirects, and the
// crash/failover edge cases of the migration protocol.
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "sharding/shard_map.h"
#include "sim_fixture.h"

namespace geotp {
namespace {

using protocol::ShardMapUpdate;
using protocol::ShardMigrateRequest;
using sharding::ShardMap;
using sharding::ShardRange;
using testing_support::MiniCluster;

// ---------------------------------------------------------------------------
// ShardMap unit tests
// ---------------------------------------------------------------------------

TEST(ShardMap, FromRangePartitionMatchesCatalogRouting) {
  const std::vector<NodeId> owners = {2, 3, 4};
  ShardMap map = ShardMap::FromRangePartition(1, 900, owners, 3);
  EXPECT_EQ(map.size(), 9u);
  EXPECT_EQ(map.epoch(), 0u);
  for (uint64_t key : {0ULL, 299ULL, 300ULL, 899ULL, 900ULL, 1799ULL,
                       1800ULL, 2699ULL}) {
    EXPECT_EQ(map.Route(RecordKey{1, key}),
              owners[std::min<size_t>(key / 900, owners.size() - 1)])
        << "key " << key;
  }
  // Beyond the nominal key space: the last chunk extends like the
  // catalog's clamp.
  EXPECT_EQ(map.Route(RecordKey{1, 1000000}), 4);
  // Other tables are uncovered.
  EXPECT_EQ(map.Route(RecordKey{7, 10}), kInvalidNode);
}

TEST(ShardMap, MoveAndLastWriterWinsAdoption) {
  ShardMap map = ShardMap::FromRangePartition(1, 1000, {2, 3}, 2);
  // ranges: [0,500)@2 [500,1000)@2 [1000,1500)@3 [1500,max)@3
  EXPECT_TRUE(map.Move(2, 2, /*version=*/1));
  EXPECT_EQ(map.Route(RecordKey{1, 1200}), 2);
  EXPECT_EQ(map.epoch(), 1u);
  // Stale move is refused.
  EXPECT_FALSE(map.Move(2, 3, /*version=*/1));

  // A second replica of the map converges through adoption, in any order.
  ShardMap replica = ShardMap::FromRangePartition(1, 1000, {2, 3}, 2);
  EXPECT_TRUE(replica.Adopt(map.ranges()));
  EXPECT_EQ(replica.Route(RecordKey{1, 1200}), 2);
  EXPECT_EQ(replica.epoch(), 1u);
  // Re-adopting an older view changes nothing.
  ShardMap stale = ShardMap::FromRangePartition(1, 1000, {2, 3}, 2);
  EXPECT_FALSE(replica.Adopt(stale.ranges()));
  EXPECT_EQ(replica.Route(RecordKey{1, 1200}), 2);
}

TEST(ShardMap, AdoptInsertsUnknownSpans) {
  ShardMap map;  // a DM that never saw the initial layout
  ShardRange entry{1, 0, 500, 2, 3};
  EXPECT_TRUE(map.Adopt({entry}));
  EXPECT_EQ(map.Route(RecordKey{1, 123}), 2);
  EXPECT_EQ(map.epoch(), 3u);
}

TEST(ShardMap, SplitKeepsOwnerAndBumpsVersions) {
  ShardMap map = ShardMap::FromRangePartition(1, 1000, {2, 3}, 1);
  // ranges: [0,1000)@2 [1000,max)@3
  EXPECT_FALSE(map.Split(0, 0, 1));     // split point on the boundary
  EXPECT_FALSE(map.SplitAt(1, 400, 0)); // stale version
  ASSERT_TRUE(map.SplitAt(1, 400, 1));
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.ranges()[0].hi, 400u);
  EXPECT_EQ(map.ranges()[1].lo, 400u);
  EXPECT_EQ(map.ranges()[1].hi, 1000u);
  EXPECT_EQ(map.ranges()[0].owner, 2);
  EXPECT_EQ(map.ranges()[1].owner, 2);
  EXPECT_EQ(map.ranges()[0].version, 1u);
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_TRUE(map.IsPartition(1));
  // Routing is unchanged by a split (boundaries move, ownership does not).
  EXPECT_EQ(map.Route(RecordKey{1, 399}), 2);
  EXPECT_EQ(map.Route(RecordKey{1, 400}), 2);
  EXPECT_EQ(map.Route(RecordKey{1, 5000}), 3);
}

TEST(ShardMap, MergeRequiresAdjacentSameOwner) {
  ShardMap map = ShardMap::FromRangePartition(1, 1000, {2, 3}, 2);
  // ranges: [0,500)@2 [500,1000)@2 [1000,1500)@3 [1500,max)@3
  EXPECT_FALSE(map.Merge(1, 1));  // [500,1000)@2 + [1000,1500)@3: owners differ
  ASSERT_TRUE(map.Merge(0, 1));
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.ranges()[0].lo, 0u);
  EXPECT_EQ(map.ranges()[0].hi, 1000u);
  EXPECT_EQ(map.ranges()[0].version, 1u);
  EXPECT_FALSE(map.Merge(1, 1));  // stale version
  ASSERT_TRUE(map.Merge(1, 2));
  EXPECT_TRUE(map.IsPartition(1));
  EXPECT_EQ(map.Route(RecordKey{1, 1400}), 3);
}

TEST(ShardMap, OverlapAwareAdoptionConvergesAcrossBoundaryChanges) {
  // Replica A holds pre-split boundaries; the authority splits and moves
  // the hot half. A single patched sub-range (as a redirect carries) must
  // claim exactly its sub-span.
  ShardMap replica = ShardMap::FromRangePartition(1, 1000, {2, 3}, 1);
  ShardRange hot{1, 1000, 1100, 2, 3};  // split off [1000,1100), moved to 2
  EXPECT_TRUE(replica.Adopt({hot}));
  EXPECT_TRUE(replica.IsPartition(1));
  EXPECT_EQ(replica.Route(RecordKey{1, 1050}), 2);
  EXPECT_EQ(replica.Route(RecordKey{1, 1500}), 3);  // remainder kept @3
  // The stale pre-split whole-range entry must not undo the patch.
  EXPECT_FALSE(replica.Adopt({ShardRange{1, 1000, UINT64_MAX, 3, 0}}));
  EXPECT_EQ(replica.Route(RecordKey{1, 1050}), 2);
  // A newer merged range covering both pieces replaces them.
  ShardRange merged{1, 0, 2000, 3, 7};
  EXPECT_TRUE(replica.Adopt({merged}));
  EXPECT_TRUE(replica.IsPartition(1));
  EXPECT_EQ(replica.Route(RecordKey{1, 1050}), 3);
  EXPECT_EQ(replica.Route(RecordKey{1, 10}), 3);
}

// ---------------------------------------------------------------------------
// Balancer-driven live migration under traffic
// ---------------------------------------------------------------------------

MiniCluster::Options ShardedOptions() {
  MiniCluster::Options options;
  options.num_data_sources = 2;
  options.rtts_ms = {10.0, 100.0};
  options.sharding = true;
  options.chunks_per_source = 4;  // chunks of 250 keys
  return options;
}

TEST(ShardingLive, BalancerMigratesHotChunkWithoutLosingCommittedWrites) {
  MiniCluster::Options options = ShardedOptions();
  options.dm.balancer.enabled = true;
  options.dm.balancer.interval = MsToMicros(150);
  options.dm.balancer.min_heat = 1;
  options.dm.balancer.min_rtt_gain = MsToMicros(40);
  MiniCluster c(options);

  // Hot writes on data source 1's first chunk ([1000, 1250), 100 ms away)
  // while the balancer watches. Some transactions may abort against the
  // migration fence; the client-side ledger tracks what actually
  // committed.
  std::map<uint64_t, int64_t> committed;  // key offset -> value
  int committed_after_move = 0;
  for (int t = 0; t < 30; ++t) {
    const uint64_t off = static_cast<uint64_t>(t % 12);
    const int64_t value = 1000 + t;
    const Status result =
        c.RunTxn(static_cast<uint64_t>(t), {MiniCluster::Write(c.KeyOn(1, off), value)});
    if (result.ok()) {
      committed[off] = value;
      if (c.dm().stats().shard_map_epoch > 0) committed_after_move++;
    }
  }

  // The hot chunk moved to the near source and traffic kept committing.
  EXPECT_GE(c.dm().stats().shard_map_epoch, 1u);
  ASSERT_NE(c.dm().balancer(), nullptr);
  EXPECT_GE(c.dm().balancer()->stats().migrations_completed, 1u);
  EXPECT_EQ(c.dm().catalog().Route(c.KeyOn(1, 0)), 2);
  EXPECT_GT(committed_after_move, 0);
  EXPECT_GE(committed.size(), 6u);

  // No committed write was lost: every ledger value reads back through
  // the DM (which now routes to the new owner)...
  uint64_t tag = 1000;
  for (const auto& [off, value] : committed) {
    const auto* handle =
        c.SendRound(tag, {MiniCluster::Read(c.KeyOn(1, off))}, true);
    c.RunFor(2000);
    c.SendCommit(tag);
    c.RunFor(2000);
    ASSERT_FALSE(handle->round_responses.empty()) << "offset " << off;
    EXPECT_EQ(handle->round_responses.back().values.at(0), value)
        << "offset " << off;
    tag++;
  }
  // ...and lives in the new owner's store.
  for (const auto& [off, value] : committed) {
    auto record = c.source(0).engine().store().Get(c.KeyOn(1, off));
    ASSERT_TRUE(record.has_value()) << "offset " << off;
    EXPECT_EQ(record->value, value) << "offset " << off;
  }
}

// ---------------------------------------------------------------------------
// Stale-epoch DM retrying through the redirect
// ---------------------------------------------------------------------------

TEST(ShardingLive, StaleEpochDmRetriesThroughRedirect) {
  MiniCluster::Options options = ShardedOptions();
  options.num_middlewares = 2;  // the second DM will be left stale
  MiniCluster c(options);
  const NodeId dm2 = 2 + options.num_data_sources;  // extra DM node id

  // Seed a committed value at the original owner.
  ASSERT_TRUE(c.RunTxn(1, {MiniCluster::Write(c.KeyOn(1, 5), 77)}).ok());

  // Partition the second DM for the whole migration + publish window:
  // ping-piggybacked anti-entropy would otherwise repair its map within a
  // ping interval and the redirect path would never fire (that repair has
  // its own test below).
  c.network().Partition(dm2);

  // Drive one migration by hand (no balancer): move [1000, 1250) from
  // source 1 (node 3) to source 0 (node 2), then publish the map to
  // everyone EXCEPT the second DM.
  auto migrate = std::make_unique<ShardMigrateRequest>();
  migrate->from = 0;
  migrate->to = 3;
  migrate->migration_id = 9;
  migrate->range = ShardRange{options.table, 1000, 1250, 3, 0};
  migrate->dest = 2;
  migrate->dest_leader = 2;
  migrate->new_version = 1;
  c.network().Send(std::move(migrate));
  c.RunFor(1500);
  ASSERT_EQ(c.cutovers().size(), 1u);
  ASSERT_EQ(c.cutovers()[0].range.owner, 2);

  ShardMap published = ShardMap::FromRangePartition(
      options.table, options.keys_per_node, {2, 3},
      options.chunks_per_source);
  // With 4 chunks per owner, [1000, 1250) is range index 4.
  ASSERT_EQ(published.ranges()[4].lo, 1000u);
  ASSERT_TRUE(published.Move(4, 2, 1));  // [1000,1250) -> node 2
  for (NodeId target : {NodeId{1}, NodeId{2}, NodeId{3}}) {
    auto update = std::make_unique<ShardMapUpdate>();
    update->from = 0;
    update->to = target;
    update->entries = published.ranges();
    c.network().Send(std::move(update));
  }
  c.RunFor(500);
  EXPECT_EQ(c.dm(0).stats().shard_map_epoch, 1u);
  EXPECT_EQ(c.dm(1).stats().shard_map_epoch, 0u);  // stale
  c.network().Restore(dm2);

  // A transaction through the stale DM (dispatched before the next ping
  // round can pull the map) bounces at the old owner, adopts the patched
  // range from the redirect, re-routes, and commits.
  ASSERT_TRUE(
      c.RunTxn(2, {MiniCluster::Write(c.KeyOn(1, 5), 88)}, dm2).ok());
  EXPECT_GE(c.dm(1).stats().shard_redirects, 1u);
  EXPECT_GE(c.dm(1).stats().shard_reroutes, 1u);
  EXPECT_EQ(c.dm(1).stats().shard_map_epoch, 1u);
  EXPECT_GE(c.source(1).stats().shard_redirects_sent, 1u);

  // The write landed at the new owner; a read through the fresh DM agrees.
  auto record = c.source(0).engine().store().Get(c.KeyOn(1, 5));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value, 88);
  const auto* handle =
      c.SendRound(3, {MiniCluster::Read(c.KeyOn(1, 5))}, true);
  c.RunFor(2000);
  c.SendCommit(3);
  c.RunFor(2000);
  ASSERT_FALSE(handle->round_responses.empty());
  EXPECT_EQ(handle->round_responses.back().values.at(0), 88);
}

// A bounced batch that splits between its old owner and the range's new
// one becomes two branches: each batch must name the other as its peer,
// so neither votes IDLE nor commits one-phase on its own.
TEST(ShardingLive, RedirectSplitOfABundledCommitPreparesBothBranches) {
  MiniCluster::Options options = ShardedOptions();
  options.num_middlewares = 2;  // the second DM will be left stale
  MiniCluster c(options);
  const NodeId dm2 = 2 + options.num_data_sources;

  // Move [0, 250) from source 0 (node 2) to source 1 (node 3) behind the
  // second DM's back, as in the test above.
  c.network().Partition(dm2);
  auto migrate = std::make_unique<ShardMigrateRequest>();
  migrate->from = 0;
  migrate->to = 2;
  migrate->migration_id = 9;
  migrate->range = ShardRange{options.table, 0, 250, 2, 0};
  migrate->dest = 3;
  migrate->dest_leader = 3;
  migrate->new_version = 1;
  c.network().Send(std::move(migrate));
  c.RunFor(1500);
  ASSERT_EQ(c.cutovers().size(), 1u);
  ShardMap published = ShardMap::FromRangePartition(
      options.table, options.keys_per_node, {2, 3},
      options.chunks_per_source);
  ASSERT_EQ(published.ranges()[0].hi, 250u);
  ASSERT_TRUE(published.Move(0, 3, 1));
  for (NodeId target : {NodeId{1}, NodeId{2}, NodeId{3}}) {
    auto update = std::make_unique<ShardMapUpdate>();
    update->from = 0;
    update->to = target;
    update->entries = published.ranges();
    c.network().Send(std::move(update));
  }
  c.RunFor(500);
  c.network().Restore(dm2);

  // One batch to node 2 bounces: offset 5 moved to node 3, offset 300
  // stayed. Node 2 (the lower id) is re-sent first.
  const uint64_t prepares = c.source(0).stats().prepares_initiated;
  c.SendRound(2,
              {MiniCluster::Write(c.KeyOn(0, 5), 55),
               MiniCluster::Write(c.KeyOn(0, 300), 33)},
              /*last_round=*/true, dm2, /*tenant=*/0, /*commit=*/true);
  c.RunFor(3000);
  ASSERT_TRUE(c.txn(2).has_result);
  ASSERT_TRUE(c.txn(2).result.ok()) << c.txn(2).result.ToString();
  EXPECT_GE(c.dm(1).stats().shard_reroutes, 1u);
  EXPECT_EQ(c.dm(1).stats().exec_commits, 0u);
  EXPECT_EQ(c.dm(1).stats().committed_distributed, 1u);
  EXPECT_EQ(c.source(0).stats().prepares_initiated, prepares + 1);
  EXPECT_EQ(c.source(1).engine().store().Get(c.KeyOn(0, 5))->value, 55);
  EXPECT_EQ(c.source(0).engine().store().Get(c.KeyOn(0, 300))->value, 33);
}

// ---------------------------------------------------------------------------
// Crash of the source leader mid-copy
// ---------------------------------------------------------------------------

TEST(ShardingLive, SourceLeaderCrashMidCopyLeavesPlacementIntact) {
  MiniCluster::Options options = ShardedOptions();
  options.replication_factor = 3;
  MiniCluster c(options);

  ASSERT_TRUE(c.RunTxn(1, {MiniCluster::Write(c.KeyOn(1, 3), 41)}).ok());

  // Start a migration and kill the source leader while the snapshot (and
  // its ack) are still in flight.
  auto migrate = std::make_unique<ShardMigrateRequest>();
  migrate->from = 0;
  migrate->to = 3;
  migrate->migration_id = 5;
  migrate->range = ShardRange{options.table, 1000, 1250, 3, 0};
  migrate->dest = 2;
  migrate->dest_leader = 2;
  migrate->new_version = 1;
  c.network().Send(std::move(migrate));
  c.RunFor(60);  // request delivered, snapshot sent, ack not yet back
  c.source(1).Crash();
  c.RunFor(3000);  // election at group 1, no cutover possible

  EXPECT_TRUE(c.cutovers().empty());
  EXPECT_EQ(c.dm().stats().shard_map_epoch, 0u);
  ASSERT_NE(c.leader_of(1), nullptr);
  EXPECT_NE(c.leader_of(1)->id(), c.source(1).id());

  // The range still lives on (the promoted leader of) group 1 and serves
  // reads and writes; nothing was lost.
  ASSERT_TRUE(c.RunTxn(2, {MiniCluster::Write(c.KeyOn(1, 3), 42)}).ok());
  const auto* handle =
      c.SendRound(3, {MiniCluster::Read(c.KeyOn(1, 3))}, true);
  c.RunFor(2000);
  c.SendCommit(3);
  c.RunFor(2000);
  ASSERT_FALSE(handle->round_responses.empty());
  EXPECT_EQ(handle->round_responses.back().values.at(0), 42);
}

// ---------------------------------------------------------------------------
// Cutover racing a failover of the source group
// ---------------------------------------------------------------------------

TEST(ShardingLive, CutoverRacingFailoverKeepsEveryCommittedWrite) {
  MiniCluster::Options options = ShardedOptions();
  options.replication_factor = 3;
  MiniCluster c(options);

  ASSERT_TRUE(c.RunTxn(1, {MiniCluster::Write(c.KeyOn(1, 7), 70)}).ok());

  // Run the migration to readiness...
  auto migrate = std::make_unique<ShardMigrateRequest>();
  migrate->from = 0;
  migrate->to = 3;
  migrate->migration_id = 6;
  migrate->range = ShardRange{options.table, 1000, 1250, 3, 0};
  migrate->dest = 2;
  migrate->dest_leader = 2;
  migrate->new_version = 1;
  c.network().Send(std::move(migrate));
  c.RunFor(1500);
  ASSERT_EQ(c.cutovers().size(), 1u);

  // ...then crash the source leader BEFORE the map is published, and only
  // publish afterwards — the cutover races the group's failover.
  c.source(1).Crash();
  ShardMap published = ShardMap::FromRangePartition(
      options.table, options.keys_per_node, {2, 3},
      options.chunks_per_source);
  ASSERT_EQ(published.ranges()[4].lo, 1000u);
  ASSERT_TRUE(published.Move(4, 2, 1));
  std::vector<NodeId> targets = {1, 2, 3};
  for (int k = 0; k < options.replication_factor - 1; ++k) {
    targets.push_back(c.follower(0, k).id());
    targets.push_back(c.follower(1, k).id());
  }
  for (NodeId target : targets) {
    auto update = std::make_unique<ShardMapUpdate>();
    update->from = 0;
    update->to = target;
    update->entries = published.ranges();
    c.network().Send(std::move(update));
  }
  c.RunFor(3000);  // failover of group 1 completes under the new map

  // The moved range serves at its destination with the pre-migration
  // write intact (it was copied before the crash)...
  EXPECT_EQ(c.dm().stats().shard_map_epoch, 1u);
  auto moved = c.source(0).engine().store().Get(c.KeyOn(1, 7));
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->value, 70);
  ASSERT_TRUE(c.RunTxn(2, {MiniCluster::Write(c.KeyOn(1, 7), 71)}).ok());
  EXPECT_EQ(c.source(0).engine().store().Get(c.KeyOn(1, 7))->value, 71);

  // ...and the rest of group 1 survived its failover: its promoted leader
  // still serves the unmoved chunks.
  ASSERT_NE(c.leader_of(1), nullptr);
  ASSERT_TRUE(c.RunTxn(3, {MiniCluster::Write(c.KeyOn(1, 500), 99)}).ok());
}

// ---------------------------------------------------------------------------
// Skew-within-chunk: split the hot sub-range out, migrate only it
// ---------------------------------------------------------------------------

TEST(ShardingLive, SkewedChunkSplitsAndMigratesOnlyTheHotSubrange) {
  MiniCluster::Options options;
  options.num_data_sources = 2;
  options.rtts_ms = {10.0, 100.0};
  options.sharding = true;
  options.chunks_per_source = 1;  // one huge chunk per source: skew is
                                  // invisible to whole-chunk granularity
  options.dm.balancer.enabled = true;
  options.dm.balancer.interval = MsToMicros(150);
  options.dm.balancer.min_heat = 1;
  options.dm.balancer.min_rtt_gain = MsToMicros(40);
  options.dm.balancer.split_min_keys = 16;
  MiniCluster c(options);

  // Hot band: 16 keys at the head of source 1's 1000-key chunk, 100 ms
  // away. PR 3 froze boundaries at deployment, so this workload could
  // only be helped by moving the whole chunk; now the balancer splits
  // the hot band out and migrates just that.
  std::map<uint64_t, int64_t> committed;
  for (int t = 0; t < 25; ++t) {
    const uint64_t off = static_cast<uint64_t>(t % 16);
    const int64_t value = 5000 + t;
    if (c.RunTxn(static_cast<uint64_t>(t),
                 {MiniCluster::Write(c.KeyOn(1, off), value)})
            .ok()) {
      committed[off] = value;
    }
  }

  ASSERT_NE(c.dm().balancer(), nullptr);
  const auto& stats = c.dm().balancer()->stats();
  EXPECT_GE(stats.splits, 1u);
  EXPECT_GE(stats.migrations_completed, 1u);
  // The hot band now lives on the near source...
  EXPECT_EQ(c.dm().catalog().Route(c.KeyOn(1, 0)), 2);
  // ...while the cold tail of the same original chunk stayed put.
  EXPECT_EQ(c.dm().catalog().Route(c.KeyOn(1, 500)), 3);
  EXPECT_EQ(c.dm().catalog().Route(c.KeyOn(1, 900)), 3);

  // No committed write lost across the split + migration.
  EXPECT_GE(committed.size(), 10u);
  uint64_t tag = 1000;
  for (const auto& [off, value] : committed) {
    const auto* handle =
        c.SendRound(tag, {MiniCluster::Read(c.KeyOn(1, off))}, true);
    c.RunFor(2000);
    c.SendCommit(tag);
    c.RunFor(2000);
    ASSERT_FALSE(handle->round_responses.empty()) << "offset " << off;
    EXPECT_EQ(handle->round_responses.back().values.at(0), value)
        << "offset " << off;
    tag++;
  }
}

// ---------------------------------------------------------------------------
// Capacity-aware placement: no single-node pile-up
// ---------------------------------------------------------------------------

namespace {

MiniCluster::Options PileUpOptions() {
  MiniCluster::Options options;
  options.num_data_sources = 3;
  options.rtts_ms = {10.0, 14.0, 100.0};  // two near-ish nodes, one far
  options.sharding = true;
  options.chunks_per_source = 2;  // source 2 owns [2000,2500) and [2500,~)
  options.dm.balancer.enabled = true;
  options.dm.balancer.interval = MsToMicros(150);
  options.dm.balancer.min_heat = 1;
  options.dm.balancer.min_rtt_gain = MsToMicros(40);
  options.dm.balancer.max_concurrent = 2;
  options.dm.balancer.split_enabled = false;   // isolate placement policy
  options.dm.balancer.merge_enabled = false;
  return options;
}

// Uniformly-hot traffic over both chunks of the far source; commits the
// waves so heat (t_cnt) accrues while branches resolve.
void DriveUniformHotLoad(MiniCluster& c) {
  uint64_t tag = 1;
  for (int wave = 0; wave < 5; ++wave) {
    const uint64_t first = tag;
    for (uint64_t i = 0; i < 8; ++i) {
      c.SendRound(tag++, {MiniCluster::Write(c.KeyOn(2, i), 1)}, true);
      c.SendRound(tag++, {MiniCluster::Write(c.KeyOn(2, 500 + i), 1)}, true);
    }
    c.RunFor(1500);
    for (uint64_t t = first; t < tag; ++t) {
      if (!c.txn(t).has_result && !c.txn(t).round_responses.empty()) {
        c.SendCommit(t);
      }
    }
    c.RunFor(1500);
  }
}

}  // namespace

TEST(ShardingLive, SingleObjectiveScorerPilesHotChunksOntoOneNode) {
  // Regression baseline: with the capacity terms zeroed (PR 3's
  // nearest-by-RTT scorer), every hot chunk lands on the single nearest
  // source — the pathological pile-up ROADMAP warned about.
  MiniCluster::Options options = PileUpOptions();
  options.dm.balancer.capacity_weight = 0;
  options.dm.balancer.placement_bias = 0;
  MiniCluster c(options);
  DriveUniformHotLoad(c);

  ASSERT_NE(c.dm().balancer(), nullptr);
  EXPECT_GE(c.dm().balancer()->stats().migrations_completed, 2u);
  EXPECT_EQ(c.dm().catalog().Route(c.KeyOn(2, 0)), 2);
  EXPECT_EQ(c.dm().catalog().Route(c.KeyOn(2, 500)), 2);
}

TEST(ShardingLive, CapacityTermSpreadsUniformlyHotChunksAcrossSources) {
  MiniCluster::Options options = PileUpOptions();
  options.dm.balancer.placement_bias = MsToMicros(60);
  MiniCluster c(options);
  DriveUniformHotLoad(c);

  ASSERT_NE(c.dm().balancer(), nullptr);
  EXPECT_GE(c.dm().balancer()->stats().migrations_completed, 2u);
  const NodeId owner_a = c.dm().catalog().Route(c.KeyOn(2, 0));
  const NodeId owner_b = c.dm().catalog().Route(c.KeyOn(2, 500));
  // Both chunks moved off the far node, and NOT onto the same node: the
  // load term beats the 4 ms RTT edge of the nearest source.
  EXPECT_NE(owner_a, 4);
  EXPECT_NE(owner_b, 4);
  EXPECT_NE(owner_a, owner_b);
}

// ---------------------------------------------------------------------------
// Shard-map anti-entropy over latency-monitor pings
// ---------------------------------------------------------------------------

TEST(ShardingLive, PartitionedActorsConvergeViaPingAntiEntropyWithoutTraffic) {
  MiniCluster::Options options = ShardedOptions();
  options.num_middlewares = 2;
  MiniCluster c(options);
  const NodeId dm2 = 2 + options.num_data_sources;

  // Cut the second DM off before the placement changes.
  c.network().Partition(dm2);

  // Migrate [1000,1250) from source 1 (node 3) to source 0 (node 2) by
  // hand, then publish the map ONLY to the primary DM and the new owner —
  // the old owner (node 3) and the partitioned DM both miss it.
  auto migrate = std::make_unique<ShardMigrateRequest>();
  migrate->from = 0;
  migrate->to = 3;
  migrate->migration_id = 21;
  migrate->range = ShardRange{options.table, 1000, 1250, 3, 0};
  migrate->dest = 2;
  migrate->dest_leader = 2;
  migrate->new_version = 1;
  c.network().Send(std::move(migrate));
  c.RunFor(1500);
  ASSERT_EQ(c.cutovers().size(), 1u);

  ShardMap published = ShardMap::FromRangePartition(
      options.table, options.keys_per_node, {2, 3},
      options.chunks_per_source);
  ASSERT_TRUE(published.Move(4, 2, 1));
  for (NodeId target : {NodeId{1}, NodeId{2}}) {
    auto update = std::make_unique<ShardMapUpdate>();
    update->from = 0;
    update->to = target;
    update->entries = published.ranges();
    c.network().Send(std::move(update));
  }
  // Short horizon: long enough for the publishes to land (sub-ms to the
  // DM, 5 ms to node 2) but shorter than a ping round trip to node 3, so
  // the "old owner is behind" precondition is still observable.
  c.RunFor(30);
  EXPECT_EQ(c.dm(0).stats().shard_map_epoch, 1u);
  EXPECT_EQ(c.dm(1).stats().shard_map_epoch, 0u);
  EXPECT_EQ(c.source(1).migrator().map().epoch(), 0u);

  // NO client traffic from here on. The primary DM's pings see node 3's
  // stale epoch and push it the map (the ROADMAP "converges only on
  // contact" gap).
  c.RunFor(500);
  EXPECT_GE(c.dm(0).stats().shard_map_pushes, 1u);
  EXPECT_EQ(c.source(1).migrator().map().epoch(), 1u);

  // The healed DM pulls the map off its first pong without any redirect.
  c.network().Restore(dm2);
  c.RunFor(500);
  EXPECT_GE(c.dm(1).stats().shard_map_pulls, 1u);
  EXPECT_EQ(c.dm(1).stats().shard_map_epoch, 1u);
  EXPECT_EQ(c.dm(1).catalog().Route(c.KeyOn(1, 5)), 2);
  EXPECT_GE(c.source(0).stats().shard_map_serves +
                c.source(1).stats().shard_map_serves,
            1u);
}

}  // namespace
}  // namespace geotp
