// Streaming shard migration: bounded chunking under receiver-driven
// credit, backpressure from a stalled destination, chunk reorder and loss
// over the simulated network, and the replicated migration-state records
// that let a failover mid-stream resume or abort deterministically from
// the group log.
#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "protocol/wan_codec.h"
#include "sharding/shard_map.h"
#include "sim/latency.h"
#include "sim_fixture.h"

namespace geotp {
namespace {

using protocol::ShardMapUpdate;
using protocol::ShardMigrateRequest;
using sharding::ShardMap;
using sharding::ShardRange;
using testing_support::MiniCluster;

// Moving range: source 1's first chunk, [1000, 1250), 4 chunks/source.
constexpr uint64_t kRangeLo = 1000;
constexpr uint64_t kRangeHi = 1250;

MiniCluster::Options StreamOptions() {
  MiniCluster::Options options;
  options.num_data_sources = 2;
  options.rtts_ms = {10.0, 100.0};
  options.sharding = true;
  options.chunks_per_source = 4;
  options.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 32;
    ds->migration_stream_window = 4;
  };
  return options;
}

/// Sends the manual migration request the edge-case tests drive from the
/// client node (node 0 plays the balancer and collects the reports).
void StartMigration(MiniCluster& c, uint64_t id, Micros timeout = 0) {
  auto migrate = std::make_unique<ShardMigrateRequest>();
  migrate->from = 0;
  migrate->to = 3;
  migrate->migration_id = id;
  migrate->range = ShardRange{1, kRangeLo, kRangeHi, 3, 0};
  migrate->dest = 2;
  migrate->dest_leader = 2;
  migrate->new_version = 1;
  migrate->timeout = timeout;
  c.network().Send(std::move(migrate));
}

// ---------------------------------------------------------------------------
// A large range streams in bounded chunks; the credit window caps the
// source's only stream memory (the unacked retransmit buffer).
// ---------------------------------------------------------------------------

TEST(MigrationStream, LargeRangeStreamsInBoundedChunks) {
  MiniCluster c(StreamOptions());
  c.PreloadRange(1, 250);  // fills [1000, 1250) exactly

  StartMigration(c, 101);
  c.RunFor(2500);

  ASSERT_EQ(c.cutovers().size(), 1u);
  EXPECT_EQ(c.cutovers()[0].range.owner, 2);

  const auto& src = c.source(1).migrator().stats();
  const auto& dst = c.source(0).migrator().stats();
  // 250 records / 32 per chunk = 8 chunks, none lost, all applied.
  EXPECT_EQ(src.stream.snapshot_chunks_sent, 8u);
  EXPECT_EQ(src.stream.streams_completed, 1u);
  EXPECT_EQ(src.stream.snapshot_records_sent, 250u);
  EXPECT_EQ(dst.snapshot_chunks_applied, 8u);
  EXPECT_EQ(dst.snapshot_records_applied, 250u);
  // Flow control: never more chunks in flight than the receiver's window,
  // on either side of the stream.
  EXPECT_LE(src.stream.peak_unacked_chunks, 4u);
  EXPECT_LE(dst.stream.peak_buffered_chunks, 4u);
  EXPECT_EQ(src.stream.chunk_retransmits, 0u);

  // Every preloaded record made it across.
  for (uint64_t off = 0; off < 250; off += 41) {
    EXPECT_TRUE(c.source(0).engine().store().Get(c.KeyOn(1, off)).has_value())
        << "offset " << off;
  }
}

// ---------------------------------------------------------------------------
// A destination that stalls (slow bulk ingest) backpressures the source:
// the stream halts at the credit window instead of flooding the loop.
// ---------------------------------------------------------------------------

TEST(MigrationStream, StalledDestinationBackpressuresSource) {
  MiniCluster::Options options = StreamOptions();
  options.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 32;
    ds->migration_stream_window = 4;
    ds->migration_apply_cost = 2000;  // 64 ms per 32-record chunk ingest
  };
  MiniCluster c(options);
  c.PreloadRange(1, 250);

  StartMigration(c, 102);
  // Mid-stream: the destination has applied at most a couple of chunks;
  // the source must be parked at the window, not 8 chunks deep.
  c.RunFor(200);
  const auto& src = c.source(1).migrator().stats();
  EXPECT_LT(src.stream.snapshot_chunks_sent, 8u);
  EXPECT_LE(src.stream.peak_unacked_chunks, 4u);

  // The stalled stream still finishes — slowly, honestly.
  c.RunFor(3000);
  ASSERT_EQ(c.cutovers().size(), 1u);
  EXPECT_EQ(src.stream.snapshot_chunks_sent, 8u);
  EXPECT_LE(src.stream.peak_unacked_chunks, 4u);
  EXPECT_EQ(c.source(0).migrator().stats().snapshot_records_applied, 250u);
}

// ---------------------------------------------------------------------------
// Chunks reordered by per-message jitter apply in sequence order; deltas
// committed mid-stream are never overwritten by a later (older) chunk.
// ---------------------------------------------------------------------------

TEST(MigrationStream, ReorderedChunksAndInterleavedDeltasConverge) {
  MiniCluster::Options options = StreamOptions();
  options.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 16;
    ds->migration_stream_window = 8;
    // Slow ingest (32 ms per chunk): the stream's tail is still pending
    // when the mid-stream commit's delta reaches the destination.
    ds->migration_apply_cost = 2000;
  };
  MiniCluster c(options);
  c.PreloadRange(1, 250);
  // A committed value the stream must carry.
  ASSERT_TRUE(c.RunTxn(1, {MiniCluster::Write(c.KeyOn(1, 3), 33)}).ok());

  // Heavy independent jitter on the source -> dest link: chunks of one
  // window burst overtake each other.
  sim::LinkSpec jittered;
  jittered.one_way_mean = MsToMicros(25);
  jittered.jitter_stddev = MsToMicros(20);
  jittered.jitter = sim::JitterModel::kUniform;
  jittered.min_one_way = MsToMicros(1);
  c.network().matrix().SetDirected(3, 2, jittered);

  StartMigration(c, 103);
  // Mid-stream commit on a key in the LAST chunk: its delta applies at
  // the destination long before the (older) chunk copy dequeues, and the
  // chunk must not overwrite it.
  c.RunFor(60);
  c.SendRound(3, {MiniCluster::Write(c.KeyOn(1, 240), 44)}, true);
  c.RunFor(250);
  c.SendCommit(3);
  c.RunFor(5000);
  ASSERT_TRUE(c.txn(3).result.ok());

  ASSERT_EQ(c.cutovers().size(), 1u);
  const auto& dst = c.source(0).migrator().stats();
  EXPECT_EQ(dst.snapshot_chunks_applied, 16u);
  EXPECT_LE(dst.stream.peak_buffered_chunks, 8u);
  EXPECT_GE(dst.delta_batches_applied, 1u);
  // The delta (post-cut, newer) value won over the chunk's committed-cut
  // copy that applied after it.
  EXPECT_GE(dst.chunk_records_superseded, 1u);
  auto moved = c.source(0).engine().store().Get(c.KeyOn(1, 240));
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->value, 44);
  EXPECT_EQ(c.source(0).engine().store().Get(c.KeyOn(1, 3))->value, 33);
}

// ---------------------------------------------------------------------------
// Chunk loss (a partition window swallowing chunks and acks) recovers via
// the source's retransmit path; duplicates re-ack at the receiver's
// position.
// ---------------------------------------------------------------------------

TEST(MigrationStream, ChunkLossRecoversViaRetransmit) {
  MiniCluster c(StreamOptions());
  c.PreloadRange(1, 250);

  StartMigration(c, 104);
  // Let the stream get going, then black-hole the destination for a
  // window: in-flight chunks and acks die at the NIC.
  c.RunFor(40);
  c.network().Partition(2);
  c.RunFor(700);
  c.network().Restore(2);
  c.RunFor(5000);

  ASSERT_EQ(c.cutovers().size(), 1u);
  const auto& src = c.source(1).migrator().stats();
  EXPECT_GE(src.stream.chunk_retransmits, 1u);
  EXPECT_EQ(src.stream.chunks_sealed, src.stream.snapshot_chunks_sent);
  EXPECT_EQ(src.stream.streams_completed, 1u);
  EXPECT_LE(src.stream.peak_unacked_chunks, 4u);
  EXPECT_EQ(c.source(0).migrator().stats().snapshot_records_applied, 250u);
  for (uint64_t off = 0; off < 250; off += 59) {
    EXPECT_TRUE(c.source(0).engine().store().Get(c.KeyOn(1, off)).has_value())
        << "offset " << off;
  }
}

// ---------------------------------------------------------------------------
// A chunk corrupted in flight fails the envelope check and is dropped
// whole: the destination neither applies nor acks it. The source re-sends
// only its unacked window — copies of envelopes it sealed once, never a
// re-cut or a restart of the stream — and the range converges.
// ---------------------------------------------------------------------------

TEST(MigrationStream, CorruptChunkIsDroppedWholeAndReSentUnsealed) {
  MiniCluster c(StreamOptions());
  c.PreloadRange(1, 250);
  sim::Network& network = c.network();
  uint64_t chunk3_deliveries = 0;
  uint64_t acked_before_resend = 0;
  network.RegisterNode(2, [&, inner = network.handler(2)](
                              std::unique_ptr<runtime::MessageBase> msg) {
    if (msg->type() == runtime::MessageType::kShardSnapshotChunk) {
      auto& chunk = static_cast<protocol::ShardSnapshotChunk&>(*msg);
      if (chunk.seq == 3 && ++chunk3_deliveries == 1) {
        chunk.payload[chunk.payload.size() / 2] ^= 0x20;
        std::vector<protocol::ReplWrite> opened;
        EXPECT_FALSE(protocol::OpenChunkPayload(chunk, &opened));
      }
    }
    inner(std::move(msg));
  });
  network.RegisterNode(3, [&, inner = network.handler(3)](
                              std::unique_ptr<runtime::MessageBase> msg) {
    if (msg->type() == runtime::MessageType::kShardSnapshotAck &&
        chunk3_deliveries == 1) {
      acked_before_resend = std::max(
          acked_before_resend,
          static_cast<const protocol::ShardSnapshotAck&>(*msg).seq);
    }
    inner(std::move(msg));
  });

  StartMigration(c, 110);
  c.RunFor(5000);

  ASSERT_EQ(chunk3_deliveries, 2u);
  EXPECT_EQ(acked_before_resend, 2u);  // the corrupt chunk 3 never applied
  const auto& src = c.source(1).migrator().stats();
  EXPECT_GE(src.stream.chunk_retransmits, 1u);
  EXPECT_LE(src.stream.chunk_retransmits, 4u);  // the window, not the stream
  EXPECT_EQ(src.stream.snapshot_chunks_sent, 8u);
  EXPECT_EQ(src.stream.chunks_sealed, src.stream.snapshot_chunks_sent);
  ASSERT_EQ(c.cutovers().size(), 1u);
  const auto& dst = c.source(0).migrator().stats();
  EXPECT_EQ(dst.snapshot_chunks_applied, 8u);
  EXPECT_EQ(dst.snapshot_records_applied, 250u);
  for (uint64_t off = 0; off < 250; ++off) {
    const auto moved = c.source(0).engine().store().Get(c.KeyOn(1, off));
    const auto kept = c.source(1).engine().store().Get(c.KeyOn(1, off));
    ASSERT_TRUE(moved.has_value() && kept.has_value()) << "offset " << off;
    EXPECT_EQ(moved->value, kept->value) << "offset " << off;
  }
}

// ---------------------------------------------------------------------------
// Replicated migration state, abort path: the source leader dies
// mid-stream. The promoted leader inherits the MigrationBegin record (no
// Cutover), aborts from the log, and notifies the balancer — no timeout
// wait, no committed-write loss, range keeps serving at the source group.
// ---------------------------------------------------------------------------

TEST(MigrationStream, SourceLeaderCrashMidStreamAbortsFromLog) {
  MiniCluster::Options options = StreamOptions();
  options.replication_factor = 3;
  options.ds_tweak = [](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 16;
    ds->migration_stream_window = 2;  // long stream: 16 chunks, small window
  };
  MiniCluster c(options);
  c.PreloadRange(1, 250);
  ASSERT_TRUE(c.RunTxn(1, {MiniCluster::Write(c.KeyOn(1, 9), 90)}).ok());

  StartMigration(c, 105);
  c.RunFor(150);  // Begin journaled, stream a few chunks in
  ASSERT_GT(c.source(1).migrator().stats().stream.snapshot_chunks_sent, 0u);
  ASSERT_EQ(c.source(1).migrator().stats().stream.streams_completed, 0u);
  c.source(1).Crash();
  c.RunFor(4000);  // election + promotion + abort-from-log

  auto* promoted = c.leader_of(1);
  ASSERT_NE(promoted, nullptr);
  EXPECT_NE(promoted->id(), c.source(1).id());
  // The promoted leader aborted the inherited migration deterministically.
  EXPECT_EQ(promoted->migrator().stats().migration_aborts_from_log, 1u);
  ASSERT_EQ(c.aborted_migrations().size(), 1u);
  EXPECT_EQ(c.aborted_migrations()[0].migration_id, 105u);
  EXPECT_TRUE(c.cutovers().empty());
  EXPECT_EQ(c.dm().stats().shard_map_epoch, 0u);

  // The range still serves at the source group, nothing lost.
  ASSERT_TRUE(c.RunTxn(2, {MiniCluster::Write(c.KeyOn(1, 9), 91)}).ok());
  auto rec = promoted->engine().store().Get(c.KeyOn(1, 9));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->value, 91);
}

// ---------------------------------------------------------------------------
// Replicated migration state, resume path: the cutover record is
// journaled, then the source leader dies before the map is published. The
// promoted leader re-fences the range from the log (closing the publish /
// LeaderAnnounce race) and re-reports readiness with logged=true.
// ---------------------------------------------------------------------------

TEST(MigrationStream, JournaledCutoverSurvivesSourceFailover) {
  MiniCluster::Options options = StreamOptions();
  options.replication_factor = 3;
  MiniCluster c(options);
  ASSERT_TRUE(c.RunTxn(1, {MiniCluster::Write(c.KeyOn(1, 5), 55)}).ok());

  StartMigration(c, 106);
  c.RunFor(1500);
  ASSERT_EQ(c.cutovers().size(), 1u);
  EXPECT_TRUE(c.cutovers()[0].logged);

  // Kill the source leader before any publish. The fence was volatile,
  // but the journaled cutover is not: the promoted leader must re-fence
  // BEFORE serving and re-report.
  c.source(1).Crash();
  c.RunFor(3000);
  auto* promoted = c.leader_of(1);
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(promoted->migrator().stats().migration_resumes, 1u);
  ASSERT_EQ(c.cutovers().size(), 2u);
  EXPECT_TRUE(c.cutovers()[1].logged);
  EXPECT_EQ(c.cutovers()[1].migration_id, 106u);
  EXPECT_EQ(c.cutovers()[1].range.owner, 2);
  EXPECT_EQ(c.cutovers()[1].range.version, 1u);

  // The re-fenced range refuses writes at the promoted leader — the
  // window where a post-failover source served (and then lost) writes on
  // a published-away range is closed.
  EXPECT_FALSE(c.RunTxn(2, {MiniCluster::Write(c.KeyOn(1, 5), 66)}).ok());
  EXPECT_GE(promoted->stats().shard_fenced_rejections, 1u);

  // Publish the cutover (what the balancer does on the re-report): the
  // range switches to the destination with the committed write intact.
  ShardMap published = ShardMap::FromRangePartition(1, 1000, {2, 3}, 4);
  ASSERT_EQ(published.ranges()[4].lo, kRangeLo);
  ASSERT_TRUE(published.Move(4, 2, 1));
  std::vector<NodeId> targets = {1, 2};
  for (auto* replica : c.replica_group(1)) targets.push_back(replica->id());
  for (auto* replica : c.replica_group(0)) targets.push_back(replica->id());
  for (NodeId target : targets) {
    auto update = std::make_unique<ShardMapUpdate>();
    update->from = 0;
    update->to = target;
    update->entries = published.ranges();
    c.network().Send(std::move(update));
  }
  c.RunFor(1000);

  EXPECT_EQ(c.dm().stats().shard_map_epoch, 1u);
  auto rec = c.source(0).engine().store().Get(c.KeyOn(1, 5));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->value, 55);
  ASSERT_TRUE(c.RunTxn(3, {MiniCluster::Write(c.KeyOn(1, 5), 56)}).ok());
  EXPECT_EQ(c.source(0).engine().store().Get(c.KeyOn(1, 5))->value, 56);
}

// ---------------------------------------------------------------------------
// Destination-leader failover mid-stream: when the balancer re-points the
// migration at the promoted destination leader, the source re-sends its
// unacked chunks verbatim. The new leader lifts its stream position from
// the ingest journal its group replicated, re-acks what is already there
// and applies the rest — the stream does not restart from chunk 1.
// ---------------------------------------------------------------------------

MiniCluster::Options DestFailoverOptions(Micros apply_cost) {
  MiniCluster::Options options = StreamOptions();
  options.replication_factor = 3;
  options.ds_tweak = [apply_cost](datasource::DataSourceConfig* ds) {
    ds->migration_chunk_records = 16;  // 250 records -> 16 chunks
    ds->migration_stream_window = 2;
    ds->migration_apply_cost = apply_cost;  // a long stream
  };
  return options;
}

/// Plays the balancer's re-point: the same migration, new dest leader.
void Repoint(MiniCluster& c, uint64_t id, NodeId dest_leader) {
  auto repoint = std::make_unique<ShardMigrateRequest>();
  repoint->from = 0;
  repoint->to = 3;
  repoint->migration_id = id;
  repoint->range = ShardRange{1, kRangeLo, kRangeHi, 3, 0};
  repoint->dest = 2;
  repoint->dest_leader = dest_leader;
  repoint->new_version = 1;
  c.network().Send(std::move(repoint));
}

TEST(MigrationStream, DestLeaderCrashMidStreamResumesByRetransmission) {
  MiniCluster c(DestFailoverOptions(2000));  // 32 ms per chunk
  c.PreloadRange(1, 250);

  StartMigration(c, 107);
  c.RunFor(250);  // several chunks quorum-applied at the destination
  ASSERT_GT(c.source(0).migrator().stats().snapshot_chunks_applied, 0u);
  ASSERT_EQ(c.source(1).migrator().stats().stream.streams_completed, 0u);

  c.source(0).Crash();  // destination leader dies mid-stream
  c.RunFor(3000);       // election in the destination group
  auto* promoted = c.leader_of(0);
  ASSERT_NE(promoted, nullptr);
  EXPECT_NE(promoted->id(), c.source(0).id());

  Repoint(c, 107, promoted->id());
  c.RunFor(6000);

  const auto& src = c.source(1).migrator().stats();
  EXPECT_GE(src.stream.chunk_retransmits, 1u);
  EXPECT_EQ(src.stream.streams_completed, 1u);
  // Every chunk was cut and sealed once (retransmits are copies): no
  // restart from chunk 1.
  EXPECT_EQ(src.stream.snapshot_chunks_sent, 16u);
  EXPECT_EQ(src.stream.chunks_sealed, 16u);
  ASSERT_EQ(c.cutovers().size(), 1u);
  EXPECT_EQ(c.cutovers()[0].migration_id, 107u);
  EXPECT_EQ(c.cutovers()[0].range.owner, 2);
  // The promoted leader applied only what its group had not.
  EXPECT_LT(promoted->migrator().stats().snapshot_chunks_applied, 16u);
  for (uint64_t off = 0; off < 250; off += 31) {
    EXPECT_TRUE(promoted->engine().store().Get(c.KeyOn(1, off)).has_value())
        << "offset " << off;
  }
}

// ---------------------------------------------------------------------------
// A delta applied at the old destination leader on a key inside a chunk
// that is still unacked: the chunk is re-sent to the promoted leader, and
// its (older) copy of the key must not overwrite the delta's value. The
// promoted leader knows the key from the ingest journal.
// ---------------------------------------------------------------------------

TEST(MigrationStream, ResentChunkNeverOverwritesAJournaledDelta) {
  MiniCluster c(DestFailoverOptions(40000));  // 640 ms per chunk
  c.PreloadRange(1, 80);                      // 5 chunks
  const RecordKey key = c.KeyOn(1, 56);       // in chunk 4
  ASSERT_EQ(c.source(1).engine().store().Get(key)->value, 0);

  // A write on the key, executed but not yet committed.
  c.SendRound(1, {MiniCluster::Write(key, 777)}, true);
  for (int step = 0; step < 400 && c.txn(1).round_responses.empty(); ++step) {
    c.RunFor(5);
  }
  ASSERT_FALSE(c.txn(1).round_responses.empty());

  StartMigration(c, 108);
  // The source runs one chunk ahead of the ingest: once chunk 4 is built
  // (with the key's old value), chunk 3 is mid-ingest.
  const auto& src = c.source(1).migrator().stats();
  for (int step = 0; step < 1000 && src.stream.snapshot_chunks_sent < 4;
       ++step) {
    c.RunFor(5);
  }
  ASSERT_EQ(src.stream.snapshot_chunks_sent, 4u);
  // Commit now: the delta applies after chunk 3, before chunk 4.
  c.SendCommit(1);
  const auto& dst = c.source(0).migrator().stats();
  for (int step = 0; step < 400 && dst.delta_batches_applied == 0; ++step) {
    c.RunFor(5);
  }
  // Chunk 4 is mid-ingest: the old leader dies before it applies.
  ASSERT_EQ(dst.delta_batches_applied, 1u);
  ASSERT_EQ(dst.snapshot_chunks_applied, 3u);
  ASSERT_TRUE(c.txn(1).result.ok());
  c.source(0).Crash();
  c.RunFor(3000);
  auto* promoted = c.leader_of(0);
  ASSERT_NE(promoted, nullptr);

  Repoint(c, 108, promoted->id());
  c.RunFor(6000);

  ASSERT_EQ(c.cutovers().size(), 1u);
  EXPECT_GE(promoted->migrator().stats().chunk_records_superseded, 1u);
  auto moved = promoted->engine().store().Get(key);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->value, 777);
}

// ---------------------------------------------------------------------------
// The ingest journal survives a crash, like the store it describes: both
// destination followers crash and restart mid-stream (while no ingest
// reaches their group), then the leader dies. Whichever follower is
// promoted still knows the applied prefix, so the re-sent chunks resume
// the stream instead of waiting on a gap until the timeout.
// ---------------------------------------------------------------------------

TEST(MigrationStream, RestartedReplicaKeepsItsIngestJournal) {
  MiniCluster c(DestFailoverOptions(2000));
  c.PreloadRange(1, 250);

  StartMigration(c, 109);
  c.RunFor(250);
  // Hold back the source's traffic to the destination leader, and let the
  // ingests already there settle.
  sim::LinkSpec frozen = sim::LinkSpec::FromRttMs(120000.0);
  c.network().matrix().SetDirected(3, 2, frozen);
  c.RunFor(400);
  const uint64_t applied =
      c.source(0).migrator().stats().snapshot_chunks_applied;
  ASSERT_GT(applied, 0u);
  ASSERT_LT(applied, 16u);

  for (int k = 0; k < 2; ++k) {
    c.follower(0, k).Crash();
    c.RunFor(200);
    c.follower(0, k).Restart();
    c.RunFor(400);
  }
  c.source(0).Crash();
  c.RunFor(3000);
  auto* promoted = c.leader_of(0);
  ASSERT_NE(promoted, nullptr);
  ASSERT_NE(promoted->id(), c.source(0).id());

  Repoint(c, 109, promoted->id());
  c.RunFor(6000);

  EXPECT_EQ(c.source(1).migrator().stats().stream.streams_completed, 1u);
  ASSERT_EQ(c.cutovers().size(), 1u);
  EXPECT_EQ(c.cutovers()[0].migration_id, 109u);
  EXPECT_EQ(promoted->migrator().stats().snapshot_chunks_applied,
            16u - applied);
}

}  // namespace
}  // namespace geotp
