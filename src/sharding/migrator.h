// ShardMigrator: the data-source side of live shard migration.
//
// Each DataSourceNode owns one migrator. It plays two roles:
//
//  * Source (replica-group leader only): on a ShardMigrateRequest it
//    journals a MigrationBegin record through the replica group's log
//    (epoch-fenced like prepares), then STREAMS the committed records of
//    the moving range as bounded, sequenced ShardSnapshotChunks under
//    receiver-driven credit: the destination acks each applied chunk with
//    a flow-control grant, so a slow destination backpressures the source
//    (whose only stream memory is the unacked-chunk retransmit buffer,
//    capped by the credit window) instead of flooding the event loop.
//    Writes committed during the stream forward as sequenced
//    ShardDeltaBatch messages. Once the last chunk is acked it FENCES the
//    range: new batches touching it are refused (retryable), in-flight
//    active branches on it are aborted (the client retries), and prepared
//    branches drain — their commit write sets still forward as deltas.
//    When no live branch touches the range and every delta is acked, the
//    migrator journals a MigrationCutover record and, once that is
//    quorum-durable, reports ShardCutoverReady{logged} to the balancer,
//    which publishes the new placement.
//
//  * Destination: applies chunks in sequence order, one bounded ingest at
//    a time (`migration_apply_cost` per record per chunk), buffering at
//    most the advertised credit window of out-of-order chunks. Deltas
//    interleave behind the stream cursor: they apply immediately in delta
//    order, and a chunk arriving later skips any key a delta already
//    wrote (the delta is always newer than the chunk's committed cut).
//    On a replicated destination every ingest is funnelled through the
//    replica group's log (Replicator::ReplicateIngest with a synthetic
//    migration xid, tagged with the chunk/delta seq it covers), so
//    followers receive it through the existing LogShipper entry stream
//    and acks are quorum-durable — the journaled tag is the crash-
//    consistent ChunkAck record.
//
// Failover: all stream state is volatile, but the Begin/Cutover records
// survive in the group log. A promoted source leader inherits every
// unresolved migration (Replicator::FinishPromotion) and resolves it
// deterministically: Cutover logged -> re-fence the range and re-report
// readiness (the balancer's publish stays safe even if its leader-epoch
// view is stale — the record IS the fence); Begin only -> journal a
// MigrationEnd, notify the balancer with ShardMigrateAborted, and leave
// the range serving at the source. This closes the in-flight-
// LeaderAnnounce publish race the balancer's epoch compare could not.
//
// Every data source also keeps an adopted copy of the shard map
// (ShardMapUpdate). A batch whose keys the local map places elsewhere is
// bounced with a ShardRedirect ("WrongShardEpoch") carrying the patched
// range, so stale DMs converge without a central refresh.
#ifndef GEOTP_SHARDING_MIGRATOR_H_
#define GEOTP_SHARDING_MIGRATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "protocol/messages.h"
#include "replication/replicator.h"
#include "sharding/shard_map.h"
#include "sim/network.h"

namespace geotp {
namespace datasource {
class DataSourceNode;
}  // namespace datasource

namespace sharding {

struct ShardMigratorStats {
  uint64_t migrations_started = 0;    ///< source role
  uint64_t migrations_cancelled = 0;
  uint64_t cutovers_reported = 0;
  uint64_t snapshot_records_sent = 0;
  uint64_t snapshot_chunks_sent = 0;   ///< excludes retransmits
  uint64_t chunk_retransmits = 0;
  /// High-water mark of the source's unacked-chunk buffer — the stream's
  /// only source-side memory. Flow control caps it at the receiver's
  /// credit window.
  uint64_t peak_unacked_chunks = 0;
  uint64_t streams_completed = 0;      ///< all chunks acked
  uint64_t delta_batches_sent = 0;
  uint64_t delta_writes_sent = 0;
  uint64_t fence_aborts = 0;  ///< active branches aborted at fence
  // (fenced rejections / redirects are counted in DataSourceStats, where
  // the refusal responses are actually sent.)
  uint64_t snapshot_records_applied = 0;  ///< destination role
  uint64_t snapshot_chunks_applied = 0;
  /// High-water mark of the destination's out-of-order chunk buffer;
  /// bounded by the window it advertises as credit.
  uint64_t peak_buffered_chunks = 0;
  uint64_t delta_batches_applied = 0;
  /// Chunk records skipped at apply time because a delta (always newer
  /// than the chunk's committed cut) already wrote the key.
  uint64_t chunk_records_superseded = 0;
  // Failover path (replicated migration state).
  uint64_t migration_resumes = 0;         ///< cutover re-reported from log
  uint64_t migration_aborts_from_log = 0; ///< Begin-only inherited, aborted
  // WAN-frugal streaming: compressed chunks + hash-decline resume.
  uint64_t seed_offers_sent = 0;  ///< re-point offers (source role)
  /// Chunks a re-pointed destination leader declined because its
  /// replicated ingest journal already held them — bytes the failover
  /// did NOT re-cross the WAN with.
  uint64_t chunks_declined = 0;
  uint64_t wan_bytes_raw = 0;   ///< packed chunk bytes before the codec
  uint64_t wan_bytes_wire = 0;  ///< chunk bytes actually sent (incl. resends)
  GEOTP_STAT_FIELDS(migrations_started, migrations_cancelled,
                    cutovers_reported, snapshot_records_sent,
                    snapshot_chunks_sent, chunk_retransmits,
                    HighWater(peak_unacked_chunks), streams_completed,
                    delta_batches_sent, delta_writes_sent, fence_aborts,
                    snapshot_records_applied, snapshot_chunks_applied,
                    HighWater(peak_buffered_chunks), delta_batches_applied,
                    chunk_records_superseded, migration_resumes,
                    migration_aborts_from_log, seed_offers_sent,
                    chunks_declined, wan_bytes_raw, wan_bytes_wire)
};

class ShardMigrator {
 public:
  explicit ShardMigrator(datasource::DataSourceNode* node) : node_(node) {}

  /// Consumes sharding traffic. Returns false for unrelated messages.
  bool HandleMessage(runtime::MessageBase* msg);

  /// Routing verdict for an incoming execute batch.
  enum class RouteCheck {
    kServe,   ///< all keys live here
    kFenced,  ///< a key is mid-migration (fenced): refuse, client retries
    kMoved,   ///< a key moved away: bounce with a ShardRedirect
  };
  /// The local map is authoritative for what this node serves: any key it
  /// places elsewhere is bounced, whatever epoch the coordinator routed
  /// under (a per-request GLOBAL epoch cannot prove the coordinator knows
  /// THIS range's latest placement). A coordinator that is actually ahead
  /// re-routes to the same owner and converges once the in-flight map
  /// update lands here. `moved` receives the range to redirect to when
  /// the result is kMoved.
  RouteCheck CheckOps(const std::vector<protocol::ClientOp>& ops,
                      const ShardRange** moved) const;

  /// Follower-read guard: false if the map places any key elsewhere (the
  /// DM then falls back to the leader path, which redirects properly).
  bool OwnsKeys(const std::vector<RecordKey>& keys) const;

  /// Commit hook: forwards the writes intersecting any active outbound
  /// migration as deltas. Call with the write set captured just before the
  /// engine commit.
  void OnCommittedWrites(
      const std::vector<std::pair<RecordKey, int64_t>>& writes);
  /// True if OnCommittedWrites needs the write set at all (avoids building
  /// it on the common no-migration path).
  bool WantsCommittedWrites() const { return !outbound_.empty(); }

  /// Branch-resolution hook (commit/rollback processed): re-checks whether
  /// a fenced migration finished draining.
  void OnBranchResolved();

  /// Promotion hook: unresolved migration records inherited through the
  /// group log. Re-fences + re-reports cut-over migrations, aborts the
  /// rest (see file comment).
  void OnInheritedMigrations(
      const std::vector<replication::Replicator::InheritedMigration>&
          migrations);

  /// Crash: stream and fence state are volatile. Migrations journaled in
  /// the replicated log are resumed or aborted by the promoted leader;
  /// unreplicated ones time out at the balancer and are cancelled.
  void OnCrash();

  /// Replicator apply hook (via DataSourceNode::OnIngestApplied): a
  /// migration-ingest entry landed on this replica. The per-migration
  /// journal built here is what a freshly promoted destination leader
  /// answers a ShardSeedOffer with — chunks whose hash it holds are
  /// declined instead of re-crossing the WAN.
  void NoteIngestApplied(uint64_t migration_id, uint64_t chunk_seq,
                         uint64_t delta_seq, uint64_t content_hash);

  const ShardMap& map() const { return map_; }
  const ShardMigratorStats& stats() const { return stats_; }
  /// Chunks currently unacked on any outbound stream (test/bench probe).
  uint64_t UnackedChunks() const;

 private:
  struct Outbound {
    uint64_t id = 0;
    ShardRange range;            ///< owner = this group (pre-cutover)
    NodeId dest = kInvalidNode;  ///< destination logical group
    NodeId dest_leader = kInvalidNode;
    uint64_t new_version = 0;
    NodeId balancer = kInvalidNode;  ///< where ShardCutoverReady goes
    Micros timeout = 0;              ///< balancer cancellation window
    // ---- chunk stream (source -> dest) ----
    uint64_t next_chunk_seq = 1;   ///< next chunk to build
    uint64_t acked_chunk_seq = 0;  ///< highest contiguously acked chunk
    uint64_t credit = 1;           ///< receiver grant beyond acked_chunk_seq
    uint64_t last_chunk_seq = 0;   ///< seq of the final chunk (0 = unknown)
    uint64_t scan_cursor = 0;      ///< next key offset to scan
    bool scan_exhausted = false;
    bool stream_complete = false;  ///< every chunk acked
    /// Sent-but-unacked chunks, kept for retransmit. The stream's only
    /// bulk source-side memory; flow control bounds it to the credit
    /// window.
    std::map<uint64_t, std::vector<protocol::ReplWrite>> unacked;
    /// Per-chunk send record, kept PAST the ack (a few words per chunk):
    /// a destination-leader failover re-offer must replay the ORIGINAL
    /// hashes the old leader journaled, and resuming after the declined
    /// prefix needs the scan cursor that followed each chunk.
    struct SentDigest {
      uint64_t hash = 0;
      uint64_t next_cursor = 0;   ///< scan_cursor after this chunk
      bool exhausted = false;     ///< scan ended with this chunk
    };
    std::map<uint64_t, SentDigest> sent_digests;
    /// Sent-but-unacked delta batches: a re-pointed stream resends the
    /// suffix past the new destination leader's journaled delta position.
    std::map<uint64_t, std::vector<protocol::ReplWrite>> unacked_deltas;
    /// "migrate.chunk" system spans (first send -> ack), keyed like
    /// `unacked`; retransmits extend the original span.
    std::map<uint64_t, obs::SpanHandle> chunk_spans;
    Micros last_progress_at = 0;
    bool resend_armed = false;
    // ---- migration control records (replicated source) ----
    bool begin_logged = false;    ///< Begin record quorum-durable
    bool cutover_pending = false; ///< Cutover appended, awaiting quorum
    bool cutover_logged = false;  ///< Cutover record quorum-durable
    bool resumed = false;         ///< recreated from the log at promotion
    // ---- fence / cutover ----
    bool fenced = false;
    bool cutover_reported = false;
    uint64_t next_seq = 1;  ///< next delta batch to send
    uint64_t acked_seq = 0; ///< highest delta batch acked
  };
  struct Inbound {
    ShardRange range;  ///< for pruning once the map places it here
    /// An ingest (chunk or delta) is mid-apply: record application charges
    /// `migration_apply_cost` per record on the event loop, so later
    /// ingests queue behind the one in flight.
    bool applying = false;
    // ---- chunk stream ----
    uint64_t applied_chunk_seq = 0;  ///< highest contiguously applied chunk
    bool stream_complete = false;    ///< every chunk applied
    struct BufferedChunk {
      std::vector<protocol::ReplWrite> records;
      bool last = false;
      uint64_t content_hash = 0;  ///< journaled with the ingest entry
    };
    /// Out-of-order chunks, bounded by the credit window we advertise.
    std::map<uint64_t, BufferedChunk> pending_chunks;
    /// Keys a delta wrote before the stream completed: a chunk arriving
    /// later must not overwrite them with its older committed-cut value.
    std::unordered_set<RecordKey, RecordKeyHash> delta_written;
    // ---- deltas ----
    uint64_t applied_seq = 0;  ///< highest contiguously applied delta
    std::map<uint64_t, std::vector<protocol::ReplWrite>> pending;
  };

  void OnMigrateRequest(const protocol::ShardMigrateRequest& req);
  void OnMigrateCancel(const protocol::ShardMigrateCancel& req);
  void OnSnapshotChunk(const protocol::ShardSnapshotChunk& chunk);
  void OnSnapshotAck(const protocol::ShardSnapshotAck& ack);
  void OnDeltaBatch(const protocol::ShardDeltaBatch& batch);
  void OnDeltaAck(const protocol::ShardDeltaAck& ack);
  void OnMapUpdate(const protocol::ShardMapUpdate& update);
  /// Destination side of a re-pointed stream: declines the journaled
  /// prefix, adopts the resume position, and grants credit for the rest.
  void OnSeedOffer(const protocol::ShardSeedOffer& offer);
  /// Source side: rewinds the stream to the declined prefix's end and
  /// resumes pumping (fresh scans) toward the new destination leader.
  void OnSeedDecline(const protocol::ShardSeedDecline& decline);
  /// Re-offers the sent-chunk digests to the (new) destination leader.
  void SendSeedOffer(Outbound& out);

  Outbound* FindOutbound(uint64_t migration_id);
  /// Builds + sends chunks while the receiver's credit window allows.
  void PumpChunks(uint64_t migration_id);
  /// Sends one already-built chunk (fresh or retransmit): seals it into
  /// the WAN envelope (common::SenderCodec), counts the bytes, and records
  /// the content hash in `sent_digests`.
  void SendChunk(Outbound& out, uint64_t seq,
                 const std::vector<protocol::ReplWrite>& records, bool last);
  /// Arms the per-migration retransmit check chain.
  void ArmResendTimer(uint64_t migration_id);
  /// Journals one migration control record if this node leads a replica
  /// group (no-op otherwise); `on_quorum` may be null.
  void JournalMigrationRecord(protocol::ReplEntryType type,
                              const Outbound& out,
                              std::function<void()> on_quorum);
  /// Journals the terminal MigrationEnd for `out` when the group log
  /// still tracks the migration as unresolved.
  void JournalEnd(const Outbound& out);

  /// Fences the range of `out`: aborts active branches touching it.
  void FenceRange(Outbound& out);
  /// Drain check: fenced + no live branch on the range + deltas acked ->
  /// journal the Cutover record (replicated) and report readiness once.
  void MaybeReportCutover(Outbound& out);
  void SendCutoverReady(Outbound& out, bool logged);

  /// Applies records at the destination after charging the per-record
  /// ingest cost, through the replica group's log when replicated (tagged
  /// with the stream position so the ack is journaled); runs `done` once
  /// durable. `still_valid` is re-checked when the ingest delay elapses,
  /// BEFORE anything touches the store: a migration cancelled mid-ingest
  /// must not apply its stale records (a later migration of the same
  /// range may have landed newer values by then).
  void ApplyRecords(std::vector<protocol::ReplWrite> records,
                    uint64_t migration_id, uint64_t chunk_seq,
                    uint64_t delta_seq, uint64_t content_hash,
                    std::function<bool()> still_valid,
                    std::function<void()> done);
  /// Applies the next buffered ingest (chunk in seq order first, else
  /// delta in seq order), one at a time.
  void DrainIngest(uint64_t migration_id, NodeId source);
  /// Acks the destination's current chunk position + credit grant.
  void SendChunkAck(uint64_t migration_id, NodeId source);

  datasource::DataSourceNode* node_;
  ShardMap map_;  ///< adopted placement (empty until the first update)
  std::vector<Outbound> outbound_;
  std::map<uint64_t, Inbound> inbound_;  ///< by migration id
  /// Destination-side tombstones: migrations cancelled or completed here.
  /// A straggler (or retransmitted) chunk arriving after the Inbound was
  /// erased must NOT recreate it — its stale records could overwrite a
  /// later migration of the same range. Migration ids are globally unique
  /// and few, so the set stays small.
  std::unordered_set<uint64_t> retired_inbound_;
  /// Per-migration record of quorum-durable ingests applied on THIS
  /// replica (fed by the replicator's apply path). Volatile — a crash
  /// clears it and a promoted leader simply declines nothing, falling
  /// back to a full resend. Pruned when the migration retires.
  struct IngestJournal {
    std::map<uint64_t, uint64_t> chunk_hashes;  ///< chunk seq -> hash
    uint64_t max_delta_seq = 0;
  };
  std::map<uint64_t, IngestJournal> ingest_journal_;  ///< by migration id
  uint64_t synthetic_seq_ = 0;  ///< synthetic txn ids for record applies
  ShardMigratorStats stats_;
};

}  // namespace sharding
}  // namespace geotp

#endif  // GEOTP_SHARDING_MIGRATOR_H_
