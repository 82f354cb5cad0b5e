// ShardMigrator: the data-source side of live shard migration. Each
// DataSourceNode owns one. As the source (replica-group leader only) it
// journals MigrationBegin, streams the range's committed records as a
// snapshot stream (replication/snapshot_stream.h) with the writes committed
// meanwhile following as ShardDeltaBatches, fences the range, journals
// MigrationCutover and reports ShardCutoverReady. As the destination it
// ingests chunks and deltas in order through its group's log, one bounded
// ingest at a time, a delta's key never overwritten by an older chunk. It
// also resolves migrations inherited at promotion and keeps the adopted
// shard map that bounces misrouted batches. The protocol, its failover
// paths and the journal are walked through in src/sharding/README.md.
#ifndef GEOTP_SHARDING_MIGRATOR_H_
#define GEOTP_SHARDING_MIGRATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "protocol/messages.h"
#include "replication/replicator.h"
#include "replication/snapshot_stream.h"
#include "replication/snapshot_stream.h"
#include "sharding/shard_map.h"

namespace geotp {
namespace datasource {
class DataSourceNode;
}  // namespace datasource

namespace sharding {

struct ShardMigratorStats {
  uint64_t migrations_started = 0;    ///< source role
  uint64_t migrations_cancelled = 0;
  uint64_t cutovers_reported = 0;
  uint64_t delta_batches_sent = 0;
  uint64_t delta_writes_sent = 0;
  uint64_t fence_aborts = 0;  ///< active branches aborted at fence
  // (fenced rejections / redirects are counted in DataSourceStats, where
  // the refusal responses are actually sent.)
  uint64_t snapshot_records_applied = 0;  ///< destination role
  uint64_t snapshot_chunks_applied = 0;
  uint64_t delta_batches_applied = 0;
  /// Chunk records skipped at apply time because a delta (always newer
  /// than the chunk's committed cut) already wrote the key.
  uint64_t chunk_records_superseded = 0;
  // Failover path (replicated migration state).
  uint64_t migration_resumes = 0;         ///< cutover re-reported from log
  uint64_t migration_aborts_from_log = 0; ///< Begin-only inherited, aborted
  /// The chunk streams, both roles.
  replication::SnapshotStreamStats stream;
  GEOTP_STAT_FIELDS(migrations_started, migrations_cancelled,
                    cutovers_reported, delta_batches_sent, delta_writes_sent,
                    fence_aborts, snapshot_records_applied,
                    snapshot_chunks_applied, delta_batches_applied,
                    chunk_records_superseded, migration_resumes,
                    migration_aborts_from_log, stream)
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
  /// unreplicated ones time out at the balancer and are cancelled. The
  /// ingest journal survives, like the store it describes.
  void OnCrash();

  /// Replicator apply hook (via DataSourceNode::OnIngestApplied): a
  /// migration-ingest entry landed on this replica. A freshly promoted
  /// destination leader lifts its stream position from the journal built
  /// here. `writes` are the ingest's records (a delta's keys are kept).
  void NoteIngestApplied(uint64_t migration_id, uint64_t chunk_seq,
                         uint64_t delta_seq,
                         const std::vector<protocol::ReplWrite>& writes);
  /// The log the ingest journal was built from was wiped.
  void ForgetIngestJournal() { ingest_journal_.clear(); }

  const ShardMap& map() const { return map_; }
  const ShardMigratorStats& stats() const { return stats_; }

 private:
  struct Outbound {
    uint64_t id = 0;
    ShardRange range;            ///< owner = this group (pre-cutover)
    NodeId dest = kInvalidNode;  ///< destination logical group
    NodeId dest_leader = kInvalidNode;
    uint64_t new_version = 0;
    NodeId balancer = kInvalidNode;  ///< where ShardCutoverReady goes
    Micros timeout = 0;              ///< balancer cancellation window
    /// The range's chunk stream (source -> dest); released once every
    /// chunk is acked, when the range is fenced.
    std::unique_ptr<replication::SnapshotSender> chunks;
    /// Sent-but-unacked delta batches, re-sent when the stream is
    /// re-pointed at a new destination leader.
    std::map<uint64_t, std::vector<protocol::ReplWrite>> unacked_deltas;
    // ---- migration control records (replicated source) ----
    bool begin_logged = false;    ///< Begin record quorum-durable
    bool cutover_pending = false; ///< Cutover appended, awaiting quorum
    bool cutover_logged = false;  ///< Cutover record quorum-durable
    // ---- fence / cutover ----
    bool fenced = false;  ///< set once the stream completed
    bool cutover_reported = false;
    uint64_t next_seq = 1;  ///< next delta batch to send
  };
  struct Inbound {
    ShardRange range;  ///< for pruning once the map places it here
    /// Leadership term the stream position below belongs to (0 when
    /// unreplicated). A new term re-derives it from the ingest journal.
    uint64_t term = 0;
    /// An ingest (chunk or delta) is mid-apply: record application charges
    /// `migration_apply_cost` per record on the event loop, so later
    /// ingests queue behind the one in flight.
    bool applying = false;
    replication::SnapshotReceiver chunks;
    /// Delta batches in seq order (not windowed: the source sends each
    /// once, and re-sends only when re-pointed).
    replication::SnapshotReceiver deltas{UINT64_MAX};
    /// Keys a delta wrote: a chunk applied later must not overwrite them
    /// with its older committed-cut value.
    std::unordered_set<RecordKey, RecordKeyHash> delta_written;
  };

  void OnMigrateRequest(const protocol::ShardMigrateRequest& req);
  void OnMigrateCancel(const protocol::ShardMigrateCancel& req);
  /// `records` is the chunk's opened envelope.
  void OnSnapshotChunk(const protocol::ShardSnapshotChunk& chunk,
                       std::vector<protocol::ReplWrite> records);
  void OnSnapshotAck(const protocol::ShardSnapshotAck& ack);
  void OnDeltaBatch(const protocol::ShardDeltaBatch& batch);
  void OnDeltaAck(const protocol::ShardDeltaAck& ack);
  void OnMapUpdate(const protocol::ShardMapUpdate& update);

  Outbound* FindOutbound(uint64_t migration_id);
  /// Self-cancellation backstop of a source-side migration.
  void ArmSelfCancel(uint64_t migration_id, Micros timeout);
  /// Starts the range's chunk stream (once the Begin record is durable on
  /// a replicated source).
  void StartStream(Outbound& out);
  void SendDelta(const Outbound& out, uint64_t seq,
                 std::vector<protocol::ReplWrite> writes);
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
                    uint64_t delta_seq, std::function<bool()> still_valid,
                    std::function<void()> done);
  /// Leadership term ingest runs under (0 when unreplicated).
  uint64_t Term() const;
  /// The destination's stream state for `migration_id`, created on first
  /// use. On the first ingest traffic of a leadership term, the position
  /// is lifted to the ingest journal and an ingest left mid-apply by an
  /// earlier term is dropped.
  Inbound& InboundFor(uint64_t migration_id);
  /// Applies the next buffered ingest (chunk in seq order first, else
  /// delta in seq order), one at a time.
  void DrainIngest(uint64_t migration_id, NodeId source);
  /// Acks the destination's current chunk position + credit grant.
  void SendChunkAck(const Inbound& in, uint64_t migration_id, NodeId source);
  void SendDeltaAck(uint64_t migration_id, NodeId source, uint64_t seq);

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
  /// replica (fed by the replicator's apply path). Ingests apply in
  /// order, so both seqs are contiguous prefixes. Survives a crash, like
  /// the applied store; dropped at cancel, at retire and by a log wipe.
  struct IngestJournal {
    uint64_t chunk_seq = 0;  ///< highest applied chunk
    uint64_t delta_seq = 0;  ///< highest applied delta batch
    /// Keys the applied deltas wrote (see Inbound::delta_written).
    std::unordered_set<RecordKey, RecordKeyHash> delta_keys;
  };
  std::map<uint64_t, IngestJournal> ingest_journal_;  ///< by migration id
  uint64_t synthetic_seq_ = 0;  ///< synthetic txn ids for record applies
  ShardMigratorStats stats_;
};

}  // namespace sharding
}  // namespace geotp

#endif  // GEOTP_SHARDING_MIGRATOR_H_
