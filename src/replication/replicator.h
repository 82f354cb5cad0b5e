// Replicator: per-replica actor of one replica group.
//
// Each DataSourceNode owning a Replicator is a member of a replica group.
// The leader logs one entry per PREPARE or COMMIT record (with its write
// set), ships it as the record goes to the WAL device, and reports
// prepare/commit durability to the middleware only after a quorum of the
// group holds the entry. Every replica, the leader included, applies the
// committed prefix of its log that it holds durably, in log order: a
// commit entry commits the branch this node holds, or writes its values to
// the local store (giving stale-bounded follower reads). Followers detect
// leader failure via heartbeat loss, and elect a new leader
// deterministically (longest log wins, election timeouts staggered by
// replica ordinal). A promoted leader installs quorum-staged prepared
// branches into its engine as in-doubt XA branches, re-votes them to their
// coordinating middleware, and announces the new epoch to the middlewares,
// which re-route and retry in-flight branches.
#ifndef GEOTP_REPLICATION_REPLICATOR_H_
#define GEOTP_REPLICATION_REPLICATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "obs/trace.h"
#include "protocol/messages.h"
#include "replication/election.h"
#include "replication/log_shipper.h"
#include "runtime/runtime.h"
#include "replication/replication_config.h"
#include "replication/unresolved_prepares.h"

namespace geotp {
namespace datasource {
class DataSourceNode;
}  // namespace datasource

namespace replication {

struct ReplicatorStats {
  uint64_t appends_received = 0;
  uint64_t entries_applied = 0;
  uint64_t promotions = 0;
  uint64_t prepared_installs = 0;
  uint64_t revotes_sent = 0;
  uint64_t follower_reads_served = 0;
  uint64_t follower_reads_rejected = 0;
  uint64_t not_leader_rejections = 0;
  uint64_t log_entries_truncated = 0;  ///< compacted-away prefix entries
  uint64_t snapshot_installs = 0;  ///< bootstrap snapshots applied
  uint64_t migration_records_appended = 0;  ///< Begin/Cutover/End journaled
  uint64_t migration_handoffs = 0;  ///< unresolved migrations at promotion
  // Follower re-seed chunk stream + its WAN accounting.
  uint64_t bootstrap_chunks_sent = 0;
  uint64_t wan_bytes_raw = 0;   ///< packed bootstrap-chunk bytes pre-codec
  uint64_t wan_bytes_wire = 0;  ///< bytes actually shipped
  GEOTP_STAT_FIELDS(appends_received, entries_applied, promotions,
                    prepared_installs, revotes_sent, follower_reads_served,
                    follower_reads_rejected, not_leader_rejections,
                    log_entries_truncated, snapshot_installs,
                    migration_records_appended, migration_handoffs,
                    bootstrap_chunks_sent, wan_bytes_raw, wan_bytes_wire)
};

class Replicator {
 public:
  using QuorumCallback = std::function<void()>;

  Replicator(datasource::DataSourceNode* node, GroupConfig group);

  /// Arms timers for the initial role: the member whose id equals the
  /// group's logical id starts as epoch-0 leader, the rest as followers.
  void Start();

  NodeId group_id() const { return group_.logical; }
  Role role() const { return election_.role(); }
  bool IsLeader() const { return election_.role() == Role::kLeader; }
  uint64_t epoch() const { return election_.epoch(); }
  NodeId leader_hint() const { return election_.leader(); }

  /// Promotion barrier. A freshly promoted leader may have inherited
  /// commit/abort entries past its watermark (appended by the deposed
  /// leader, quorum unknown); they apply only once re-acked under the new
  /// term. Until then the store is behind the log, and serving a new
  /// branch would let it read — and its raw entry-apply later clobber —
  /// pre-failover values under a live lock (a lost-update the shard chaos
  /// harness caught). The data source parks client-facing work while this
  /// is false; it clears within one follower round trip.
  bool ReadyToServe() const {
    return !IsLeader() || promotion_barrier_ == 0;
  }

  const ReplicationLog& log() const { return log_; }
  uint64_t applied_index() const { return applied_index_; }
  uint64_t commit_watermark() const {
    return IsLeader() ? shipper_.commit_watermark() : follower_watermark_;
  }
  /// Follower data staleness: virtual time since this replica last knew it
  /// had applied everything the leader had committed. 0 on the leader.
  Micros Staleness() const;

  const ReplicatorStats& stats() const { return stats_; }
  const ElectionStats& election_stats() const { return election_.stats(); }
  const LogShipperStats& shipper_stats() const { return shipper_.stats(); }

  // ----- durability hooks (called by the data source) ---------------------

  /// On a leader, appends the entry of `xid`'s PREPARE or COMMIT record
  /// (with the branch's write set) and returns its index, which tags the
  /// record in the WAL: the entry ships when the record's batch goes to the
  /// device (OnWalFlushStart), and this replica's copy counts once the
  /// record is durable (OnWalFlushed). Returns 0 when this replica does not
  /// lead or the transaction already has such an entry; a leader that steps
  /// down before the record's batch starts cuts the entry again.
  uint64_t AppendRecordEntry(protocol::ReplEntryType type, const Xid& xid,
                             NodeId coordinator);
  /// Group-committer hooks: a tagged record's batch went to the device; a
  /// flush completed (this replica's durable prefix grew).
  void OnWalFlushStart();
  void OnWalFlushed();

  /// Destination-side migration ingest: a commit entry tagged with the
  /// stream position it covers (chunk or delta seq), so the ack is
  /// journaled in the group log and a promoted destination leader resumes
  /// the stream past it. The records apply here as on every replica, and
  /// `on_applied` (the ack) runs once they did, if this replica still
  /// leads then.
  void ReplicateIngest(const Xid& xid,
                       std::vector<protocol::ReplWrite> writes,
                       uint64_t migration_id, uint64_t chunk_seq,
                       uint64_t delta_seq, std::function<void()> on_applied);

  /// Source-side migration control records (Begin / Cutover / End).
  /// Epoch-fenced like prepares: unresolved records (Begin without End)
  /// pin log compaction and are handed to the ShardMigrator on promotion,
  /// so a failover mid-migration resumes or aborts deterministically from
  /// the log. `on_quorum` fires once the record is quorum-durable.
  void ReplicateMigrationRecord(protocol::ReplEntryType type,
                                const protocol::MigrationRecord& record,
                                QuorumCallback on_quorum);

  /// One inherited, unresolved migration at promotion time.
  struct InheritedMigration {
    protocol::MigrationRecord record;
    bool cutover_logged = false;
  };

  /// True while a MigrationBegin for `migration_id` has no MigrationEnd.
  /// The migrator consults this when resolving a migration, so an End is
  /// journaled even when the cancel raced the Begin's quorum round trip
  /// (an unresolved record pins log compaction forever otherwise).
  bool HasUnresolvedMigration(uint64_t migration_id) const {
    return unresolved_migrations_.count(migration_id) > 0;
  }

  /// Appends an abort entry iff an unresolved prepare entry exists for the
  /// transaction (followers must unstage it). Fire-and-forget.
  void ReplicateAbortIfPrepared(TxnId txn);

  /// Index of the commit entry for `txn` while the log holds one — used
  /// to answer duplicate commit decisions idempotently after failover.
  std::optional<uint64_t> CommitEntryIndex(TxnId txn) const;
  /// Index of `txn`'s prepare entry while no commit or abort entry
  /// resolved it; 0 when there is none.
  uint64_t PrepareEntryIndex(TxnId txn) const {
    return unresolved_prepares_.Get(txn);
  }
  void AwaitQuorum(uint64_t index, QuorumCallback on_quorum) {
    shipper_.AwaitQuorum(index, std::move(on_quorum));
  }
  /// Runs `on_applied` once the commit entry at `index` applied here (at
  /// once if it already has), whatever this replica's role. Dropped if the
  /// entry is cut or the replica crashes.
  void AwaitCommitApplied(uint64_t index, std::function<void()> on_applied);
  /// Waiters registered by AwaitCommitApplied that have not run yet.
  size_t commit_waiters() const { return commit_waiters_.size(); }
  /// Commit entries kept for decision retries (one per committed
  /// transaction; nothing prunes them yet).
  size_t commit_entries() const { return commit_entries_.size(); }

  // ----- lifecycle --------------------------------------------------------

  /// Consumes replication traffic. Returns false for unrelated messages.
  bool HandleMessage(runtime::MessageBase* msg);

  /// Crash: timers stop, volatile shipping state drops, and the log keeps
  /// only its durable prefix: entries whose WAL record was still pending
  /// are cut. Call before the WAL drops its pending records. The applied
  /// store survives, mirroring the engine's crash semantics.
  void OnCrash();

  /// Restart: rejoins as a follower and re-verifies its log against the
  /// current leader before anything is applied again.
  void OnRestart();

  /// Simulates total loss of the replicated log (disk gone). The replica
  /// restarts empty; if the leader compacted past its death point, it is
  /// re-seeded through the snapshot-install path. Call while crashed,
  /// before OnRestart().
  void WipeForBootstrap();

 private:
  /// Moves `entries`, the request's opened batch, into the log.
  void OnAppend(const protocol::ReplAppendRequest& req,
                std::vector<protocol::ReplEntry>& entries);
  void OnAppendAck(const protocol::ReplAppendAck& ack);
  void OnVoteRequest(const protocol::ReplVoteRequest& req);
  void OnVoteResponse(const protocol::ReplVoteResponse& resp);
  void OnFollowerRead(const protocol::FollowerReadRequest& req);
  /// Leader side: re-seeds a follower whose next entry was compacted
  /// away by streaming the committed store as chunks seq 1..N, `last` on
  /// chunk N, all sent at once. Throttled: the shipper re-fires this every
  /// heartbeat while the follower lags, but a fresh stream goes out at
  /// most every two heartbeats. A re-sent stream for the same base cuts
  /// its chunks at the first stream's keys; it is idempotent (values are
  /// absolute) and is how a lost chunk is recovered.
  void SendBootstrapSnapshot(NodeId follower);
  /// Follower side: applies one chunk (migration_id == 0, seq >= 1) of a
  /// bootstrap stream and installs once it holds seqs 1..N for the
  /// stream's (leader epoch, base_index).
  void OnBootstrapSnapshot(const protocol::ShardSnapshotChunk& chunk,
                           const std::vector<protocol::ReplWrite>& records);
  /// Follower side: every chunk of the stream arrived — position the log
  /// at the snapshot boundary and ack.
  void FinishBootstrapInstall();

  /// Epoch of the last log entry (0 for an empty log) — the first half of
  /// the (epoch, index) log-position pair elections compare.
  uint64_t LastLogEpoch() const;
  /// Group members other than this replica.
  std::vector<NodeId> Followers() const;
  /// Folds the shipper's quorum progress into the follower-side state,
  /// cuts the entries this term never shipped (their records' flush end
  /// finds them outside the group) and deactivates the shipper (deposition
  /// and crash share this).
  void RetireLeadership();

  void ArmElectionTimer(Micros delay);
  void OnElectionCheck();
  void StartElection();
  void ArmHeartbeatTimer();
  void BecomeLeader();
  /// Runs once the log up to the term's no-op entry has applied: installs
  /// staged prepares, announces leadership, and lets the data source drain
  /// parked work.
  void FinishPromotion();
  /// Recreates quorum-staged prepared branches as in-doubt XA branches in
  /// the engine and re-votes them to their coordinators.
  void InstallStagedPrepares();
  void AnnounceLeadership();

  /// Applies the entries that are committed and durable here, in log
  /// order, and runs their commit waiters (every role).
  void ApplyCommitted();
  void ApplyEntry(const protocol::ReplEntry& entry);
  /// Maintains the prepare/commit/migration tracking maps for the entry
  /// just appended at `index`, and returns `index`.
  uint64_t Track(uint64_t index);
  /// Maintains unresolved_migrations_ for one migration record.
  void TrackMigrationRecord(protocol::ReplEntryType type,
                            uint64_t migration_id, uint64_t index);
  /// Removes log entries >= `from` plus their tracking state and commit
  /// waiters, and rolls back the local branch of every prepare or commit
  /// entry it cuts (the group never logged it; a deposed leader may still
  /// hold the branch).
  void TruncateFrom(uint64_t from);
  /// TruncateFrom without the rollbacks.
  void CutLog(uint64_t from);
  /// Compacts the log prefix every group member has applied (bounded by
  /// unresolved prepares, which a promotion still needs to install).
  void MaybeTruncateLog();
  /// After any possible role change: retires leader-only machinery and
  /// keeps the election timer armed for non-leaders.
  void SyncRoleState();

  runtime::ITimer* loop() const;
  runtime::ITransport* network() const;
  NodeId self() const;

  datasource::DataSourceNode* node_;
  GroupConfig group_;
  int ordinal_ = 0;  ///< position in group_.replicas
  ElectionState election_;
  ReplicationLog log_;
  LogShipper shipper_;
  /// Decode target of appends, kept for its capacity.
  std::vector<protocol::ReplEntry> opened_entries_;

  // Follower-side state.
  /// Prefix of the log verified to match the current leader's log.
  uint64_t consistent_prefix_ = 0;
  uint64_t follower_watermark_ = 0;
  uint64_t applied_index_ = 0;
  /// Leader-announced compaction bound (its min follower match index): a
  /// follower must retain everything above it so that, if promoted, it
  /// can still re-ship the tail to the laggiest peer (no snapshots yet).
  uint64_t compact_floor_ = 0;
  Micros last_leader_contact_ = 0;
  Micros fresh_as_of_ = -1;  ///< -1: never caught up

  /// Prepare entries without a later commit/abort entry (txn -> index).
  /// On promotion these become in-doubt engine branches.
  UnresolvedPrepares unresolved_prepares_;
  /// Migration control records without a MigrationEnd (id -> state). On
  /// promotion these are handed to the ShardMigrator to resume (Cutover
  /// logged) or abort (Begin only).
  struct MigrationTrack {
    uint64_t begin_index = 0;
    uint64_t cutover_index = 0;  ///< 0 until a Cutover record lands
  };
  std::unordered_map<uint64_t, MigrationTrack> unresolved_migrations_;
  /// Commit entry per transaction (for idempotent decision retries).
  common::FlatMap<TxnId, uint64_t, TxnIdHash> commit_entries_;
  /// AwaitCommitApplied waiters by entry index, FIFO among equal ones.
  std::multimap<uint64_t, std::function<void()>> commit_waiters_;

  // ----- bootstrap re-seed state -----
  /// Leader side: the stream to one lagging follower; cleared with
  /// leadership.
  struct BootstrapStream {
    Micros sent_at = 0;  ///< last send (the 2x heartbeat re-send throttle)
    uint64_t base_index = 0;
    /// First key of chunks 2..N, fixed while `base_index` holds: a re-sent
    /// stream cuts at the same keys, so chunk s covers the same key range
    /// in every stream for the base and any mix of them covers the store.
    std::vector<RecordKey> chunk_starts;
  };
  std::unordered_map<NodeId, BootstrapStream> bootstrap_streams_;
  /// Follower side: the install in progress (volatile — a crash mid-seed
  /// keeps the partially applied store, and the next stream re-sends
  /// every chunk). Keyed by the sending leader's epoch and its base: a
  /// new leader's stream starts a fresh install whatever its base.
  struct PendingBootstrap {
    uint64_t epoch = 0;
    uint64_t base_index = 0;
    uint64_t base_epoch = 0;
    std::set<uint64_t> received;  ///< chunk seqs applied so far
    uint64_t last_seq = 0;        ///< N, once the `last` chunk arrived
  };
  std::optional<PendingBootstrap> pending_bootstrap_;

  runtime::TimerId election_timer_ = runtime::kInvalidTimer;
  runtime::TimerId heartbeat_timer_ = runtime::kInvalidTimer;
  /// The term's no-op entry until it applied here (promotion barrier);
  /// 0 once it has, or when not promoting.
  uint64_t promotion_barrier_ = 0;
  /// "repl.promotion" system span (BecomeLeader -> barrier cleared).
  obs::SpanHandle promotion_span_ = obs::kInvalidSpan;
  ReplicatorStats stats_;
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_REPLICATOR_H_
