// DataSourceNode: one geo-distributed data source — an XA-capable engine
// (MySQL- or PostgreSQL-flavoured) together with the geo-agent GeoTP
// deploys next to it (paper §III-B).
//
// The node is an actor on the network. It owns:
//   * a storage::TransactionEngine (strict 2PL + XA state machine),
//   * the cost model (per-op execution time, fsync time, agent LAN hop),
//   * the geo-agent role (§IV-A, Algorithm 1):
//       - decentralized prepare (AsyncPrepare): after the last statement
//         of a branch with peers, XA END/PREPARE over one LAN hop, and the
//         vote goes to the DM inside the batch's execute response, held
//         until the prepare resolves — no WAN prepare round and no vote
//         message (a branch without peers votes IDLE on its response, and
//         one whose batch carries the client's COMMIT commits one-phase
//         before it responds);
//       - early abort (AsyncRollback): a failed branch notifies its peers
//         directly (PeerAbortRequest), bypassing the DM;
//       - tombstones: a peer abort can outrun a postponed batch, so the
//         aborted transaction is remembered and late batches are refused;
//       - lazy commit acks: the ack of a commit the DM already answered
//         the client for waits (at most kAckDelayBound) for the next
//         execute response, vote or pong to that DM and rides on it.
//
// Batches of operations within one BranchExecuteRequest run sequentially
// (charging engine costs on the timer); lock waits park the batch and
// a 5 s lock-wait timeout aborts the branch, mirroring
// innodb_lock_wait_timeout.
#ifndef GEOTP_DATASOURCE_DATA_SOURCE_H_
#define GEOTP_DATASOURCE_DATA_SOURCE_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/latency_monitor.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "protocol/messages.h"
#include "replication/replicator.h"
#include "runtime/runtime.h"
#include "sharding/migrator.h"
#include "storage/engine.h"
#include "storage/group_commit.h"

namespace geotp {
namespace datasource {

/// Lock-wait timeout (innodb_lock_wait_timeout; paper default 5 s).
constexpr Micros kLockWaitTimeout = SecToMicros(5);
/// Bound on how long a DM postpones a branch dispatch: the slowest
/// participant's RTT estimate plus scaled LEL forecast, less the branch's
/// own (Eq. 3/8). The longest seen in any bench here is 2.2 s.
constexpr Micros kLongestPostponement = SecToMicros(5);
/// How long a tombstone refuses late batches. Any batch an early abort
/// outran left its DM before the abort, so it arrives within one
/// postponement, with the lock-wait timeout as margin; after that the
/// tombstone can refuse nothing and expires.
constexpr Micros kTombstoneLifetime = kLongestPostponement + kLockWaitTimeout;
/// Longest a lazy commit ack waits for a message to its DM to ride on
/// before it leaves alone. Two ping periods: a DM pinging this node gets
/// every lazy ack on a pong.
constexpr Micros kAckDelayBound = 2 * core::kPingInterval;

struct DataSourceConfig {
  storage::EngineConfig engine;
  /// Early abort: a failed branch notifies its peers directly. Set from
  /// the deployment's DM mode by workload::Build.
  bool early_abort = true;
  /// Group-commit policy of the WAL device: prepare/commit fsyncs from
  /// concurrent branches share one flush (enabled by default; disable for
  /// the unbatched per-transaction fsync baseline).
  storage::GroupCommitConfig group_commit;
  /// Shard migration: per-record ingest cost at the destination (bulk
  /// apply of snapshot/delta records, charged per chunk). Makes oversized
  /// migrations take real time — the reason the balancer splits a chunk
  /// instead of shipping all of it.
  Micros migration_apply_cost = 2;
  /// Streaming migration: max committed records per ShardSnapshotChunk.
  /// Bounds both the wire message and the per-chunk ingest charge.
  uint64_t migration_chunk_records = 512;
  /// Streaming migration: receiver-side chunk window. The destination
  /// grants at most this many un-applied chunks of credit, so a slow
  /// (or stalled) destination backpressures the source: the source's
  /// unacked-chunk buffer — its only stream memory — never exceeds it.
  uint64_t migration_stream_window = 4;
  /// Streaming migration: source-side retransmit check. Chunks (or acks)
  /// lost by the network are re-sent when no stream progress happened for
  /// this long; duplicates are re-acked at the receiver's position.
  Micros migration_resend_timeout = MsToMicros(600);

  static DataSourceConfig MySql() {
    DataSourceConfig config;
    config.engine = storage::MySqlEngineConfig();
    return config;
  }
  static DataSourceConfig Postgres() {
    DataSourceConfig config;
    config.engine = storage::PostgresEngineConfig();
    return config;
  }
};

struct DataSourceStats {
  uint64_t batches_executed = 0;
  uint64_t ops_executed = 0;
  uint64_t lock_timeouts = 0;
  uint64_t prepares_initiated = 0;  ///< AsyncPrepare calls (with peers)
  /// Prepare records written, by who asked: the node itself after a last
  /// statement (decentralized) or the DM (explicit).
  uint64_t decentralized_prepares = 0;
  uint64_t explicit_prepares = 0;
  uint64_t early_aborts_sent = 0;
  uint64_t early_aborts_received = 0;
  uint64_t tombstone_hits = 0;  ///< peer aborts that found no branch
  uint64_t commits = 0;
  /// Commits made as a commit_one_phase batch ended, with no decision
  /// round (a subset of `commits`).
  uint64_t exec_commits = 0;
  uint64_t rollbacks = 0;
  /// How votes and acks travelled: votes inside an execute response (IDLE
  /// included), lazy commit acks that rode another message, and
  /// DecisionAck messages sent.
  uint64_t votes_on_response = 0;
  uint64_t acks_piggybacked = 0;
  uint64_t acks_sent_alone = 0;
  // Elastic sharding (src/sharding).
  uint64_t shard_fenced_rejections = 0;  ///< batches refused mid-migration
  uint64_t shard_redirects_sent = 0;     ///< stale-epoch bounces
  // Capacity signal / shard-map anti-entropy (piggybacked on pings).
  uint64_t peak_inflight = 0;       ///< max branches in flight ever reported
  uint64_t shard_map_serves = 0;    ///< pongs that carried the map to a behind DM
  GEOTP_STAT_FIELDS(batches_executed, ops_executed, lock_timeouts,
                    prepares_initiated, decentralized_prepares,
                    explicit_prepares, early_aborts_sent,
                    early_aborts_received, tombstone_hits, commits,
                    exec_commits, rollbacks, votes_on_response,
                    acks_piggybacked, acks_sent_alone, shard_fenced_rejections,
                    shard_redirects_sent, HighWater(peak_inflight),
                    shard_map_serves)
};

class DataSourceNode {
 public:
  /// The node runs on whatever backend `env` belongs to (sim event loop or
  /// a loopback actor thread).
  DataSourceNode(runtime::ActorEnv env, DataSourceConfig config);

  /// Registers the node's message handler with the network.
  void Attach();

  /// Makes this node a member of a replica group (call before Attach()).
  /// The member whose id equals `group.logical` starts as leader; the
  /// others follow. Durability (prepare votes, commit acks) is then gated
  /// on quorum replication.
  void EnableReplication(const replication::GroupConfig& group);
  replication::Replicator* replicator() { return replicator_.get(); }

  NodeId id() const { return id_; }
  /// The id branches are addressed by: the replica group's logical id when
  /// replicated (stable across failovers), else this node's id.
  NodeId logical_id() const {
    return replicator_ != nullptr ? replicator_->group_id() : id_;
  }
  const DataSourceConfig& config() const { return config_; }
  storage::TransactionEngine& engine() { return engine_; }
  /// The WAL device's group committer: prepare/commit durability waits go
  /// through here so concurrent branches share fsyncs.
  storage::GroupCommitter& committer() { return committer_; }
  /// Elastic sharding: live migration + stale-epoch redirects.
  sharding::ShardMigrator& migrator() { return *migrator_; }
  const DataSourceStats& stats() const { return stats_; }
  runtime::ITimer* timer() { return timer_; }
  runtime::ITransport* transport() { return network_; }

  /// Crash simulation: partitions the node, rolls back non-prepared
  /// branches (paper §V-A setting ❷). Restart() reconnects it.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  /// True if this node currently executes/holds the branch of `txn`.
  bool HasBranch(TxnId txn) const { return branches_.count(txn) > 0; }

  /// True while batches of `txn` are refused here: it was early-aborted
  /// less than kTombstoneLifetime ago and no decision has cleared it.
  bool IsTombstoned(TxnId txn) const;

  /// Registers this source's stats, its subsystems' stats and its
  /// live-state gauges on `registry` (see MiddlewareNode::AttachMetrics
  /// for the lifetime contract).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  /// Common setting ❶ (§V-A): when a DM disconnects, its branches that
  /// have not completed the prepare phase are aborted. Prepared branches
  /// survive as in-doubt until the DM recovers.
  void OnCoordinatorFailure(NodeId middleware);

  /// Replicator hook: the promotion barrier cleared (or leadership was
  /// retired) — replay the client-facing messages parked behind it.
  void OnReplicatorReady();

  /// Replicator hook, promotion path: migration control records inherited
  /// from the deposed leader (Begin without End in the group log). Runs
  /// before the leadership announce so a cut-over range is re-fenced
  /// before any DM can route new work here.
  void OnInheritedMigrations(
      const std::vector<replication::Replicator::InheritedMigration>&
          migrations);

  /// Replicator hook, apply path: a migration-ingest commit entry was
  /// applied on this replica. Feeds the migrator's per-migration ingest
  /// journal, from which a freshly promoted destination leader resumes
  /// the stream the source re-sends after a re-point.
  void OnIngestApplied(uint64_t migration_id, uint64_t chunk_seq,
                       uint64_t delta_seq,
                       const std::vector<protocol::ReplWrite>& writes);
  /// Replicator hook: the log was wiped for a bootstrap re-seed, so the
  /// ingest journal built from its entries goes too.
  void OnLogWiped();

 private:
  friend class sharding::ShardMigrator;

  struct ExecState;
  struct BranchInfo {
    std::vector<NodeId> peers;
    NodeId coordinator = kInvalidNode;
    /// Every key the branch's batches touched — the migration fence uses
    /// this to abort (active) or drain (prepared) branches on the moving
    /// range without scanning the engine.
    std::vector<RecordKey> keys;
    /// Trace context seeded from the BranchExecuteRequest envelope.
    /// Prepare/decision batches carry no per-transaction context (one
    /// envelope, many transactions), so source-side spans of the commit
    /// path parent under the context stored here.
    obs::TraceContext trace;
    /// The branch's commit-carrying batch, from its start until its commit
    /// resolves. A commit decision that arrives meanwhile (a leader kept
    /// the branch across a re-election) waits for that commit's outcome.
    std::shared_ptr<ExecState> one_phase_batch;
    /// The last-statement batch whose response waits for the branch's
    /// decentralized prepare: the next vote of this branch rides on it.
    std::shared_ptr<ExecState> held_response;
  };

  /// In-flight execution of one BranchExecuteRequest.
  struct ExecState {
    Xid xid;
    uint64_t round_seq = 0;
    std::vector<protocol::ClientOp> ops;
    size_t next_op = 0;
    std::vector<int64_t> values;
    bool last_statement = false;
    bool commit_one_phase = false;
    /// When the request reached the node; the response's residence
    /// counts from here.
    Micros arrived_at = 0;
    Micros started_at = 0;
    /// When the ops completed, if the response waits for a commit after
    /// them (0 otherwise): the footprint's local latency ends here.
    Micros finished_at = 0;
    NodeId reply_to = kInvalidNode;
    runtime::TimerId timeout_event = runtime::kInvalidTimer;
    obs::SpanHandle exec_span = obs::kInvalidSpan;
    /// exec_slots_ handle while the ops run; 0 before and once finished.
    uint64_t handle = 0;
    int64_t pending_value = 0;  ///< value of the op paying its row cost
    /// Coordinator of a commit decision that arrived while this
    /// commit-carrying batch ran; it is acked with the batch's outcome.
    NodeId decision_waiter = kInvalidNode;
  };
  /// One running batch. The per-op closures capture {this, handle}: 16
  /// trivially copyable bytes, which std::function stores inline, so an
  /// op's lock callback and row-cost timer allocate nothing (a captured
  /// shared_ptr would force a heap block each). A slot is freed when its
  /// batch finishes; a closure that outlives it sees a newer generation
  /// and does nothing.
  struct ExecSlot {
    std::shared_ptr<ExecState> state;
    uint32_t generation = 1;  ///< never 0, so no live handle is 0
  };

  friend class replication::Replicator;

  /// The durable prepare both prepare paths share: the prepare record
  /// joins the WAL device's open batch (span ds.prepare_fsync); at the
  /// shared fsync the engine prepares the branch and AfterLocalPrepare
  /// votes PREPARED. `on_refused` runs instead when the engine refuses.
  void PrepareDurably(const Xid& xid, NodeId coordinator,
                      std::function<void()> on_refused);
  /// Votes PREPARED to `coordinator`: with replication once the prepare
  /// entry reaches a quorum (span ds.quorum), without immediately. With
  /// replication, a prepare whose entry did not ship with the record votes
  /// FAILURE, whatever the node's role; one whose entry shipped on a node
  /// that no longer leads stays in doubt, for the group's log to decide.
  void AfterLocalPrepare(const Xid& xid, NodeId coordinator);
  /// On a group leader holding the branch of `xid`, appends the entry of
  /// the PREPARE or COMMIT record about to join the WAL, and returns its
  /// index as the record's tag; 0 (no entry) otherwise.
  uint64_t AppendRecordEntry(protocol::ReplEntryType type, const Xid& xid,
                             NodeId coordinator);
  /// Drops `txn` from branches_ once its branch is resolved here.
  void ForgetBranch(TxnId txn);
  /// Commits the branch of `xid` held here and does a commit's
  /// bookkeeping (NoteCommitted). The replicated log's apply of a commit
  /// entry for a branch this node still holds goes through here.
  Status CommitHeldBranch(const Xid& xid);
  /// True while an outbound migration needs committed write sets and this
  /// node runs its stream (a leader, or an unreplicated source).
  bool ForwardsCommittedWrites() const;
  /// A commit's bookkeeping once it is durable: counts it, and hands its
  /// write set to an active outbound migration as a delta.
  void NoteCommitted(const std::vector<std::pair<RecordKey, int64_t>>& writes);
  /// True while this replica's log holds `txn`'s commit entry: the branch
  /// is decided, and nothing here may roll it back.
  bool CommitLogged(TxnId txn) const;
  /// Replicator hook: this replica now follows another leader. Rolls back
  /// every branch held here that the group's log does not hold.
  void DropUnloggedBranches();
  /// Algorithm 1 AsyncPrepare: after the last statement of a branch with
  /// peers, one LAN hop to the engine, then a durable prepare whose
  /// refusal early-aborts the branch. A branch without peers never gets
  /// here: its IDLE vote rides on the execute response.
  void AsyncPrepare(const Xid& xid, std::vector<NodeId> peers,
                    NodeId coordinator);
  /// Algorithm 1 AsyncRollback: tombstones and rolls back the local branch,
  /// then (early abort) notifies `peers` directly, bypassing the DM.
  void AsyncRollback(const Xid& xid, const std::vector<NodeId>& peers);
  void OnPeerAbort(const protocol::PeerAbortRequest& req);
  /// Rolls back `txn`'s branch for a peer's early abort or the migration
  /// fence, and tombstones it against batches still in flight. A pending
  /// lock request is cancelled and the failing batch reports to the DM;
  /// otherwise a ROLLBACKED vote confirms the rollback. False if no branch
  /// of `txn` is here.
  bool AbortBranch(TxnId txn);
  void Tombstone(TxnId txn);
  /// Appends an abort entry if the branch had a replicated prepare entry
  /// (followers must unstage it). No-op otherwise.
  void NoteLocalRollback(TxnId txn);
  /// True if this replica must redirect coordinator traffic to the leader.
  bool RedirectIfNotLeader(NodeId requester);

  /// Opens span `name` under `txn`'s branch trace context; kInvalidSpan
  /// when tracing is off or the branch is gone or was never sampled.
  obs::SpanHandle BeginBranchSpan(TxnId txn, const char* name);
  void EndBranchSpan(obs::SpanHandle span);
  /// Votes to `to`: inside the branch's held execute response if it has
  /// one (the branch must still be in branches_), else as a VoteMessage.
  void SendVote(NodeId to, const Xid& xid, protocol::Vote vote);
  void SendDecisionAck(NodeId to, const Xid& xid, bool committed,
                       bool one_phase, Status status);
  /// Queues the ack of a committed lazy_ack decision for `dm`. The first
  /// ack of an empty queue arms its kAckDelayBound flush.
  void QueueCommitAck(NodeId dm, TxnId txn);
  /// Empties `dm`'s ack queue into a message about to leave for it.
  std::vector<TxnId> TakeQueuedAcks(NodeId dm);

  /// `arrived_at`: when the message reached this node (a parked message
  /// keeps its first arrival across the replay).
  void HandleMessage(std::unique_ptr<runtime::MessageBase> msg,
                     Micros arrived_at);
  /// Promotion barrier (see Replicator::ReadyToServe): true for message
  /// types that read or mutate transactional state and therefore must not
  /// run while a freshly promoted leader's store is behind its log.
  static bool ParkedDuringPromotion(runtime::MessageType type);
  /// Runs one batch; takes the request's ops (the message is spent).
  void OnExecute(protocol::BranchExecuteRequest& req, Micros arrived_at);
  /// Gives `state` a slot and a handle for the closures of its ops.
  void RegisterExec(const std::shared_ptr<ExecState>& state);
  /// The batch `handle` names, or nullptr once it finished.
  std::shared_ptr<ExecState> LiveExec(uint64_t handle) const;
  /// Frees the slot of a finishing batch (its handle becomes 0).
  void RetireExec(ExecState& state);
  void RunNextOp(const std::shared_ptr<ExecState>& state);
  void FinishExecSuccess(const std::shared_ptr<ExecState>& state);
  void FinishExecFailure(const std::shared_ptr<ExecState>& state,
                         Status status);
  void OnPrepare(const Xid& xid, NodeId coordinator);
  void OnDecision(const protocol::DecisionItem& item, NodeId coordinator);
  /// Answers a commit decision with its outcome: a successful lazy_ack
  /// commit joins the ack queue, anything else leaves as a DecisionAck.
  void AckCommit(const protocol::DecisionItem& item, NodeId coordinator,
                 Status status);
  /// Commits the branch (XA COMMIT, one- or two-phase): the COMMIT record
  /// joins the WAL device's open batch (span ds.commit_fsync). Without
  /// replication the engine commits as the record is appended, releasing
  /// the branch's locks (TransactionEngine::CommitEarly), and `done`, the
  /// commit's bookkeeping and ForgetBranch wait for the flush. With it, a
  /// leader logs the commit entry with the record, the entry ships as the
  /// record goes to the device, and the branch commits when the entry
  /// applies here: once it is on a quorum and the record is durable (span
  /// ds.commit_quorum, the wait left after the flush). `done` gets the
  /// outcome: NotFound at once, with no record, for a branch this node
  /// does not hold; OK when the entry applies here, whatever the node's
  /// role by then; Aborted for an un-prepared branch whose entry did not
  /// ship with the record. It never runs if the node crashes first, if the
  /// entry is cut, or for a prepared branch whose entry did not ship: the
  /// coordinator resolves those at the leader.
  void CommitBranch(const Xid& xid, std::function<void(Status)> done);
  void OnPing(const protocol::PingRequest& req);
  /// Fills the load and shard-epoch report that a pong and an execute
  /// response both carry.
  template <class M>
  void FillReport(M& msg);

  void SendExecuteResponse(const std::shared_ptr<ExecState>& state,
                           Status status, bool rolled_back,
                           bool committed = false,
                           protocol::Vote vote = protocol::Vote::kNone);
  /// Sends a held last-statement response (its batch's ops succeeded)
  /// with the branch's vote.
  void SendHeldResponse(std::shared_ptr<ExecState> held, protocol::Vote vote);

  NodeId id_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  /// Durable WAL device (simulated cost model or a real file).
  std::unique_ptr<runtime::IStableStorage> wal_device_;
  DataSourceConfig config_;
  storage::TransactionEngine engine_;
  storage::GroupCommitter committer_;
  std::unique_ptr<replication::Replicator> replicator_;
  std::unique_ptr<sharding::ShardMigrator> migrator_;
  DataSourceStats stats_;
  bool crashed_ = false;

  std::unordered_map<TxnId, BranchInfo> branches_;
  /// Early-aborted transactions -> when they were tombstoned, plus the
  /// same pairs in tombstoning order, which is expiry order: inserting
  /// prunes expired entries from the front. A decision or a re-tombstone
  /// leaves a stale pair behind, skipped when it reaches the front.
  std::unordered_map<TxnId, Micros> tombstones_;
  std::deque<std::pair<Micros, TxnId>> tombstone_order_;
  std::vector<ExecSlot> exec_slots_;
  std::vector<uint32_t> free_exec_slots_;
  /// Client-facing messages held while the replicator's promotion barrier
  /// is up; replayed in arrival order via OnReplicatorReady().
  struct ParkedMessage {
    Micros arrived_at = 0;
    std::unique_ptr<runtime::MessageBase> msg;
  };
  std::vector<ParkedMessage> parked_;
  /// Lazy commit acks per DM, oldest first, and the timer that sends them
  /// alone once the oldest has waited kAckDelayBound.
  struct AckQueue {
    std::vector<TxnId> txns;
    runtime::TimerId flush = runtime::kInvalidTimer;
  };
  std::unordered_map<NodeId, AckQueue> ack_queues_;
};

}  // namespace datasource
}  // namespace geotp

#endif  // GEOTP_DATASOURCE_DATA_SOURCE_H_
