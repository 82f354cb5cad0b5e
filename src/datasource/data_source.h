// DataSourceNode: one geo-distributed data source — an XA-capable engine
// (MySQL- or PostgreSQL-flavoured) fronted by a GeoTP geo-agent.
//
// The node is an actor on the simulated network. It owns:
//   * a storage::TransactionEngine (strict 2PL + XA state machine),
//   * the cost model (per-op execution time, fsync time, agent LAN hop),
//   * the geo-agent, which implements the paper's two data-source-side
//     mechanisms: decentralized prepare (§IV-A) and early abort (§IV-A).
//
// Batches of operations within one BranchExecuteRequest run sequentially
// (charging engine costs on the event loop); lock waits park the batch and
// a 5 s lock-wait timeout aborts the branch, mirroring
// innodb_lock_wait_timeout.
#ifndef GEOTP_DATASOURCE_DATA_SOURCE_H_
#define GEOTP_DATASOURCE_DATA_SOURCE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "datasource/geo_agent.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "protocol/messages.h"
#include "replication/replicator.h"
#include "runtime/runtime.h"
#include "sharding/migrator.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "storage/group_commit.h"

namespace geotp {
namespace datasource {

struct DataSourceConfig {
  storage::EngineConfig engine;
  /// Geo-agent <-> database LAN round trip (the decentralized prepare costs
  /// one of these instead of a WAN round trip; paper §IV-A).
  Micros agent_lan_rtt = 300;
  /// Early abort (geo-agent notifies peers directly). Usually set from the
  /// middleware's mode; kept here because the behaviour is agent-side.
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
  /// WAN frugality: compress the log-shipping batches and migration/
  /// bootstrap snapshot chunks this node sends (common/compress.h). A
  /// sender-side knob: receivers decode compressed and plain frames alike,
  /// whatever their own setting.
  bool wan_compression = true;
  /// Overload control: bound on the engine run queue (live branches,
  /// including parked lock waiters). A NEW branch (begin_branch batch)
  /// arriving at a full queue is refused retryably; batches of branches
  /// already begun here always run — admitted work must finish. The
  /// current depth and this bound ride on every pong as the saturation
  /// signal the DM's admission controller sheds on. 0 = unbounded.
  uint64_t max_run_queue = 0;

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
  uint64_t decentralized_prepares = 0;
  uint64_t explicit_prepares = 0;
  uint64_t early_aborts_sent = 0;
  uint64_t early_aborts_received = 0;
  uint64_t commits = 0;
  uint64_t rollbacks = 0;
  // Elastic sharding (src/sharding).
  uint64_t shard_fenced_rejections = 0;  ///< batches refused mid-migration
  uint64_t shard_redirects_sent = 0;     ///< stale-epoch bounces
  // Capacity signal / shard-map anti-entropy (piggybacked on pings).
  uint64_t peak_inflight = 0;       ///< max branches in flight ever reported
  uint64_t shard_map_serves = 0;    ///< pongs that carried the map to a behind DM
  // Overload control.
  uint64_t run_queue_rejections = 0;  ///< new branches refused at a full queue
  GEOTP_STAT_FIELDS(batches_executed, ops_executed, lock_timeouts,
                    decentralized_prepares, explicit_prepares,
                    early_aborts_sent, early_aborts_received, commits,
                    rollbacks, shard_fenced_rejections, shard_redirects_sent,
                    HighWater(peak_inflight), shard_map_serves,
                    run_queue_rejections)
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
  GeoAgent& agent() { return *agent_; }
  /// Elastic sharding: live migration + stale-epoch redirects.
  sharding::ShardMigrator& migrator() { return *migrator_; }
  const DataSourceStats& stats() const { return stats_; }
  runtime::ITimer* loop() { return timer_; }
  runtime::ITransport* network() { return network_; }

  /// Crash simulation: partitions the node, rolls back non-prepared
  /// branches (paper §V-A setting ❷). Restart() reconnects it.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  /// True if this node currently executes/holds the branch of `txn`.
  bool HasBranch(TxnId txn) const { return branches_.count(txn) > 0; }

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
  /// journal, which is what lets a freshly promoted destination leader
  /// decline already-held chunks when the source re-offers the stream.
  void OnIngestApplied(uint64_t migration_id, uint64_t chunk_seq,
                       uint64_t delta_seq, uint64_t content_hash);

 private:
  friend class GeoAgent;
  friend class sharding::ShardMigrator;

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
  };

  /// In-flight execution of one BranchExecuteRequest.
  struct ExecState {
    Xid xid;
    uint64_t round_seq = 0;
    std::vector<protocol::ClientOp> ops;
    size_t next_op = 0;
    std::vector<int64_t> values;
    bool last_statement = false;
    Micros started_at = 0;
    NodeId reply_to = kInvalidNode;
    sim::EventId timeout_event = sim::kInvalidEvent;
    obs::SpanHandle exec_span = obs::kInvalidSpan;
    /// exec_slots_ handle while the ops run; 0 before and once finished.
    uint64_t handle = 0;
    int64_t pending_value = 0;  ///< value of the op paying its row cost
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

  /// Reports prepare durability: with replication, the vote is delivered
  /// once the prepare entry reaches a quorum; without, immediately.
  void AfterLocalPrepare(const Xid& xid, NodeId coordinator,
                         std::function<void()> deliver_vote);
  /// Appends an abort entry if the branch had a replicated prepare entry
  /// (followers must unstage it). No-op otherwise.
  void NoteLocalRollback(TxnId txn);
  /// True if this replica must redirect coordinator traffic to the leader.
  bool RedirectIfNotLeader(NodeId requester);
  /// Migration fence: rolls back an active branch and confirms to its
  /// coordinator (the client retries; post-cutover the retry routes to the
  /// shard's new owner). Mirrors the peer-abort path.
  void AbortBranchForMigration(TxnId txn);

  /// The stored trace context of `txn`'s branch (invalid when the branch
  /// is gone or was never sampled).
  obs::TraceContext BranchTrace(TxnId txn) const;

  void HandleMessage(std::unique_ptr<runtime::MessageBase> msg);
  /// Promotion barrier (see Replicator::ReadyToServe): true for message
  /// types that read or mutate transactional state and therefore must not
  /// run while a freshly promoted leader's store is behind its log.
  static bool ParkedDuringPromotion(runtime::MessageType type);
  void OnExecute(const protocol::BranchExecuteRequest& req);
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
  void OnPing(const protocol::PingRequest& req);

  void SendExecuteResponse(const std::shared_ptr<ExecState>& state,
                           Status status, bool rolled_back);

  NodeId id_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  /// Durable WAL device (simulated cost model or a real file).
  std::unique_ptr<runtime::IStableStorage> wal_device_;
  DataSourceConfig config_;
  storage::TransactionEngine engine_;
  storage::GroupCommitter committer_;
  std::unique_ptr<GeoAgent> agent_;
  std::unique_ptr<replication::Replicator> replicator_;
  std::unique_ptr<sharding::ShardMigrator> migrator_;
  DataSourceStats stats_;
  bool crashed_ = false;

  std::unordered_map<TxnId, BranchInfo> branches_;
  std::vector<ExecSlot> exec_slots_;
  std::vector<uint32_t> free_exec_slots_;
  /// Client-facing messages held while the replicator's promotion barrier
  /// is up; replayed in arrival order via OnReplicatorReady().
  std::vector<std::unique_ptr<runtime::MessageBase>> parked_;
};

}  // namespace datasource
}  // namespace geotp

#endif  // GEOTP_DATASOURCE_DATA_SOURCE_H_
