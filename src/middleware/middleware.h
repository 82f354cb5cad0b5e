// MiddlewareNode: the database middleware (DM) actor.
//
// It implements the coordinator side of every XA-middleware variant the
// paper evaluates:
//
//   * SSP          — classic 2PC: prepare round + commit round (3 WAN RTTs
//                    per distributed transaction including execution);
//   * SSP(local)   — decentralized commit without atomicity guarantees
//                    (commit dispatched directly, no prepare);
//   * QURO         — SSP plus read-before-write reordering inside batches;
//   * Chiller      — decentralized prepare merged with execution plus
//                    inner-region-last scheduling;
//   * GeoTP        — decentralized prepare (O1), latency-aware scheduling
//                    (O2), forecast + late transaction scheduling (O3),
//                    early abort.
//
// One MiddlewareNode serves many concurrent interactive transactions from
// client terminals (closed loop, src/workload). The per-transaction state
// machine follows Algorithm 1; scheduling follows Algorithm 2.
#ifndef GEOTP_MIDDLEWARE_MIDDLEWARE_H_
#define GEOTP_MIDDLEWARE_MIDDLEWARE_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/geo_scheduler.h"
#include "core/hotspot_footprint.h"
#include "core/latency_monitor.h"
#include "metrics/stats.h"
#include "middleware/catalog.h"
#include "middleware/overload.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "protocol/messages.h"
#include "sharding/balancer.h"
#include "sim/network.h"
#include "storage/group_commit.h"

namespace geotp {
namespace datasource {
class DataSourceNode;
}  // namespace datasource

namespace middleware {

enum class CommitProtocol : uint8_t {
  kTwoPhase,         ///< DM-driven prepare + commit rounds (SSP)
  kDecentralized,    ///< geo-agent-driven prepare (GeoTP O1, Chiller)
  kLocalNoAtomicity, ///< direct commit, no prepare (SSP "local" mode)
};

const char* CommitProtocolName(CommitProtocol protocol);

struct MiddlewareConfig {
  std::string name = "dm";
  CommitProtocol commit_protocol = CommitProtocol::kTwoPhase;
  core::SchedulerConfig scheduler;
  /// QURO preprocessing: reorder each batch reads-first/writes-last.
  bool quro_reorder = false;
  /// Early abort via geo-agents (the agents do the peer notification; the
  /// DM additionally dispatches aborts so no participant is orphaned).
  bool early_abort = false;
  /// Per-round DM work: parse/rewrite/route/schedule (Fig. 6c "analysis").
  Micros analysis_cost = 300;
  /// Commit/abort decision log fsync at the DM (Algorithm 1 FlushLog).
  Micros log_flush_cost = 500;
  /// Group-commit policy of the decision log: concurrent FlushLog calls
  /// share one flush (the same abstraction the data sources use).
  storage::GroupCommitConfig log_group_commit;
  /// Serve all-read batches of final-round branches from replication
  /// followers (stale-bounded; falls back to the leader on rejection).
  bool follower_reads = false;
  /// Staleness bound attached to follower reads.
  Micros follower_read_stale_bound = MsToMicros(100);
  /// A follower read unanswered for this long falls back to the leader
  /// (the follower may have crashed).
  Micros follower_read_timeout = MsToMicros(800);
  /// After a leader failover, branches whose prepare vote does not
  /// resurface within this grace period are aborted (their prepare never
  /// reached a quorum and died with the old leader).
  Micros failover_vote_grace = MsToMicros(500);
  core::LatencyMonitorConfig monitor;
  core::FootprintConfig footprint;
  /// Elastic sharding: hotspot-driven rebalancing (enable on ONE DM of a
  /// deployment; every DM handles map updates and redirects regardless).
  sharding::BalancerConfig balancer;
  /// Overload control: in-flight budget, per-tenant fair shares, shed
  /// decisions. Disabled by default (max_inflight = 0) so paper-fidelity
  /// configurations admit everything, exactly as before.
  OverloadConfig overload;

  // ----- paper system presets ---------------------------------------------
  static MiddlewareConfig SSP();
  static MiddlewareConfig SSPLocal();
  static MiddlewareConfig Quro();
  static MiddlewareConfig Chiller();
  static MiddlewareConfig GeoTPO1();    ///< decentralized prepare only
  static MiddlewareConfig GeoTPO1O2();  ///< + latency-aware scheduling
  static MiddlewareConfig GeoTP();      ///< + forecast & late scheduling (O1~O3)
};

/// Completion record handed to the workload driver for accounting.
struct TxnOutcome {
  TxnId txn_id = kInvalidTxn;
  bool committed = false;
  bool distributed = false;
  Status status;
  Micros latency = 0;  ///< DM-side: first round arrival to final result
  int admission_retries = 0;
};

struct MiddlewareStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t admission_blocks = 0;
  uint64_t admission_aborts = 0;
  uint64_t prepare_requests_sent = 0;
  uint64_t decisions_sent = 0;
  uint64_t follower_reads = 0;           ///< batches served by followers
  uint64_t follower_read_fallbacks = 0;  ///< stale/timed-out, re-ran at leader
  uint64_t failovers_observed = 0;       ///< leadership changes adopted
  uint64_t branch_retries = 0;           ///< in-flight batches re-dispatched
  uint64_t presumed_aborts = 0;          ///< orphan votes resolved from log
  // Group commit / coalescing observability (fsync amortization).
  uint64_t log_flushes = 0;          ///< decision-log fsyncs performed
  uint64_t log_entries_flushed = 0;  ///< decisions made durable
  uint64_t prepare_batches_sent = 0;   ///< multi-prepare envelopes
  uint64_t decision_batches_sent = 0;  ///< multi-decision envelopes
  uint64_t dispatches_coalesced = 0;   ///< messages saved by batching
  // Elastic sharding (src/sharding).
  uint64_t shard_map_epoch = 0;     ///< highest adopted shard-map epoch
  uint64_t shard_redirects = 0;     ///< WrongShardEpoch bounces received
  uint64_t shard_reroutes = 0;      ///< bounced batches re-routed in place
  uint64_t shard_map_pulls = 0;     ///< maps adopted from ping anti-entropy
  uint64_t shard_map_pushes = 0;    ///< maps pushed to behind data sources
  uint64_t committed_distributed = 0;  ///< commits with >1 begun participant
  GEOTP_STAT_FIELDS(committed, aborted, admission_blocks, admission_aborts,
                    prepare_requests_sent, decisions_sent, follower_reads,
                    follower_read_fallbacks, failovers_observed,
                    branch_retries, presumed_aborts, log_flushes,
                    log_entries_flushed, prepare_batches_sent,
                    decision_batches_sent, dispatches_coalesced,
                    HighWater(shard_map_epoch), shard_redirects,
                    shard_reroutes, shard_map_pulls, shard_map_pushes,
                    committed_distributed)
};

/// Durable commit/abort decision log (survives DM crashes).
struct DecisionLogEntry {
  TxnId txn_id;
  bool commit;
};

class MiddlewareNode {
 public:
  /// The DM runs on whatever backend `env` belongs to (sim event loop or
  /// a loopback actor thread).
  MiddlewareNode(runtime::ActorEnv env, uint32_t ordinal, Catalog catalog,
                 MiddlewareConfig config);
  ~MiddlewareNode();

  /// Registers with the network and starts the latency monitor.
  void Attach();

  NodeId id() const { return id_; }
  bool crashed() const { return crashed_; }
  const MiddlewareConfig& config() const { return config_; }
  const MiddlewareStats& stats() const { return stats_; }
  /// Per-phase latency of finished transactions (the Fig. 6c breakdown).
  const metrics::PhaseBreakdown& breakdown() const { return breakdown_; }
  core::LatencyMonitor& monitor() { return *monitor_; }
  core::HotspotFootprint& footprint() { return *footprint_; }
  Catalog& catalog() { return catalog_; }
  runtime::ITransport* network() { return network_; }
  /// The balancer, when this DM runs one (nullptr otherwise).
  sharding::ShardBalancer* balancer() { return balancer_.get(); }
  /// Records an adopted/published shard-map epoch in the stats.
  void NoteShardEpoch(uint64_t epoch) {
    stats_.shard_map_epoch = std::max(stats_.shard_map_epoch, epoch);
  }
  const std::vector<DecisionLogEntry>& decision_log() const { return log_; }
  const storage::GroupCommitter& log_committer() const {
    return log_committer_;
  }
  runtime::ITimer* loop() { return timer_; }

  /// Number of transactions currently coordinated (in any phase).
  size_t InFlight() const { return txns_.size(); }

  /// Overload-control state (budget occupancy, shed counters).
  const AdmissionController& admission() const { return admission_; }

  /// Registers this DM's stats, its subsystems' stats and its live-state
  /// gauges on `registry` (nullptr: no-op). The gauges borrow this node:
  /// snapshot the registry before the node is destroyed.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Crash simulation: in-memory transaction state is lost; the decision
  /// log survives. Clients receive no further messages.
  void Crash();

  /// Restart + §V-A recovery: queries the data sources for in-doubt
  /// (prepared) branches of this DM; commits those with a logged commit
  /// decision, aborts the rest, and asks sources to abort non-prepared
  /// branches (common setting ❶).
  void Restart(const std::vector<datasource::DataSourceNode*>& sources);

 private:
  struct Participant {
    bool begun = false;
    bool exec_outstanding = false;
    bool footprint_charged = false;  ///< a_cnt++ done, awaiting release
    bool has_vote = false;
    protocol::Vote vote = protocol::Vote::kPrepared;
    bool rollback_confirmed = false;
    bool decision_acked = false;
    std::vector<RecordKey> round_keys;
    std::vector<size_t> op_slots;  ///< positions in the client round
    // Replication support.
    bool via_follower = false;    ///< current batch is a follower read
    uint64_t begun_round = 0;     ///< round in which the branch began
    std::vector<protocol::ClientOp> last_batch;  ///< for failover retry
  };

  enum class Phase : uint8_t {
    kExecuting,
    kWaitCommitVotes,
    kCommitDispatched,
    kAborting,
  };

  struct Txn {
    TxnId id = kInvalidTxn;
    uint64_t client_tag = 0;
    uint32_t tenant = 0;  ///< admission accounting; released at FinishTxn
    NodeId client = kInvalidNode;
    Phase phase = Phase::kExecuting;
    std::map<NodeId, Participant> participants;
    uint64_t round_seq = 0;
    size_t round_outstanding = 0;
    std::vector<int64_t> round_values;
    bool last_round = false;
    bool commit_requested = false;
    bool aborting = false;
    /// Whether the dispatched commit was one-phase (failover retries must
    /// re-send the same flavour; the commit/abort direction is the phase).
    bool decision_one_phase = false;
    Status abort_status;
    int admission_attempts = 0;
    // Pending round kept for admission retries.
    std::vector<protocol::ClientOp> pending_ops;
    // Timestamps for the Fig. 6c breakdown.
    Micros ts_begin = 0;
    Micros ts_exec_done = 0;
    Micros ts_commit_req = 0;
    Micros ts_votes = 0;
    Micros ts_decision = 0;
    Micros analysis_total = 0;
    // Distributed tracing: invalid unless the transaction was sampled at
    // admission. `trace` is the context stamped onto outbound envelopes
    // (trace_id + the root span as parent); the handles are the DM-side
    // spans still open.
    obs::TraceContext trace;
    obs::SpanHandle root_span = obs::kInvalidSpan;
    obs::SpanHandle analysis_span = obs::kInvalidSpan;
    obs::SpanHandle prepare_span = obs::kInvalidSpan;
    obs::SpanHandle fsync_span = obs::kInvalidSpan;
    obs::SpanHandle commit_span = obs::kInvalidSpan;
  };

  void HandleMessage(std::unique_ptr<runtime::MessageBase> msg);
  void OnClientRound(const protocol::ClientRoundRequest& req);
  void PlanAndDispatchRound(TxnId id);
  void OnExecResponse(const protocol::BranchExecuteResponse& resp);
  void OnVote(const protocol::VoteMessage& vote);
  void OnClientFinish(const protocol::ClientFinishRequest& req);
  void OnDecisionAck(const protocol::DecisionAck& ack);

  // ----- replication support ----------------------------------------------
  /// Sends one batch of a branch to the current leader of `logical`.
  void SendBranchBatch(Txn& txn, NodeId logical,
                       std::vector<protocol::ClientOp> ops,
                       uint64_t round_seq);
  /// Dispatches an all-read final-round batch to a follower. Returns false
  /// if no follower is usable (caller executes at the leader).
  bool TryFollowerRead(Txn& txn, NodeId logical,
                       const std::vector<protocol::ClientOp>& ops,
                       uint64_t round_seq);
  void OnFollowerReadResponse(const protocol::FollowerReadResponse& resp);
  void FallBackToLeader(Txn& txn, NodeId logical);
  void OnLeaderAnnounce(const protocol::LeaderAnnounce& announce);
  void OnNotLeader(const protocol::NotLeaderResponse& redirect);

  // ----- elastic sharding (src/sharding) ----------------------------------
  /// Adopts a published shard map (atomic within this actor: the next
  /// planned round routes under the new epoch).
  void OnShardMapUpdate(const protocol::ShardMapUpdate& update);
  /// Ping-piggybacked anti-entropy: adopts a map a data source handed back
  /// (this DM was behind) and pushes the map to a responder whose epoch
  /// trails the catalog's (the source was behind).
  void OnPingResponse(const protocol::PingResponse& pong);
  /// WrongShardEpoch bounce: adopts the patched range, then re-routes the
  /// bounced batch under the new placement — or aborts the transaction
  /// when its branch already executed earlier rounds at the old owner.
  void OnShardRedirect(const protocol::ShardRedirect& redirect);
  /// Re-drives every in-flight transaction touching `logical` after its
  /// leadership changed: retries first-round batches and undecided
  /// decisions, aborts what cannot be replayed safely.
  void HandleFailover(NodeId logical);
  /// Resolves an orphaned PREPARED vote (unknown txn) from the decision
  /// log: presumed abort unless a commit decision was logged.
  void ResolveOrphanVote(const protocol::VoteMessage& vote);

  void MaybeCompleteRound(Txn& txn);
  void StartCommit(Txn& txn);
  void CheckVotesComplete(Txn& txn);
  void FlushLogAndDispatch(Txn& txn, bool commit);
  void DispatchDecision(Txn& txn, bool commit, bool one_phase);
  void StartAbort(Txn& txn, Status status);
  void CheckAbortDone(Txn& txn);
  void FinishTxn(Txn& txn, bool committed);

  // ----- coalesced dispatch -----------------------------------------------
  /// Queue a prepare/decision for `dest`; everything queued within one
  /// event-loop tick leaves as one PrepareBatch/DecisionBatch per
  /// destination (group commit releases many decisions at once).
  void QueuePrepare(NodeId dest, const Xid& xid);
  void QueueDecision(NodeId dest, const Xid& xid, bool commit,
                     bool one_phase);
  void ScheduleDispatchFlush();
  void FlushDispatchQueues();

  // ----- overload control ---------------------------------------------------
  /// Deepest per-destination dispatch queue (prepares + decisions for one
  /// data source) — the DM-local backpressure input to admission.
  size_t MaxDispatchDepth() const;
  /// Sheds a new client transaction with an Overloaded reply.
  void ShedClientRound(const protocol::ClientRoundRequest& req);

  // ----- tracing ----------------------------------------------------------
  /// Opens the "dm.prepare_wait" span (no-op when the transaction is
  /// unsampled or the span is already open).
  void BeginPrepareSpan(Txn& txn);
  /// Closes every DM-side span the transaction still holds open.
  void CloseTxnSpans(Txn& txn, Micros now);

  Txn* FindTxn(TxnId id);
  std::vector<NodeId> ParticipantIds(const Txn& txn) const;

  NodeId id_;
  uint32_t ordinal_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  /// Durable decision-log device (simulated cost model or a real file).
  std::unique_ptr<runtime::IStableStorage> log_device_;
  Catalog catalog_;
  MiddlewareConfig config_;
  std::unique_ptr<core::HotspotFootprint> footprint_;
  std::unique_ptr<core::LatencyMonitor> monitor_;
  std::unique_ptr<core::GeoScheduler> scheduler_;
  std::unique_ptr<sharding::ShardBalancer> balancer_;
  Rng rng_;
  /// Dedicated stream for trace-sampling decisions so enabling tracing
  /// never perturbs `rng_` (scheduling/jitter draws stay identical).
  Rng trace_rng_;
  MiddlewareStats stats_;
  metrics::PhaseBreakdown breakdown_;
  AdmissionController admission_;
  std::vector<DecisionLogEntry> log_;  // durable
  /// Group committer of the decision log: concurrent FlushLog calls share
  /// one `log_flush_cost` flush; a DM crash loses the open batch (those
  /// decisions were never durable, so presumed abort applies).
  storage::GroupCommitter log_committer_;
  uint64_t next_seq_ = 1;
  bool crashed_ = false;
  std::unordered_map<TxnId, Txn> txns_;

  // Same-tick dispatch coalescing (one envelope per destination).
  struct DispatchQueue {
    std::vector<Xid> prepares;
    std::vector<protocol::DecisionItem> decisions;
    size_t depth() const { return prepares.size() + decisions.size(); }
  };
  std::map<NodeId, DispatchQueue> dispatch_queues_;
  bool dispatch_flush_scheduled_ = false;
  /// Last shard-map anti-entropy push per behind node (pushes are spaced
  /// by about one RTT; see OnPingResponse).
  std::map<NodeId, Micros> shard_push_at_;
};

}  // namespace middleware
}  // namespace geotp

#endif  // GEOTP_MIDDLEWARE_MIDDLEWARE_H_
