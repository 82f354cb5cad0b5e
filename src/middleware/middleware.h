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

#include "common/flat_map.h"
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

struct MiddlewareConfig {
  std::string name = "dm";
  CommitProtocol commit_protocol = CommitProtocol::kTwoPhase;
  core::SchedulerConfig scheduler;
  /// QURO preprocessing: reorder each batch reads-first/writes-last.
  bool quro_reorder = false;
  /// Early abort: a failed branch's data source notifies its peers
  /// directly. The DM never reads this; workload::Build copies it into
  /// every DataSourceConfig of the deployment.
  bool early_abort = false;
  /// Serve all-read batches of final-round branches from replication
  /// followers (stale-bounded; falls back to the leader on rejection).
  bool follower_reads = false;
  /// Staleness bound attached to follower reads.
  Micros follower_read_stale_bound = MsToMicros(100);
  /// A follower read unanswered for this long falls back to the leader
  /// (the follower may have crashed).
  Micros follower_read_timeout = MsToMicros(800);
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
  /// Commits the data source made as the last batch ended (the batch
  /// carried the client's COMMIT): no decision round, no log entry.
  uint64_t exec_commits = 0;
  GEOTP_STAT_FIELDS(committed, aborted, admission_blocks, admission_aborts,
                    prepare_requests_sent, decisions_sent, follower_reads,
                    follower_read_fallbacks, failovers_observed,
                    branch_retries, presumed_aborts, log_flushes,
                    log_entries_flushed, prepare_batches_sent,
                    decision_batches_sent, dispatches_coalesced,
                    HighWater(shard_map_epoch), shard_redirects,
                    shard_reroutes, shard_map_pulls, shard_map_pushes,
                    committed_distributed, exec_commits)
};

/// Durable commit/abort decision log (survives DM crashes): the last
/// flushed decision of each transaction, true for commit.
using DecisionLog = common::FlatMap<TxnId, bool, TxnIdHash>;

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
  runtime::ITransport* transport() { return network_; }
  /// The balancer, when this DM runs one (nullptr otherwise).
  sharding::ShardBalancer* balancer() { return balancer_.get(); }
  /// Records an adopted/published shard-map epoch in the stats.
  void NoteShardEpoch(uint64_t epoch) {
    stats_.shard_map_epoch = std::max(stats_.shard_map_epoch, epoch);
  }
  const DecisionLog& decision_log() const { return log_; }
  runtime::ITimer* timer() { return timer_; }

  /// Number of transactions currently coordinated (in any phase, including
  /// answered commits still waiting for their commit acks).
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
    bool has_vote = false;
    protocol::Vote vote = protocol::Vote::kPrepared;
    bool rollback_confirmed = false;
    bool decision_acked = false;
    /// The outstanding batch is a last statement sent with peers: the
    /// source holds its response until the decentralized prepare resolves,
    /// and the response carries the vote.
    bool vote_on_response = false;
    /// The outstanding batch carries the commit (commit_one_phase): the
    /// source commits as it ends, so the batch is never replayed.
    bool commit_one_phase = false;
    /// The replica the outstanding batch went to (the leader then), and
    /// when it left (after any postponement): the response's round trip
    /// less its residence at the source is an RTT sample.
    NodeId sent_to = kInvalidNode;
    Micros sent_at = 0;
    std::vector<RecordKey> round_keys;
    std::vector<size_t> op_slots;  ///< positions in the client round
    /// The footprint records the outstanding batch charged (a_cnt++) as
    /// it left; settled in OnExecResponse, or released when the batch is
    /// re-routed or the transaction settles first. Empty when uncharged.
    core::FootprintCharge charge;
    // Replication support.
    bool via_follower = false;    ///< current batch is a follower read
    uint64_t begun_round = 0;     ///< round in which the branch began
    /// The round's batch while it waits out its postponement; it becomes
    /// `last_batch` as it leaves.
    std::vector<protocol::ClientOp> next_batch;
    std::vector<protocol::ClientOp> last_batch;  ///< for failover retry

    /// A fresh participant that keeps this one's buffers (emptied); the
    /// charge must be settled.
    void Reset();
  };
  using Participants = std::map<NodeId, Participant>;

  enum class Phase : uint8_t {
    kExecuting,
    kWaitCommitVotes,
    kCommitDispatched,
    kAborting,
  };

  struct Txn {
    TxnId id = kInvalidTxn;
    uint64_t client_tag = 0;
    uint32_t tenant = 0;  ///< admission accounting; released at the answer
    NodeId client = kInvalidNode;
    Phase phase = Phase::kExecuting;
    Participants participants;
    uint64_t round_seq = 0;
    size_t round_outstanding = 0;
    std::vector<int64_t> round_values;
    bool last_round = false;
    /// The client's COMMIT rode on the last round: the transaction commits
    /// when the round completes, and its result carries the round's reads.
    bool commit_on_round = false;
    bool aborting = false;
    /// The client has its result; the transaction only settles (a GeoTP
    /// commit waits for its lazy commit acks after the answer).
    bool answered = false;
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
  /// Takes the round's ops (the message is spent).
  void OnClientRound(protocol::ClientRoundRequest& req);
  void PlanAndDispatchRound(TxnId id);
  /// Sends a planned batch whose postponement is over (the closure's
  /// ticket names the entry of postponed_).
  void DispatchPostponed(uint32_t ticket);
  void OnExecResponse(const protocol::BranchExecuteResponse& resp);
  /// Places a participant's reads into their round slots. A round whose
  /// reads were given up (an in-doubt branch after a failover) has no
  /// slots left to fill.
  static void PlaceReads(Txn& txn, const Participant& p,
                         const std::vector<int64_t>& values);
  /// The one vote handler: a VoteMessage's vote and a vote carried in an
  /// execute response both land here.
  void OnVote(NodeId from, const Xid& xid, protocol::Vote vote);
  void OnClientFinish(const protocol::ClientFinishRequest& req);
  void OnDecisionAck(NodeId from, TxnId txn_id, bool committed,
                     bool one_phase);
  /// Settles the lazy commit acks that rode on a message from `from`.
  void OnLazyAcks(NodeId from, const std::vector<TxnId>& txns);

  // ----- replication support ----------------------------------------------
  /// Sends the participant's `last_batch` to the current leader of
  /// `logical`.
  void SendBranchBatch(Txn& txn, NodeId logical, uint64_t round_seq);
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
  /// A pong: its RTT sample, its report, its acks, and the map a data
  /// source handed back because this DM was behind (adopted here).
  void OnPingResponse(const protocol::PingResponse& pong);
  /// The report every pong and execute response carries: feeds the load
  /// estimate and the monitor's epoch check, and pushes the map to a
  /// source whose epoch trails the catalog's (the source was behind).
  void OnSourceReport(NodeId from, uint64_t inflight, uint64_t shard_epoch);
  /// WrongShardEpoch bounce: adopts the patched range, then re-routes the
  /// bounced batch under the new placement — or aborts the transaction
  /// when its branch already executed earlier rounds at the old owner.
  void OnShardRedirect(const protocol::ShardRedirect& redirect);
  /// Re-drives every in-flight transaction touching `logical` after its
  /// leadership changed: retries first-round batches and undecided
  /// decisions, aborts what cannot be replayed safely.
  void HandleFailover(NodeId logical);
  /// After a failover of `logical`: aborts `txn_id` unless its branch
  /// there has voted within the grace period (a prepare that never
  /// reached a quorum died with the old leader; a staged one re-votes).
  void ArmFailoverVoteGrace(TxnId txn_id, NodeId logical);
  /// Resolves an orphaned PREPARED vote (unknown txn) from the decision
  /// log: presumed abort unless a commit decision was logged.
  void ResolveOrphanVote(NodeId from, const Xid& xid);

  void MaybeCompleteRound(Txn& txn);
  void StartCommit(Txn& txn);
  void CheckVotesComplete(Txn& txn);
  void FlushLogAndDispatch(Txn& txn, bool commit);
  void DispatchDecision(Txn& txn, bool commit, bool one_phase);
  void StartAbort(Txn& txn, Status status);
  void CheckAbortDone(Txn& txn);
  /// Settles the transaction: answers the client unless that was done,
  /// records the commit phase, and forgets the transaction.
  void FinishTxn(Txn& txn, bool committed);
  /// Sends the client its result and does the outcome's accounting. The
  /// dm.txn span ends here; dm.commit stays open until FinishTxn.
  void AnswerClient(Txn& txn, bool committed);

  // ----- coalesced dispatch -----------------------------------------------
  /// Queue a prepare/decision for `dest`; everything queued within one
  /// event-loop tick leaves as one PrepareBatch/DecisionBatch per
  /// destination (group commit releases many decisions at once).
  void QueuePrepare(NodeId dest, const Xid& xid);
  /// `lazy_ack`: the client already has its answer (DecisionItem).
  void QueueDecision(NodeId dest, const Xid& xid, bool commit,
                     bool one_phase, bool lazy_ack = false);
  void ScheduleDispatchFlush();
  void FlushDispatchQueues();

  // ----- overload control ---------------------------------------------------
  /// Deepest per-destination dispatch queue (prepares + decisions for one
  /// data source), exported as the `dispatch_depth` gauge.
  size_t MaxDispatchDepth() const;
  /// Sheds a new client transaction with an Overloaded reply.
  void ShedClientRound(const protocol::ClientRoundRequest& req);

  // ----- tracing ----------------------------------------------------------
  /// Opens the "dm.prepare_wait" span (no-op when the transaction is
  /// unsampled or the span is already open).
  void BeginPrepareSpan(Txn& txn);

  Txn* FindTxn(TxnId id);
  /// A new transaction's entry, reusing a retired one when there is one.
  Txn& AddTxn(TxnId id);
  /// Forgets a settled transaction, keeping its entry and its
  /// participants' map nodes, with their buffers, for later reuse.
  void RetireTxn(Txn& txn);
  /// `node`'s participant in `txn`, added (from a retired map node when
  /// there is one) if absent.
  Participant& JoinParticipant(Txn& txn, NodeId node);
  /// Participants whose branch began at a source. A participant served by
  /// a follower read sits in the map with no branch; it neither votes nor
  /// gets a decision.
  static size_t BegunBranches(const Txn& txn);

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
  DecisionLog log_;  // durable; survives DM crashes
  /// Group committer of the decision log: concurrent FlushLog calls share
  /// one `kLogFlushCost` flush (the same abstraction the data sources
  /// use); a DM crash loses the open batch (those decisions were never
  /// durable, so presumed abort applies).
  storage::GroupCommitter log_committer_;
  uint64_t next_seq_ = 1;
  bool crashed_ = false;
  using Txns = std::unordered_map<TxnId, Txn>;
  Txns txns_;
  /// Retired entries, reset, for AddTxn and JoinParticipant to reuse (at
  /// most kSpareTxns and kSpareParticipants): a settled transaction's map
  /// nodes and buffers serve the next one.
  std::vector<Txns::node_type> spare_txns_;
  std::vector<Participants::node_type> spare_participants_;
  /// PlanAndDispatchRound's scratch, kept for its capacity: the round's
  /// (data source, op position) pairs, sorted into per-source groups; one
  /// plan input per group (inputs a smaller round drops wait in
  /// spare_inputs_ with their key buffers); the scheduler's decision.
  std::vector<std::pair<NodeId, size_t>> round_routes_;
  std::vector<core::ParticipantPlanInput> round_inputs_;
  std::vector<core::ParticipantPlanInput> spare_inputs_;
  core::ScheduleDecision round_decision_;
  /// Batches waiting out their postponement. The timer's closure holds
  /// only a ticket (an index here), so it fits std::function's inline
  /// buffer; a fired ticket goes back to free_tickets_.
  struct PostponedDispatch {
    TxnId txn = kInvalidTxn;
    NodeId target = kInvalidNode;
    uint64_t round_seq = 0;
  };
  std::vector<PostponedDispatch> postponed_;
  std::vector<uint32_t> free_tickets_;

  // Same-tick dispatch coalescing (one envelope per destination).
  struct DispatchQueue {
    std::vector<Xid> prepares;
    std::vector<protocol::DecisionItem> decisions;
    size_t depth() const { return prepares.size() + decisions.size(); }
  };
  std::map<NodeId, DispatchQueue> dispatch_queues_;
  bool dispatch_flush_scheduled_ = false;
  /// Last shard-map anti-entropy push per behind node (pushes are spaced
  /// by about one RTT; see OnSourceReport).
  std::map<NodeId, Micros> shard_push_at_;
};

}  // namespace middleware
}  // namespace geotp

#endif  // GEOTP_MIDDLEWARE_MIDDLEWARE_H_
