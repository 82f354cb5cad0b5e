// Wire messages exchanged between clients, middlewares, geo-agents and
// data sources. Each derives from runtime::Message<Self>, which supplies
// its tag from the message list in runtime/message.h and its exact wire
// size from its GEOTP_WIRE_FIELDS list.
//
// Naming follows the paper's Algorithm 1: data sources answer the implicit
// prepare with votes (PREPARED / FAILURE / IDLE / ROLLBACK_ONLY /
// ROLLBACKED); the DM dispatches a Decision (commit or abort).
#ifndef GEOTP_PROTOCOL_MESSAGES_H_
#define GEOTP_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/message.h"
#include "sharding/shard_map.h"

namespace geotp {
namespace protocol {

/// One record operation as submitted by a client (the workload generators
/// in src/workload produce these; the DM routes each by its key).
struct ClientOp {
  RecordKey key;
  bool is_write = false;
  int64_t value = 0;     ///< write literal or delta
  bool is_delta = false; ///< UPDATE ... SET val = val + value
  GEOTP_WIRE_FIELDS(key, is_write, value, is_delta)
};

// ---------------------------------------------------------------------------
// Client <-> middleware
// ---------------------------------------------------------------------------

/// One interactive round of a transaction. The first round opens the
/// transaction; `last_round` carries the last-statement annotation that
/// lets GeoTP trigger the decentralized prepare (paper §IV-A).
struct ClientRoundRequest : runtime::Message<ClientRoundRequest> {
  uint64_t client_tag = 0;  ///< client-side correlation handle
  TxnId txn_id = kInvalidTxn;  ///< 0 on the first round; DM assigns
  /// Tenant the transaction belongs to. The DM's admission controller
  /// meters new admissions per tenant (weighted fair shares of the
  /// in-flight budget); continuation rounds are never metered.
  uint32_t tenant = 0;
  std::vector<ClientOp> ops;
  bool last_round = false;
  /// COMMIT rides on this (last) round: the coordinator commits as soon
  /// as the round completes and answers with ClientTxnResult alone, which
  /// carries the round's reads. No ClientRoundResponse and no
  /// ClientFinishRequest follow.
  bool commit = false;
  GEOTP_WIRE_FIELDS(client_tag, txn_id, tenant, ops, last_round, commit)
};

struct ClientRoundResponse : runtime::Message<ClientRoundResponse> {
  uint64_t client_tag = 0;
  TxnId txn_id = kInvalidTxn;
  Status status;
  std::vector<int64_t> values;  ///< read results, in op order
  GEOTP_WIRE_FIELDS(client_tag, txn_id, status, values)
};

/// COMMIT (or ROLLBACK) submitted by the client after it saw the last
/// round's reads. A client that commits unconditionally sets
/// ClientRoundRequest::commit instead and never sends this.
struct ClientFinishRequest : runtime::Message<ClientFinishRequest> {
  uint64_t client_tag = 0;
  TxnId txn_id = kInvalidTxn;
  bool commit = true;
  GEOTP_WIRE_FIELDS(client_tag, txn_id, commit)
};

/// Final transaction outcome to the client.
struct ClientTxnResult : runtime::Message<ClientTxnResult> {
  uint64_t client_tag = 0;
  TxnId txn_id = kInvalidTxn;
  Status status;
  /// Read results of a commit-carrying last round, in op order (empty
  /// otherwise, and empty when a failover left the commit in doubt and it
  /// was resolved from the replicated log, which keeps no reads).
  std::vector<int64_t> values;
  GEOTP_WIRE_FIELDS(client_tag, txn_id, status, values)
};

/// Shed reply: the DM refused to admit a NEW transaction (in-flight
/// budget, tenant share, or downstream queue pressure). Nothing was
/// executed — the client may retry after backing off at least
/// `retry_after_hint`. Only ever sent before a TxnId is assigned;
/// admitted transactions always finish with ClientTxnResult.
struct OverloadedResponse : runtime::Message<OverloadedResponse> {
  uint64_t client_tag = 0;
  uint32_t tenant = 0;  ///< echo of the request's tenant
  /// Suggested minimum backoff before retrying; grows while the DM keeps
  /// shedding so persistent overload pushes clients further out.
  Micros retry_after_hint = 0;
  GEOTP_WIRE_FIELDS(client_tag, tenant, retry_after_hint)
};

// ---------------------------------------------------------------------------
// Middleware <-> data source (geo-agent)
// ---------------------------------------------------------------------------

/// Executes a batch of operations of one subtransaction branch.
struct BranchExecuteRequest : runtime::Message<BranchExecuteRequest> {
  Xid xid;
  uint64_t round_seq = 0;
  bool begin_branch = false;      ///< first batch for this branch
  std::vector<ClientOp> ops;      ///< executed sequentially at the source
  /// Last statement of this branch (annotation): the geo-agent initiates
  /// the decentralized prepare when the batch completes.
  bool last_statement = false;
  /// Peer data sources of the transaction (for early abort and for the
  /// centralized/distributed distinction in Algorithm 1). Every batch
  /// carries the current list; the source keeps the latest.
  std::vector<NodeId> peers;
  /// Middleware to send the implicit-prepare vote to.
  NodeId coordinator = kInvalidNode;
  /// The branch is the transaction's only one and this batch ends it with
  /// the client's COMMIT: the source commits it (XA COMMIT ... ONE PHASE)
  /// as the batch completes and responds only once the commit is durable.
  bool commit_one_phase = false;
  GEOTP_WIRE_FIELDS(xid, round_seq, begin_branch, ops, last_statement, peers,
                    coordinator, commit_one_phase)
};

/// Vote values, per Algorithm 1.
enum class Vote : uint8_t {
  kPrepared,      ///< branch prepared, ready to commit
  kIdle,          ///< centralized branch ended, not prepared (only ever
                  ///< on the execute response)
  kFailure,       ///< prepare failed; branch rolled back
  kRollbackOnly,  ///< end failed; branch rolled back
  kRollbacked,    ///< branch rolled back (early abort / abort ack)
  kNone,          ///< an execute response that carries no vote
};

const char* VoteName(Vote vote);
constexpr Vote WireMax(Vote) { return Vote::kNone; }

struct BranchExecuteResponse : runtime::Message<BranchExecuteResponse> {
  Xid xid;
  uint64_t round_seq = 0;
  Status status;
  std::vector<int64_t> values;
  /// Local execution latency measured at the source (request arrival to
  /// batch completion) — feeds the hotspot footprint (Eq. 4).
  Micros local_exec_latency = 0;
  /// True if the branch already rolled back locally (failure path).
  bool rolled_back = false;
  /// A commit_one_phase batch committed durably: the transaction is done.
  bool committed = false;
  /// The branch's vote, when this response ends a last statement: IDLE
  /// without peers; with peers the source holds the response until its
  /// decentralized prepare resolves, then PREPARED, FAILURE or ROLLBACKED.
  /// kNone on every other response.
  Vote vote = Vote::kNone;
  /// Commit acks queued for this DM (see DecisionItem::lazy_ack).
  std::vector<TxnId> acked_commits;
  /// Source-side time from the request's arrival at the node to this send,
  /// time parked behind a promotion barrier or held for a prepare or a
  /// one-phase commit included. The DM subtracts it from the round trip,
  /// so every matched response is an RTT sample with no clock sync
  /// (NTP's (t4 - t1) - (t3 - t2)) and a busy link needs no ping.
  Micros residence = 0;
  /// The pong's report, on every response so a busy link needs no pong:
  /// branches in flight (PingResponse::inflight) and the source's
  /// shard-map epoch (PingResponse::shard_epoch).
  uint64_t inflight = 0;
  uint64_t shard_epoch = 0;
  GEOTP_WIRE_FIELDS(xid, round_seq, status, values, local_exec_latency,
                    rolled_back, committed, vote, acked_commits, residence,
                    inflight, shard_epoch)
};

/// Explicit prepare request (classic 2PC path, and the "notify sources not
/// processing the last statement" case of §III).
struct PrepareRequest : runtime::Message<PrepareRequest> {
  Xid xid;
  GEOTP_WIRE_FIELDS(xid)
};

/// A vote with no execute response to ride on: explicit prepares,
/// promoted-leader re-votes, and votes whose held response is gone.
struct VoteMessage : runtime::Message<VoteMessage> {
  Xid xid;
  Vote vote = Vote::kPrepared;
  /// Commit acks queued for this DM (see DecisionItem::lazy_ack).
  std::vector<TxnId> acked_commits;
  GEOTP_WIRE_FIELDS(xid, vote, acked_commits)
};

/// Several explicit prepares bound for one data source, coalesced by the
/// DM's dispatch queue when they go out in the same event-loop tick (group
/// commit at the DM releases many decisions/prepares at once).
struct PrepareBatch : runtime::Message<PrepareBatch> {
  std::vector<Xid> xids;
  GEOTP_WIRE_FIELDS(xids)
};

/// A final decision from the DM, sent alone (DecisionRequest) or
/// coalesced (DecisionBatch). `one_phase` commits an un-prepared branch
/// directly (XA COMMIT ... ONE PHASE; centralized transactions).
struct DecisionItem {
  Xid xid;
  bool commit = true;
  bool one_phase = false;
  /// The DM answered the client before sending this commit, so nothing
  /// waits on its ack but the DM's settle bookkeeping: the source queues a
  /// successful ack and sends it in `acked_commits` of its next execute
  /// response, vote or pong to this DM, or alone once it has waited
  /// datasource::kAckDelayBound.
  bool lazy_ack = false;
  GEOTP_WIRE_FIELDS(xid, commit, one_phase, lazy_ack)
};

/// One decision on its own. A nested struct encodes as its fields in
/// order, so the frame carries exactly the item's fields.
struct DecisionRequest : runtime::Message<DecisionRequest> {
  DecisionItem item;
  GEOTP_WIRE_FIELDS(item)
};

struct DecisionAck : runtime::Message<DecisionAck> {
  Xid xid;
  bool committed = false;
  /// Echo of the request's one_phase flag: a failed one-phase commit is a
  /// clean abort (the branch was never prepared anywhere); a failed
  /// two-phase commit of a prepared branch would be an atomicity bug.
  bool one_phase = false;
  Status status;
  GEOTP_WIRE_FIELDS(xid, committed, one_phase, status)
};

/// Several decisions bound for one data source, coalesced like
/// PrepareBatch. The source processes items in order and acks each one
/// individually (acks carry per-transaction status).
struct DecisionBatch : runtime::Message<DecisionBatch> {
  std::vector<DecisionItem> items;
  GEOTP_WIRE_FIELDS(items)
};

// ---------------------------------------------------------------------------
// Geo-agent <-> geo-agent (early abort, §IV-A)
// ---------------------------------------------------------------------------

/// Proactive peer-abort notification, sent data-source to data-source
/// without DM coordination.
struct PeerAbortRequest : runtime::Message<PeerAbortRequest> {
  TxnId txn_id = kInvalidTxn;
  GEOTP_WIRE_FIELDS(txn_id)
};

// ---------------------------------------------------------------------------
// Replication (leader-follower WAL shipping, src/replication)
// ---------------------------------------------------------------------------

/// What a replicated log entry records. Prepare entries stage a branch's
/// write set for failover; commit entries carry the write set that followers
/// apply; abort entries discard a staged prepare. Migration entries journal
/// shard-migration control state (no store effect): Begin opens an outbound
/// migration at the source group, Cutover seals it (the range is fenced and
/// fully transferred), End resolves it (published, cancelled, or aborted).
/// A promoted leader inherits every Begin without an End and deterministically
/// resumes (Cutover present) or aborts (Begin only) the migration — the
/// control state is epoch-fenced exactly like staged prepares. A promoted
/// leader opens its term with a no-op entry (Raft §8): once that is on a
/// quorum, no replica holding an older divergent tail can win an election,
/// so an entry the leader does not hold can never commit later.
enum class ReplEntryType : uint8_t {
  kPrepare,
  kCommit,
  kAbort,
  kMigrationBegin,
  kMigrationCutover,
  kMigrationEnd,
  kNoop,
};

constexpr ReplEntryType WireMax(ReplEntryType) {
  return ReplEntryType::kNoop;
}

/// Control payload of the kMigration* entry types: everything a promoted
/// source leader needs to re-fence / re-report / abort the migration
/// without any volatile state from the deposed leader.
struct MigrationRecord {
  uint64_t migration_id = 0;
  sharding::ShardRange range;          ///< owner = source (pre-cutover)
  NodeId dest = kInvalidNode;          ///< destination logical group
  NodeId dest_leader = kInvalidNode;   ///< dest leader at planning time
  uint64_t new_version = 0;            ///< map version the cutover publishes
  NodeId balancer = kInvalidNode;      ///< where cutover/abort reports go
  Micros timeout = 0;                  ///< balancer cancellation window
  /// Cutover records: the delta sequence to resume from. Every delta was
  /// acked when the cutover was journaled, so a promoted leader continues
  /// numbering here for drain commits of installed prepared branches.
  uint64_t delta_next_seq = 1;
  GEOTP_WIRE_FIELDS(migration_id, range, dest, dest_leader, new_version,
                    balancer, timeout, delta_next_seq)
};

/// One write of a replicated branch, as an absolute value (deltas are
/// resolved at the leader, so application on followers is idempotent).
struct ReplWrite {
  RecordKey key;
  int64_t value = 0;
  GEOTP_WIRE_FIELDS(key, value)
};

/// One entry of a replica group's shipped WAL.
struct ReplEntry {
  uint64_t index = 0;  ///< 1-based position in the group log
  uint64_t epoch = 0;  ///< leadership epoch that appended the entry
  ReplEntryType type = ReplEntryType::kCommit;
  Xid xid;  ///< xid.data_source is the group's logical node id
  /// Middleware coordinating the transaction — a promoted leader re-votes
  /// staged prepares to it after failover.
  NodeId coordinator = kInvalidNode;
  std::vector<ReplWrite> writes;
  /// Migration control payload — set on kMigration* entries only, shared
  /// (immutable) so the rare control records don't inflate every commit
  /// entry in the replicated log.
  std::shared_ptr<const MigrationRecord> migration;
  /// Destination-side chunk-ack journaling: a commit entry that installs a
  /// migration ingest (snapshot chunk or delta batch) is tagged with the
  /// migration id and the stream position it covers, so the group log
  /// records exactly which ack each quorum backed. Every replica folds the
  /// tags into a per-migration ingest journal
  /// (ShardMigrator::NoteIngestApplied); a promoted destination leader
  /// lifts its stream position from it and skips the chunks and deltas
  /// the source re-sends after a re-point. 0 = not a migration ingest.
  uint64_t ingest_migration_id = 0;
  uint64_t ingest_chunk_seq = 0;  ///< snapshot chunk seq (0 for deltas)
  uint64_t ingest_delta_seq = 0;  ///< delta batch seq (0 for chunks)
  GEOTP_WIRE_FIELDS(index, epoch, type, xid, coordinator, writes, migration,
                    ingest_migration_id, ingest_chunk_seq, ingest_delta_seq)
};

/// Leader -> follower log shipping. A frame without a payload is a
/// heartbeat; both carry the quorum commit watermark so followers can
/// apply.
struct ReplAppendRequest : runtime::Message<ReplAppendRequest> {
  NodeId group = kInvalidNode;  ///< logical data source id
  uint64_t epoch = 0;
  /// Index of the entry immediately before the batch (0 = log start).
  uint64_t prev_index = 0;
  /// Epoch of the entry at prev_index (0 at log start): the follower
  /// accepts only if its own log matches, so divergent tails from deposed
  /// leaders are detected and truncated.
  uint64_t prev_epoch = 0;
  uint64_t commit_watermark = 0;
  /// Highest index every group member is known to hold (leader's min match
  /// bounded by the watermark): followers may compact their log prefix up
  /// to here and no further, so any future leader can still re-ship the
  /// retained tail to a lagging peer.
  uint64_t compact_floor = 0;
  // ---- WAN envelope (src/common/compress.h) ----
  // The entry batch travels only here: packed (`wire::Pack` of the
  // ReplEntry vector), compressed under `payload_codec`, and verified
  // end-to-end against `payload_hash` (the FNV hash of the UNCOMPRESSED
  // packed bytes) before the receiver unpacks it
  // (protocol::OpenAppendPayload). A frame failing the check is dropped
  // whole — the follower's nack/retransmit path recovers, nothing
  // half-applies.
  common::WireCodec payload_codec = common::WireCodec::kRaw;
  uint32_t payload_uncompressed_len = 0;
  uint64_t payload_hash = 0;
  std::string payload;
  GEOTP_WIRE_FIELDS(group, epoch, prev_index, prev_epoch, commit_watermark,
                    compact_floor, payload_codec,
                    payload_uncompressed_len, payload_hash, payload)
};

struct ReplAppendAck : runtime::Message<ReplAppendAck> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;  ///< follower's current epoch (leader steps down if newer)
  /// Highest log index the follower holds after processing the append.
  uint64_t ack_index = 0;
  bool ok = true;  ///< false: log gap — leader rewinds to ack_index + 1
  GEOTP_WIRE_FIELDS(group, epoch, ack_index, ok)
};

/// Candidate -> replica during leader election.
struct ReplVoteRequest : runtime::Message<ReplVoteRequest> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;  ///< candidate's proposed (incremented) epoch
  /// (epoch of last log entry, log length): voters compare these
  /// lexicographically, Raft-style, so a stale tail cannot outrank
  /// quorum-committed entries from a newer epoch.
  uint64_t last_log_epoch = 0;
  uint64_t last_log_index = 0;
  GEOTP_WIRE_FIELDS(group, epoch, last_log_epoch, last_log_index)
};

struct ReplVoteResponse : runtime::Message<ReplVoteResponse> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;
  bool granted = false;
  GEOTP_WIRE_FIELDS(group, epoch, granted)
};

/// Broadcast by a freshly elected leader to the middlewares so they update
/// routing and retry in-flight branches.
struct LeaderAnnounce : runtime::Message<LeaderAnnounce> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;
  NodeId leader = kInvalidNode;
  GEOTP_WIRE_FIELDS(group, epoch, leader)
};

/// Sent by a replica that received coordinator traffic while not being the
/// group's leader (stale middleware routing).
struct NotLeaderResponse : runtime::Message<NotLeaderResponse> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;
  NodeId leader_hint = kInvalidNode;  ///< kInvalidNode while electing
  GEOTP_WIRE_FIELDS(group, epoch, leader_hint)
};

/// Stale-bounded read of committed data served by a follower, used for
/// read-only branches when the middleware enables follower reads.
struct FollowerReadRequest : runtime::Message<FollowerReadRequest> {
  NodeId group = kInvalidNode;
  TxnId txn_id = kInvalidTxn;
  uint64_t round_seq = 0;
  std::vector<RecordKey> keys;
  Micros max_staleness = 0;
  GEOTP_WIRE_FIELDS(group, txn_id, round_seq, keys, max_staleness)
};

struct FollowerReadResponse : runtime::Message<FollowerReadResponse> {
  NodeId group = kInvalidNode;
  TxnId txn_id = kInvalidTxn;
  uint64_t round_seq = 0;
  bool ok = false;  ///< false: staleness bound exceeded — retry at the leader
  Micros staleness = 0;
  std::vector<int64_t> values;
  GEOTP_WIRE_FIELDS(group, txn_id, round_seq, ok, staleness, values)
};

// ---------------------------------------------------------------------------
// Elastic sharding (src/sharding): live shard migration + map publication
// ---------------------------------------------------------------------------

/// Balancer -> source replica-group leader: start migrating `range` to the
/// replica group `dest`. The cutover will publish the range at
/// `new_version`; until then the map is unchanged and the source serves
/// (and, once fenced, drains) the range.
struct ShardMigrateRequest : runtime::Message<ShardMigrateRequest> {
  uint64_t migration_id = 0;
  sharding::ShardRange range;   ///< owner field = current owner (source)
  NodeId dest = kInvalidNode;   ///< destination logical group
  NodeId dest_leader = kInvalidNode;  ///< balancer's view of dest's leader
  uint64_t new_version = 0;
  /// Balancer-side cancellation timeout; the source self-cancels (and
  /// unfences) after twice this, so a balancer that died mid-migration
  /// cannot wedge the range in the fenced state forever.
  Micros timeout = 0;
  GEOTP_WIRE_FIELDS(migration_id, range, dest, dest_leader, new_version,
                    timeout)
};

/// Balancer -> source leader: abandon a timed-out migration (e.g. the
/// source crashed mid-copy and a promoted leader has no migration state,
/// or the destination never acked). Unfences the range.
struct ShardMigrateCancel : runtime::Message<ShardMigrateCancel> {
  uint64_t migration_id = 0;
  GEOTP_WIRE_FIELDS(migration_id)
};

/// One chunk of a snapshot stream (replication/snapshot_stream.h), sent
/// under the receiver's credit (see ShardSnapshotAck); `last` marks chunk
/// N. Shard migration (migration_id != 0): source leader -> dest leader, a
/// slice of the moving range. Follower re-seed (migration_id == 0): group
/// leader -> a follower whose log was compacted away, a slice of the
/// committed store; once chunk N is applied, base_index/base_epoch position
/// the follower's empty log at the compaction boundary.
struct ShardSnapshotChunk : runtime::Message<ShardSnapshotChunk> {
  uint64_t migration_id = 0;
  NodeId group = kInvalidNode;   ///< dest logical group / repl group id
  sharding::ShardRange range;    ///< moving range (migration only)
  uint64_t seq = 0;              ///< 1-based chunk sequence
  bool last = false;             ///< final chunk of the stream
  uint64_t epoch = 0;            ///< leadership epoch (bootstrap only)
  uint64_t base_index = 0;       ///< log index covered through (bootstrap)
  uint64_t base_epoch = 0;       ///< epoch of the entry at base_index
  // ---- WAN envelope (src/common/compress.h) ----
  // The chunk's records travel only here (`wire::Pack` of the ReplWrite
  // vector, compressed); `content_hash` lets the receiver verify them
  // after decompression (protocol::OpenChunkPayload).
  common::WireCodec payload_codec = common::WireCodec::kRaw;
  uint32_t payload_uncompressed_len = 0;
  uint64_t content_hash = 0;  ///< hash of the packed (uncompressed) records
  std::string payload;
  GEOTP_WIRE_FIELDS(migration_id, group, range, seq, last, epoch, base_index,
                    base_epoch, payload_codec,
                    payload_uncompressed_len, content_hash, payload)
};

/// Receiver -> sender of a snapshot stream: chunk `seq` and everything
/// before it is applied (quorum-durable on a replicated migration
/// destination); the sender may send up to seq + credit. Duplicates re-ack,
/// so a lost ack cannot wedge the stream. A re-seed ack (migration_id == 0)
/// goes to the leader's Replicator and echoes the stream's epoch and base,
/// so an earlier stream's ack is never taken for a restarted one's.
struct ShardSnapshotAck : runtime::Message<ShardSnapshotAck> {
  uint64_t migration_id = 0;
  uint64_t seq = 0;     ///< highest contiguously applied chunk
  uint64_t credit = 1;  ///< additional chunks the receiver will buffer
  uint64_t epoch = 0;       ///< re-seed stream's leader epoch
  uint64_t base_index = 0;  ///< re-seed stream's base
  GEOTP_WIRE_FIELDS(migration_id, seq, credit, epoch, base_index)
};

/// Source leader -> dest leader: writes committed on the moving range
/// after the snapshot cut. Sequenced per migration; the destination
/// applies batches in order (absolute values, so application is
/// idempotent).
struct ShardDeltaBatch : runtime::Message<ShardDeltaBatch> {
  uint64_t migration_id = 0;
  uint64_t seq = 0;  ///< 1-based batch sequence
  std::vector<ReplWrite> writes;
  GEOTP_WIRE_FIELDS(migration_id, seq, writes)
};

struct ShardDeltaAck : runtime::Message<ShardDeltaAck> {
  uint64_t migration_id = 0;
  uint64_t seq = 0;  ///< highest contiguously applied batch
  GEOTP_WIRE_FIELDS(migration_id, seq)
};

/// Source leader -> balancer: the range is fenced, every in-flight branch
/// on it drained (or aborted) and every delta acked by the destination —
/// the balancer may publish the new placement.
struct ShardCutoverReady : runtime::Message<ShardCutoverReady> {
  uint64_t migration_id = 0;
  sharding::ShardRange range;  ///< owner = destination, version = new
  /// True when the source group journaled a MigrationCutover record through
  /// its replicated log (quorum-durable) before this report went out. The
  /// fence then survives a source failover — a promoted leader re-fences
  /// from the log and re-reports — so the balancer may publish even if the
  /// source group's leadership changed since planning. False only for
  /// unreplicated sources, where the stale-epoch compare still gates the
  /// publish.
  bool logged = false;
  GEOTP_WIRE_FIELDS(migration_id, range, logged)
};

/// Source leader -> balancer: a promoted source leader inherited a
/// MigrationBegin record with no Cutover — the stream state died with the
/// deposed leader, so it aborted the migration from the log (journaling a
/// MigrationEnd). The balancer cancels instead of waiting for the timeout.
struct ShardMigrateAborted : runtime::Message<ShardMigrateAborted> {
  uint64_t migration_id = 0;
  GEOTP_WIRE_FIELDS(migration_id)
};

/// Balancer -> every DM and data-source replica: authoritative shard map.
/// Receivers adopt entries per-range by version (last-writer-wins under
/// the single balancer writer), so the epoch switch is atomic per actor.
struct ShardMapUpdate : runtime::Message<ShardMapUpdate> {
  std::vector<sharding::ShardRange> entries;
  GEOTP_WIRE_FIELDS(entries)
};

/// Data source -> DM: "WrongShardEpoch" bounce of a batch routed under a
/// stale map. Carries the patched range so the DM adopts it and re-routes
/// the batch (or aborts the transaction when the branch already executed
/// earlier rounds here).
struct ShardRedirect : runtime::Message<ShardRedirect> {
  TxnId txn_id = kInvalidTxn;
  uint64_t round_seq = 0;
  sharding::ShardRange entry;  ///< owner = the range's current owner
  GEOTP_WIRE_FIELDS(txn_id, round_seq, entry)
};

// ---------------------------------------------------------------------------
// Latency monitoring (paper §VI: ping thread at 10 ms intervals)
// ---------------------------------------------------------------------------

struct PingRequest : runtime::Message<PingRequest> {
  uint64_t seq = 0;
  Micros sent_at = 0;
  /// Shard-map anti-entropy: the sender's (DM's) shard-map epoch. A data
  /// source holding a newer map piggybacks it on the pong, so a DM that
  /// missed a publish converges within one ping interval instead of
  /// waiting to bounce off a redirect.
  uint64_t shard_epoch = 0;
  GEOTP_WIRE_FIELDS(seq, sent_at, shard_epoch)
};

/// The answer to a PingRequest: an RTT sample, the responder's load and
/// shard-map epoch, and any queued commit acks. The DM pings only sources
/// that no execute response sampled within the last ping interval, and
/// BranchExecuteResponse carries the same load and epoch report, so a
/// busy source sends almost no pongs. Overload control reads nothing
/// here; it sheds on the DM's own in-flight budget.
struct PingResponse : runtime::Message<PingResponse> {
  uint64_t seq = 0;
  Micros sent_at = 0;
  /// Capacity signal: branches in flight at the responding engine (live
  /// transactions + parked lock waiters). The balancer's placement scorer
  /// subtracts a load penalty derived from this from the RTT gain, so hot
  /// chunks cannot all pile onto the one nearest node.
  uint64_t inflight = 0;
  /// Responder's shard-map epoch (anti-entropy: a DM seeing a lower value
  /// than its own pushes the current map to the responder).
  uint64_t shard_epoch = 0;
  /// Piggybacked map when the ping's shard_epoch was behind this node's
  /// map (empty otherwise). The DM adopts the entries.
  std::vector<sharding::ShardRange> map_entries;
  /// Commit acks queued for this DM (see DecisionItem::lazy_ack).
  std::vector<TxnId> acked_commits;
  GEOTP_WIRE_FIELDS(seq, sent_at, inflight, shard_epoch, map_entries,
                    acked_commits)
};

}  // namespace protocol
}  // namespace geotp

#endif  // GEOTP_PROTOCOL_MESSAGES_H_
