#include "replication/replicator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "datasource/data_source.h"
#include "protocol/wan_codec.h"

namespace geotp {
namespace replication {

namespace {

/// Candidate retry backoff after a failed (split / refused) election.
constexpr Micros kElectionRetryBackoff = MsToMicros(60);

}  // namespace

using protocol::FollowerReadRequest;
using protocol::FollowerReadResponse;
using protocol::LeaderAnnounce;
using protocol::ReplAppendAck;
using protocol::ReplAppendRequest;
using protocol::ReplEntry;
using protocol::ReplEntryType;
using protocol::ReplVoteRequest;
using protocol::ReplVoteResponse;
using protocol::Vote;

Replicator::Replicator(datasource::DataSourceNode* node, GroupConfig group)
    : node_(node),
      group_(std::move(group)),
      election_(node->id(), group_.QuorumSize()),
      shipper_(node->id(), node->transport(), node->timer(), &log_) {
  GEOTP_CHECK(!group_.replicas.empty(), "empty replica group");
  auto it = std::find(group_.replicas.begin(), group_.replicas.end(),
                      node_->id());
  GEOTP_CHECK(it != group_.replicas.end(),
              "node " << node_->id() << " not in its replica group");
  ordinal_ = static_cast<int>(it - group_.replicas.begin());
  shipper_.set_snapshot_sender(
      [this](NodeId follower) { SendBootstrapSnapshot(follower); });
  shipper_.set_wal(&node_->committer());
  shipper_.set_on_commit([this]() { ApplyCommitted(); });
}

runtime::ITimer* Replicator::loop() const { return node_->timer(); }
runtime::ITransport* Replicator::network() const { return node_->transport(); }
NodeId Replicator::self() const { return node_->id(); }

uint64_t Replicator::LastLogEpoch() const {
  return log_.EpochAt(log_.last_index());
}

std::vector<NodeId> Replicator::Followers() const {
  std::vector<NodeId> followers;
  for (NodeId replica : group_.replicas) {
    if (replica != self()) followers.push_back(replica);
  }
  return followers;
}

void Replicator::RetireLeadership() {
  if (!shipper_.active()) return;
  follower_watermark_ =
      std::max(follower_watermark_, shipper_.commit_watermark());
  const uint64_t unshipped = shipper_.FirstUnshipped();
  shipper_.Deactivate();  // drops any pending quorum callbacks
  promotion_barrier_ = 0;
  bootstrap_streams_.clear();  // leader-only re-seed streams die with the term
  // Entries of this term that never shipped leave the log: no other
  // replica holds them, and a record whose entry did not ship is outside
  // the group when its flush ends.
  CutLog(unshipped);
  // Work parked behind the barrier must not wait forever: replayed now,
  // it bounces off the not-a-leader redirect path (or is dropped by a
  // crash) instead of wedging.
  node_->OnReplicatorReady();
}

void Replicator::Start() {
  last_leader_contact_ = loop()->Now();
  if (self() == group_.logical) {
    election_.SeedLeader();
    shipper_.Activate(group_.logical, /*epoch=*/0, Followers(),
                      group_.QuorumSize(), /*floor=*/0);
    ArmHeartbeatTimer();
  } else {
    election_.AdoptLeader(group_.logical, /*epoch=*/0);
    ArmElectionTimer(group_.config.election_timeout +
                     ordinal_ * group_.config.election_stagger);
  }
}

Micros Replicator::Staleness() const {
  if (IsLeader()) return 0;
  if (fresh_as_of_ < 0) return std::numeric_limits<Micros>::max() / 2;
  return loop()->Now() - fresh_as_of_;
}

// ---------------------------------------------------------------------------
// Durability hooks
// ---------------------------------------------------------------------------

uint64_t Replicator::AppendRecordEntry(ReplEntryType type, const Xid& xid,
                                       NodeId coordinator) {
  GEOTP_CHECK(type == ReplEntryType::kPrepare || type == ReplEntryType::kCommit,
              "only prepare and commit records have entries");
  if (!shipper_.active()) return 0;
  if (type == ReplEntryType::kPrepare
          ? unresolved_prepares_.Get(xid.txn_id) != 0
          : commit_entries_.Find(xid.txn_id) != nullptr) {
    return 0;  // a retry's record: the entry already exists
  }
  ReplEntry entry;
  entry.type = type;
  entry.xid = xid;
  entry.coordinator = coordinator;
  entry.writes = node_->engine().WriteSetOf<protocol::ReplWrite>(xid);
  return Track(shipper_.Append(std::move(entry)));
}

void Replicator::OnWalFlushStart() {
  if (shipper_.active()) shipper_.Ship();
}

void Replicator::OnWalFlushed() {
  if (shipper_.active()) shipper_.AdvanceWatermark();
  ApplyCommitted();
}

void Replicator::ReplicateIngest(const Xid& xid,
                                 std::vector<protocol::ReplWrite> writes,
                                 uint64_t migration_id, uint64_t chunk_seq,
                                 uint64_t delta_seq,
                                 std::function<void()> on_applied) {
  GEOTP_CHECK(IsLeader(), "ReplicateIngest on non-leader");
  ReplEntry entry;
  entry.type = ReplEntryType::kCommit;
  entry.xid = xid;
  entry.writes = std::move(writes);
  entry.ingest_migration_id = migration_id;
  entry.ingest_chunk_seq = chunk_seq;
  entry.ingest_delta_seq = delta_seq;
  // The ack is the term's, like a quorum callback: a replica that lost the
  // leadership leaves the stream to the next leader.
  AwaitCommitApplied(Track(shipper_.AppendAndShip(std::move(entry), nullptr)),
                     [this, on_applied = std::move(on_applied)]() {
                       if (IsLeader()) on_applied();
                     });
}

void Replicator::AwaitCommitApplied(uint64_t index,
                                    std::function<void()> on_applied) {
  if (index <= applied_index_) {
    on_applied();
    return;
  }
  commit_waiters_.emplace(index, std::move(on_applied));
}

void Replicator::ReplicateMigrationRecord(
    protocol::ReplEntryType type, const protocol::MigrationRecord& record,
    QuorumCallback on_quorum) {
  GEOTP_CHECK(IsLeader(), "ReplicateMigrationRecord on non-leader");
  GEOTP_CHECK(type == ReplEntryType::kMigrationBegin ||
                  type == ReplEntryType::kMigrationCutover ||
                  type == ReplEntryType::kMigrationEnd,
              "not a migration record type");
  stats_.migration_records_appended++;
  ReplEntry entry;
  entry.type = type;
  entry.xid = Xid{kInvalidTxn, group_.logical};
  entry.migration = std::make_shared<protocol::MigrationRecord>(record);
  Track(shipper_.AppendAndShip(std::move(entry), std::move(on_quorum)));
}

void Replicator::TrackMigrationRecord(protocol::ReplEntryType type,
                                      uint64_t migration_id, uint64_t index) {
  switch (type) {
    case ReplEntryType::kMigrationBegin:
      unresolved_migrations_[migration_id] = MigrationTrack{index, 0};
      break;
    case ReplEntryType::kMigrationCutover: {
      auto it = unresolved_migrations_.find(migration_id);
      if (it != unresolved_migrations_.end()) it->second.cutover_index = index;
      break;
    }
    case ReplEntryType::kMigrationEnd:
      unresolved_migrations_.erase(migration_id);
      break;
    default:
      break;
  }
}

void Replicator::ReplicateAbortIfPrepared(TxnId txn) {
  if (!IsLeader()) return;
  const uint64_t staged = unresolved_prepares_.Get(txn);
  if (staged == 0) return;
  ReplEntry entry;
  entry.type = ReplEntryType::kAbort;
  entry.xid = log_.At(staged).xid;
  Track(shipper_.AppendAndShip(std::move(entry), nullptr));
}

std::optional<uint64_t> Replicator::CommitEntryIndex(TxnId txn) const {
  const uint64_t* index = commit_entries_.Find(txn);
  if (index == nullptr) return std::nullopt;
  return *index;
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

bool Replicator::HandleMessage(runtime::MessageBase* msg) {
  switch (msg->type()) {
    case runtime::MessageType::kReplAppendRequest: {
      const auto& req = static_cast<const ReplAppendRequest&>(*msg);
      // The batch opens into the vector the previous one left behind
      // (OnAppend moved its entries into the log), reusing its capacity.
      // A corrupt envelope (hash or bounds check failed) drops the whole
      // frame. No ack — the leader's heartbeat retransmit recovers.
      if (protocol::OpenAppendPayload(req, &opened_entries_)) {
        OnAppend(req, opened_entries_);
      }
      return true;
    }
    case runtime::MessageType::kReplAppendAck:
      OnAppendAck(static_cast<ReplAppendAck&>(*msg));
      return true;
    case runtime::MessageType::kReplVoteRequest:
      OnVoteRequest(static_cast<ReplVoteRequest&>(*msg));
      return true;
    case runtime::MessageType::kReplVoteResponse:
      OnVoteResponse(static_cast<ReplVoteResponse&>(*msg));
      return true;
    case runtime::MessageType::kFollowerReadRequest:
      OnFollowerRead(static_cast<FollowerReadRequest&>(*msg));
      return true;
    case runtime::MessageType::kShardSnapshotChunk: {
      // migration_id == 0 marks a re-seed stream; shard migration chunks
      // fall through to the ShardMigrator.
      auto& chunk = static_cast<protocol::ShardSnapshotChunk&>(*msg);
      if (chunk.migration_id != 0 || chunk.group != group_.logical) {
        return false;
      }
      std::vector<protocol::ReplWrite> records;
      if (protocol::OpenChunkPayload(chunk, &records)) {
        OnBootstrapSnapshot(chunk, std::move(records));
      }  // else corrupt: dropped whole; the leader's resend recovers it
      return true;
    }
    case runtime::MessageType::kShardSnapshotAck: {
      const auto& ack = static_cast<const protocol::ShardSnapshotAck&>(*msg);
      if (ack.migration_id != 0) return false;
      auto it = bootstrap_streams_.find(ack.from);
      if (it != bootstrap_streams_.end()) it->second->OnAck(ack);
      return true;
    }
    default:
      return false;
  }
}

void Replicator::OnAppend(const ReplAppendRequest& req,
                          std::vector<ReplEntry>& entries) {
  stats_.appends_received++;
  auto ack = std::make_unique<ReplAppendAck>();
  ack->from = self();
  ack->to = req.from;
  ack->group = group_.logical;
  if (req.epoch < election_.epoch()) {
    // Stale leader: tell it the current epoch so it steps down.
    ack->epoch = election_.epoch();
    ack->ok = false;
    ack->ack_index = 0;
    network()->Send(std::move(ack));
    return;
  }
  const bool epoch_changed = req.epoch > election_.epoch();
  if (epoch_changed || election_.leader() != req.from ||
      election_.role() != Role::kFollower) {
    election_.AdoptLeader(req.from, req.epoch);
    if (epoch_changed) consistent_prefix_ = 0;
    SyncRoleState();
    node_->DropUnloggedBranches();
  }
  last_leader_contact_ = loop()->Now();
  ack->epoch = election_.epoch();

  // Raft-style log matching: our entry at prev_index must be the leader's.
  if (req.prev_index > log_.last_index() ||
      (req.prev_index > 0 &&
       log_.EpochAt(req.prev_index) != req.prev_epoch)) {
    ack->ok = false;
    ack->ack_index = req.prev_index > 0
                         ? std::min(log_.last_index(), req.prev_index - 1)
                         : 0;
    network()->Send(std::move(ack));
    return;
  }

  for (ReplEntry& entry : entries) {
    // Entries at or below our compacted prefix are quorum-applied
    // duplicates (a conservative retransmit after leadership churn).
    if (entry.index < log_.first_index()) continue;
    if (entry.index <= log_.last_index()) {
      if (log_.At(entry.index).epoch == entry.epoch) continue;  // duplicate
      // Divergent tail from a deposed leader: quorum-applied prefixes can
      // never diverge, so truncation below the watermark is a bug.
      GEOTP_CHECK(entry.index > follower_watermark_ &&
                      entry.index > applied_index_,
                  "replication log diverges below the commit watermark");
      TruncateFrom(entry.index);
    }
    GEOTP_CHECK(entry.index == log_.last_index() + 1, "log gap in append");
    Track(log_.Append(std::move(entry)));
  }

  const uint64_t verified = req.prev_index + entries.size();
  compact_floor_ = std::max(compact_floor_, req.compact_floor);
  consistent_prefix_ = std::max(consistent_prefix_, verified);
  follower_watermark_ = std::max(
      follower_watermark_, std::min(req.commit_watermark, consistent_prefix_));
  ApplyCommitted();
  if (applied_index_ >= req.commit_watermark) {
    fresh_as_of_ = loop()->Now();
  }
  MaybeTruncateLog();
  ack->ok = true;
  ack->ack_index = consistent_prefix_;
  network()->Send(std::move(ack));
}

uint64_t Replicator::Track(uint64_t index) {
  const ReplEntry& appended = log_.At(index);
  switch (appended.type) {
    case ReplEntryType::kPrepare:
      unresolved_prepares_.Add(appended.xid.txn_id, index);
      break;
    case ReplEntryType::kCommit:
      unresolved_prepares_.Resolve(appended.xid.txn_id);
      commit_entries_.FindOrInsert(appended.xid.txn_id) = index;
      break;
    case ReplEntryType::kAbort:
      unresolved_prepares_.Resolve(appended.xid.txn_id);
      break;
    case ReplEntryType::kMigrationBegin:
    case ReplEntryType::kMigrationCutover:
    case ReplEntryType::kMigrationEnd:
      GEOTP_CHECK(appended.migration != nullptr,
                  "migration entry without a record");
      TrackMigrationRecord(appended.type, appended.migration->migration_id,
                           index);
      break;
    case ReplEntryType::kNoop:
      break;
  }
  return index;
}

void Replicator::MaybeTruncateLog() {
  // Safe compaction point: everything this replica already applied (so at
  // quorum), bounded by what EVERY group member already holds (a
  // truncated entry can never be re-shipped, and any replica may be the
  // next leader). The leader computes that bound as its min follower
  // match index; followers learn it as the append-carried compact_floor.
  // Unresolved prepares are pinned: a promotion must still install them
  // as in-doubt branches.
  uint64_t safe = std::min(
      applied_index_, IsLeader() ? shipper_.MinMatchIndex() : compact_floor_);
  // The pins below only lower `safe`: skip scanning them when the bound
  // already leaves nothing to compact (the common case between floors).
  if (safe <= log_.offset()) return;
  if (const uint64_t oldest = unresolved_prepares_.Oldest()) {
    safe = std::min(safe, oldest - 1);
  }
  // Unresolved migration records are pinned like prepares: a promotion
  // must still read them to resume or abort the migration.
  for (const auto& [id, track] : unresolved_migrations_) {
    safe = std::min(safe, track.begin_index - 1);
  }
  stats_.log_entries_truncated += log_.TruncatePrefix(safe);
}

void Replicator::TruncateFrom(uint64_t from) {
  // A deposed leader may still hold the branch of a cut prepare or commit
  // entry (shipped while its record flushed): roll it back. Its locks go,
  // and the group's log alone decides the transaction from here.
  storage::TransactionEngine& engine = node_->engine();
  const auto [first, last] = log_.Range(from, log_.last_index());
  for (auto it = first; it != last; ++it) {
    if (it->type != ReplEntryType::kPrepare &&
        it->type != ReplEntryType::kCommit) {
      continue;
    }
    const storage::TxnState state = engine.StateOf(it->xid);
    if (state != storage::TxnState::kPrepared &&
        state != storage::TxnState::kActive) {
      continue;
    }
    (void)engine.Rollback(it->xid);
    node_->ForgetBranch(it->xid.txn_id);
  }
  CutLog(from);
}

void Replicator::CutLog(uint64_t from) {
  if (from > log_.last_index()) return;
  log_.TruncateFrom(from);
  unresolved_prepares_.EraseFrom(from);
  commit_entries_.EraseIf(
      [from](TxnId, uint64_t index) { return index >= from; });
  for (auto it = unresolved_migrations_.begin();
       it != unresolved_migrations_.end();) {
    if (it->second.begin_index >= from) {
      it = unresolved_migrations_.erase(it);
      continue;
    }
    if (it->second.cutover_index >= from) it->second.cutover_index = 0;
    ++it;
  }
  // A cut commit entry never applies: its waiters are dropped, and the
  // coordinator resolves the transaction at the leader that cut it.
  commit_waiters_.erase(commit_waiters_.lower_bound(from),
                        commit_waiters_.end());
  consistent_prefix_ = std::min(consistent_prefix_, from - 1);
}

void Replicator::OnAppendAck(const ReplAppendAck& ack) {
  if (ack.epoch > election_.epoch()) {
    // A replica moved to a newer epoch: our leadership (if any) is over.
    election_.ObserveEpoch(ack.epoch);
    SyncRoleState();
    return;
  }
  // A follower whose log holds a re-seed stream's base has installed it
  // (or never needed it): the stream is over.
  if (ack.ok && bootstrap_streams_.count(ack.from) > 0 &&
      ack.ack_index >= bootstrap_streams_[ack.from]->header().base_index) {
    bootstrap_streams_.erase(ack.from);
  }
  shipper_.OnAck(ack.from, ack);
}

void Replicator::OnVoteRequest(const ReplVoteRequest& req) {
  const bool leader_fresh =
      election_.role() == Role::kLeader ||
      loop()->Now() - last_leader_contact_ < group_.config.election_timeout;
  const bool granted = election_.GrantVote(
      req.from, req.epoch, req.last_log_epoch, req.last_log_index,
      LastLogEpoch(), log_.last_index(), leader_fresh);
  if (granted) {
    // Give the candidate a full timeout before we would stand ourselves.
    last_leader_contact_ = loop()->Now();
  }
  SyncRoleState();
  auto resp = std::make_unique<ReplVoteResponse>();
  resp->from = self();
  resp->to = req.from;
  resp->group = group_.logical;
  resp->epoch = granted ? req.epoch : election_.epoch();
  resp->granted = granted;
  network()->Send(std::move(resp));
}

void Replicator::OnVoteResponse(const ReplVoteResponse& resp) {
  if (!resp.granted) {
    election_.ObserveEpoch(resp.epoch);
    SyncRoleState();
    return;
  }
  if (election_.OnVoteGranted(resp.from, resp.epoch)) {
    BecomeLeader();
  }
}

void Replicator::OnFollowerRead(const FollowerReadRequest& req) {
  auto resp = std::make_unique<FollowerReadResponse>();
  resp->from = self();
  resp->to = req.from;
  resp->group = group_.logical;
  resp->txn_id = req.txn_id;
  resp->round_seq = req.round_seq;
  resp->staleness = Staleness();
  if (resp->staleness > req.max_staleness) {
    resp->ok = false;
    stats_.follower_reads_rejected++;
  } else {
    resp->ok = true;
    for (const RecordKey& key : req.keys) {
      auto record = node_->engine().store().Get(key);
      resp->values.push_back(record ? record->value : 0);
    }
    stats_.follower_reads_served++;
  }
  network()->Send(std::move(resp));
}

// ---------------------------------------------------------------------------
// Snapshot bootstrap (reuses the shard snapshot-install path)
// ---------------------------------------------------------------------------

void Replicator::SendBootstrapSnapshot(NodeId follower) {
  // Position the follower's empty log at our compaction boundary: the
  // chunks carry our committed state, which covers every compacted
  // entry's effects, and the retained tail re-applies idempotently
  // (values are absolute) — so a key committed behind the stream's cursor
  // reaches the follower through the tail. Committed state only: live
  // branches' in-place writes stay out; their prepare entries are pinned
  // above the compaction point and ship with the tail.
  const uint64_t base_index = log_.first_index() - 1;
  std::unique_ptr<SnapshotSender>& stream = bootstrap_streams_[follower];
  if (stream != nullptr && stream->header().base_index == base_index) return;
  protocol::ShardSnapshotChunk header;
  header.from = self();
  header.to = follower;
  header.group = group_.logical;
  header.epoch = election_.epoch();
  header.base_index = base_index;
  header.base_epoch = log_.EpochAt(base_index);
  stream = std::make_unique<SnapshotSender>(node_, std::move(header),
                                            nullptr, &stats_.reseed);
  stream->Pump();
  GEOTP_INFO("replica " << self() << ": re-seed stream (base " << base_index
                        << ") -> " << follower);
}

void Replicator::OnBootstrapSnapshot(
    const protocol::ShardSnapshotChunk& chunk,
    std::vector<protocol::ReplWrite> records) {
  // Stream chunks are numbered from 1; no sender produces seq 0.
  if (chunk.seq == 0) return;
  if (chunk.epoch < election_.epoch()) return;  // stale leader
  const bool epoch_changed = chunk.epoch > election_.epoch();
  if (epoch_changed || election_.leader() != chunk.from ||
      election_.role() != Role::kFollower) {
    election_.AdoptLeader(chunk.from, chunk.epoch);
    SyncRoleState();
    node_->DropUnloggedBranches();
  }
  last_leader_contact_ = loop()->Now();
  // Already past the snapshot point: a straggler of a stream that
  // installed. The leader's next append finds the log in place.
  if (chunk.base_index <= applied_index_) return;
  // A new leader's stream starts afresh: its base may lie below the old
  // leader's (a follower learns the compaction floor one append late).
  // Within one leader's term a higher base supersedes a lower one.
  if (!pending_bootstrap_.has_value() ||
      pending_bootstrap_->epoch != chunk.epoch ||
      pending_bootstrap_->base_index < chunk.base_index) {
    pending_bootstrap_ = PendingBootstrap{
        chunk.epoch, chunk.base_index, chunk.base_epoch,
        SnapshotReceiver(node_->config().migration_stream_window)};
  } else if (pending_bootstrap_->base_index > chunk.base_index) {
    return;  // straggler of a superseded stream
  }
  PendingBootstrap& pending = *pending_bootstrap_;
  const bool stale = !pending.chunks.Offer(chunk.seq, chunk.last,
                                           std::move(records), &stats_.reseed);
  // Chunks apply in seq order as they arrive (values are absolute); the
  // log repositions once chunk N is applied.
  uint64_t seq = 0;
  std::vector<protocol::ReplWrite> next;
  bool applied = false;
  while (pending.chunks.Next(&seq, &next)) {
    for (const protocol::ReplWrite& w : next) {
      node_->engine().store().Apply(w.key, w.value);
    }
    pending.chunks.MarkApplied(seq);
    applied = true;
  }
  if (applied || stale) {
    auto ack = std::make_unique<protocol::ShardSnapshotAck>();
    ack->from = self();
    ack->to = chunk.from;
    ack->epoch = pending.epoch;
    ack->base_index = pending.base_index;
    pending.chunks.FillAck(ack.get());
    network()->Send(std::move(ack));
  }
  if (!pending.chunks.done()) return;
  // Chunk N is applied: position the log at the snapshot boundary and ack.
  const uint64_t base_index = pending.base_index;
  log_.ResetTo(base_index, pending.base_epoch);
  pending_bootstrap_.reset();
  consistent_prefix_ = follower_watermark_ = applied_index_ = base_index;
  compact_floor_ = std::max(compact_floor_, base_index);
  unresolved_prepares_.clear();
  commit_entries_.clear();
  unresolved_migrations_.clear();
  fresh_as_of_ = loop()->Now();
  stats_.snapshot_installs++;
  auto installed = std::make_unique<ReplAppendAck>();
  installed->from = self();
  installed->to = election_.leader();
  installed->group = group_.logical;
  installed->epoch = election_.epoch();
  installed->ok = true;
  installed->ack_index = base_index;
  network()->Send(std::move(installed));
}

void Replicator::WipeForBootstrap() {
  GEOTP_CHECK(node_->crashed(), "wipe a live replica");
  log_.ResetTo(0, 0);
  consistent_prefix_ = 0;
  follower_watermark_ = 0;
  applied_index_ = 0;
  compact_floor_ = 0;
  fresh_as_of_ = -1;
  unresolved_prepares_.clear();
  commit_entries_.clear();
  unresolved_migrations_.clear();
  node_->OnLogWiped();
  // NOTE: the committed store is kept (only the log device is gone), as
  // a crash keeps it, and so is an install in progress, whose applied
  // chunks are in that store. A full stream's absolute values overwrite
  // whatever else the store held.
}

// ---------------------------------------------------------------------------
// Timers, elections, role changes
// ---------------------------------------------------------------------------

void Replicator::ArmElectionTimer(Micros delay) {
  election_timer_ = loop()->Schedule(delay, [this]() {
    election_timer_ = runtime::kInvalidTimer;
    OnElectionCheck();
  });
}

void Replicator::OnElectionCheck() {
  if (node_->crashed() || election_.role() == Role::kLeader) return;
  if (loop()->Now() - last_leader_contact_ >=
      group_.config.election_timeout) {
    StartElection();
    if (election_.role() == Role::kLeader) return;  // won unopposed
  }
  const Micros stagger = ordinal_ * group_.config.election_stagger;
  ArmElectionTimer(election_.role() == Role::kCandidate
                       ? kElectionRetryBackoff + stagger
                       : group_.config.election_timeout + stagger);
}

void Replicator::StartElection() {
  election_.StartElection(log_.last_index());
  if (election_.role() == Role::kLeader) {
    // Single-member group: candidacy wins instantly.
    BecomeLeader();
    return;
  }
  for (NodeId replica : group_.replicas) {
    if (replica == self()) continue;
    auto req = std::make_unique<ReplVoteRequest>();
    req->from = self();
    req->to = replica;
    req->group = group_.logical;
    req->epoch = election_.epoch();
    req->last_log_epoch = LastLogEpoch();
    req->last_log_index = log_.last_index();
    network()->Send(std::move(req));
  }
}

void Replicator::ArmHeartbeatTimer() {
  heartbeat_timer_ =
      loop()->Schedule(group_.config.heartbeat_interval, [this]() {
        heartbeat_timer_ = runtime::kInvalidTimer;
        if (node_->crashed() || !IsLeader()) return;
        shipper_.Tick();
        MaybeTruncateLog();
        ArmHeartbeatTimer();
      });
}

void Replicator::BecomeLeader() {
  stats_.promotions++;
  if (obs::GlobalTracer().enabled() &&
      promotion_span_ == obs::kInvalidSpan) {
    promotion_span_ = obs::GlobalTracer().BeginSpan(
        obs::SystemContext(), "repl.promotion", self(),
        node_->timer()->Now());
  }
  GEOTP_INFO("replica " << self() << " leads group " << group_.logical
                        << " at epoch " << election_.epoch());
  // 1. Start shipping: followers re-verify their logs against ours. The
  //    watermark starts at the commit point we know of, and the store
  //    catches up to it.
  shipper_.Activate(group_.logical, election_.epoch(), Followers(),
                    group_.QuorumSize(), follower_watermark_);
  ApplyCommitted();
  // 2. Entries past our watermark (accepted from the old leader, quorum
  //    unknown) apply in log order once they reach quorum under our term,
  //    like every entry. The coordinating middleware re-sends decisions
  //    after the announce, which resolves idempotently against them. Until
  //    ALL of them have applied, the store is behind the log and this
  //    leader must not serve new branches: an exec admitted in the gap
  //    would read the pre-failover value under a lock the deferred raw
  //    apply then silently overwrites (lost update). The term's no-op
  //    entry ends that tail, and it must reach a quorum anyway: until it
  //    does, a replica with an older divergent tail could still win an
  //    election and commit an entry this leader would answer for as
  //    missing. The barrier (ReadyToServe) holds prepare installation,
  //    the announce, and the data source's parked client traffic until
  //    the no-op applies — at most one follower round trip, and if quorum
  //    is unreachable the group could not commit anything anyway.
  ReplEntry noop;
  noop.type = ReplEntryType::kNoop;
  noop.xid = Xid{kInvalidTxn, group_.logical};
  promotion_barrier_ = shipper_.AppendAndShip(std::move(noop), nullptr);
  ArmHeartbeatTimer();
  ApplyCommitted();  // a group of one has committed the no-op already
}

void Replicator::FinishPromotion() {
  if (promotion_span_ != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(promotion_span_, node_->timer()->Now());
    promotion_span_ = obs::kInvalidSpan;
  }
  if (!IsLeader()) return;  // deposed while the barrier was pending
  // Staged prepares become in-doubt XA branches; re-vote them so the
  // coordinator (or its presumed-abort path) resolves them. Installed
  // only now: the install applies absolute write sets in place, which
  // must layer on top of every inherited committed entry.
  InstallStagedPrepares();
  // Inherited migration control records: the deposed leader's stream and
  // fence state were volatile, but the Begin/Cutover records survive in
  // the log. Hand them to the migrator BEFORE announcing, so a cut-over
  // range is re-fenced before any DM can route new work here.
  if (!unresolved_migrations_.empty()) {
    std::vector<InheritedMigration> inherited;
    for (const auto& [id, track] : unresolved_migrations_) {
      InheritedMigration m;
      // The Cutover record carries the final (owner = dest) range.
      const uint64_t record_index =
          track.cutover_index != 0 ? track.cutover_index : track.begin_index;
      const auto& record = log_.At(record_index).migration;
      GEOTP_CHECK(record != nullptr, "migration entry without a record");
      m.record = *record;
      m.cutover_logged = track.cutover_index != 0;
      inherited.push_back(m);
      stats_.migration_handoffs++;
    }
    node_->OnInheritedMigrations(inherited);
  }
  AnnounceLeadership();
  node_->OnReplicatorReady();
}

void Replicator::InstallStagedPrepares() {
  std::vector<std::pair<uint64_t, TxnId>> staged;
  staged.reserve(unresolved_prepares_.size());
  unresolved_prepares_.ForEach([&staged](TxnId txn, uint64_t index) {
    staged.emplace_back(index, txn);
  });
  std::sort(staged.begin(), staged.end());
  for (const auto& [index, txn] : staged) {
    const ReplEntry& entry = log_.At(index);
    const storage::TxnState state = node_->engine().StateOf(entry.xid);
    // A leader re-elected while its own PREPARE record flushes: the flush
    // end prepares the branch and votes.
    if (state == storage::TxnState::kActive) continue;
    if (state != storage::TxnState::kPrepared) {
      std::vector<std::pair<RecordKey, int64_t>> writes;
      writes.reserve(entry.writes.size());
      for (const protocol::ReplWrite& w : entry.writes) {
        writes.emplace_back(w.key, w.value);
      }
      Status st = node_->engine().InstallPreparedBranch(entry.xid, writes);
      GEOTP_CHECK(st.ok(), "installing staged prepare: " << st.ToString());
      stats_.prepared_installs++;
    }
    if (entry.coordinator != kInvalidNode) {
      node_->SendVote(entry.coordinator, entry.xid, Vote::kPrepared);
      stats_.revotes_sent++;
    }
  }
}

void Replicator::AnnounceLeadership() {
  for (NodeId dm : group_.middlewares) {
    auto announce = std::make_unique<LeaderAnnounce>();
    announce->from = self();
    announce->to = dm;
    announce->group = group_.logical;
    announce->epoch = election_.epoch();
    announce->leader = self();
    network()->Send(std::move(announce));
  }
}

void Replicator::SyncRoleState() {
  if (election_.role() == Role::kLeader) return;
  RetireLeadership();
  if (election_timer_ == runtime::kInvalidTimer && !node_->crashed()) {
    ArmElectionTimer(group_.config.election_timeout +
                     ordinal_ * group_.config.election_stagger);
  }
}

// ---------------------------------------------------------------------------
// Apply path
// ---------------------------------------------------------------------------

void Replicator::ApplyCommitted() {
  // Committed and held durably here: a replica never applies an entry its
  // own WAL may still lose (DurableIndex never exceeds last_index()).
  const uint64_t target =
      std::min(commit_watermark(), shipper_.DurableIndex());
  while (applied_index_ < target) {
    ++applied_index_;
    ApplyEntry(log_.At(applied_index_));
    while (!commit_waiters_.empty() &&
           commit_waiters_.begin()->first <= applied_index_) {
      std::function<void()> waiter = std::move(commit_waiters_.begin()->second);
      commit_waiters_.erase(commit_waiters_.begin());
      waiter();
    }
  }
  if (promotion_barrier_ != 0 && applied_index_ >= promotion_barrier_) {
    promotion_barrier_ = 0;
    FinishPromotion();
  }
}

void Replicator::ApplyEntry(const ReplEntry& entry) {
  stats_.entries_applied++;
  storage::TransactionEngine& engine = node_->engine();
  const storage::TxnState state = engine.StateOf(entry.xid);
  switch (entry.type) {
    case ReplEntryType::kPrepare:
      break;  // staged only; nothing becomes visible until commit
    case ReplEntryType::kCommit:
      if (state == storage::TxnState::kPrepared ||
          state == storage::TxnState::kActive) {
        // Our engine still holds the branch (this replica led when it
        // executed): a local XA commit releases locks; the data is already
        // in place. It is this node's commit, counted as one.
        Status st = node_->CommitHeldBranch(entry.xid);
        if (!st.ok()) (void)engine.Rollback(entry.xid);
        node_->ForgetBranch(entry.xid.txn_id);
        if (st.ok()) break;
      }
      // Pure replica apply: idempotent absolute writes.
      for (const protocol::ReplWrite& w : entry.writes) {
        engine.store().Apply(w.key, w.value);
      }
      // Migration-ingest provenance: feed the migrator's journal, from
      // which a promoted destination leader resumes the stream.
      if (entry.ingest_migration_id != 0) {
        node_->OnIngestApplied(entry.ingest_migration_id,
                               entry.ingest_chunk_seq, entry.ingest_delta_seq,
                               entry.writes);
      }
      break;
    case ReplEntryType::kAbort:
      if (state == storage::TxnState::kPrepared ||
          state == storage::TxnState::kActive) {
        (void)engine.Rollback(entry.xid);
        node_->ForgetBranch(entry.xid.txn_id);
      }
      break;
    case ReplEntryType::kMigrationBegin:
    case ReplEntryType::kMigrationCutover:
    case ReplEntryType::kMigrationEnd:
      // Control metadata only: no store effect. Tracking happens at append
      // time; promotion reads unresolved_migrations_.
    case ReplEntryType::kNoop:
      break;
  }
}

// ---------------------------------------------------------------------------
// Crash / restart
// ---------------------------------------------------------------------------

void Replicator::OnCrash() {
  if (election_timer_ != runtime::kInvalidTimer) {
    loop()->Cancel(election_timer_);
    election_timer_ = runtime::kInvalidTimer;
  }
  if (heartbeat_timer_ != runtime::kInvalidTimer) {
    loop()->Cancel(heartbeat_timer_);
    heartbeat_timer_ = runtime::kInvalidTimer;
  }
  // The log keeps its durable prefix: an entry whose WAL record was still
  // pending dies with the record. Measured before the WAL drops them; the
  // engine's crash settles the branches of the cut entries.
  const uint64_t durable = shipper_.DurableIndex();
  election_.StepDown();
  RetireLeadership();
  CutLog(durable + 1);
  commit_waiters_.clear();
}

void Replicator::OnRestart() {
  last_leader_contact_ = loop()->Now();
  consistent_prefix_ = 0;  // must re-verify the log against the leader
  fresh_as_of_ = -1;
  ArmElectionTimer(group_.config.election_timeout +
                   ordinal_ * group_.config.election_stagger);
}

}  // namespace replication
}  // namespace geotp
