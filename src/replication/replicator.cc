#include "replication/replicator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "datasource/data_source.h"
#include "protocol/wan_codec.h"

namespace geotp {
namespace replication {

namespace {

/// Store-scan ordering shared by the offer builder (leader) and the span
/// hasher (follower): digests only match if both sides pack a span's
/// records in the same order.
bool KeyLess(const RecordKey& a, const RecordKey& b) {
  if (a.table != b.table) return a.table < b.table;
  return a.key < b.key;
}

std::vector<protocol::ReplWrite> SortedCommittedRecords(
    storage::TransactionEngine& engine) {
  std::vector<protocol::ReplWrite> records;
  for (const auto& [key, value] : engine.CommittedRecords()) {
    records.push_back(protocol::ReplWrite{key, value});
  }
  std::sort(records.begin(), records.end(),
            [](const protocol::ReplWrite& a, const protocol::ReplWrite& b) {
              return KeyLess(a.key, b.key);
            });
  return records;
}

/// Packs this replica's committed records within [lo, hi] (inclusive) in
/// canonical order — hash-comparable against a SeedDigest for the span.
uint64_t SpanHash(storage::TransactionEngine& engine, const RecordKey& lo,
                  const RecordKey& hi) {
  std::vector<protocol::ReplWrite> records;
  for (const auto& [key, value] : engine.CommittedRecords(
           [&lo, &hi](const RecordKey& key) {
             return !KeyLess(key, lo) && !KeyLess(hi, key);
           })) {
    records.push_back(protocol::ReplWrite{key, value});
  }
  std::sort(records.begin(), records.end(),
            [](const protocol::ReplWrite& a, const protocol::ReplWrite& b) {
              return KeyLess(a.key, b.key);
            });
  return common::ContentHash64(protocol::PackWrites(records));
}

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
using protocol::VoteMessage;

Replicator::Replicator(datasource::DataSourceNode* node, GroupConfig group)
    : node_(node),
      group_(std::move(group)),
      election_(node->id(), group_.QuorumSize()),
      shipper_(node->id(), node->network(), node->loop(), &log_) {
  GEOTP_CHECK(!group_.replicas.empty(), "empty replica group");
  auto it = std::find(group_.replicas.begin(), group_.replicas.end(),
                      node_->id());
  GEOTP_CHECK(it != group_.replicas.end(),
              "node " << node_->id() << " not in its replica group");
  ordinal_ = static_cast<int>(it - group_.replicas.begin());
  shipper_.set_snapshot_sender(
      [this](NodeId follower) { SendBootstrapSnapshot(follower); });
  shipper_.set_wan_compression(node_->config().wan_compression);
}

runtime::ITimer* Replicator::loop() const { return node_->loop(); }
runtime::ITransport* Replicator::network() const { return node_->network(); }
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
  // Everything at quorum was engine-applied while leading.
  follower_watermark_ =
      std::max(follower_watermark_, shipper_.commit_watermark());
  applied_index_ = std::max(applied_index_, shipper_.commit_watermark());
  shipper_.Deactivate();  // drops any pending promotion-barrier callbacks
  promotion_applies_pending_ = 0;
  bootstrap_streams_.clear();  // leader-only re-seed offers die with the term
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
// Leader-side durability hooks
// ---------------------------------------------------------------------------

void Replicator::ReplicatePrepare(const Xid& xid,
                                  std::vector<protocol::ReplWrite> writes,
                                  NodeId coordinator,
                                  QuorumCallback on_quorum) {
  GEOTP_CHECK(IsLeader(), "ReplicatePrepare on non-leader");
  if (const uint64_t staged = unresolved_prepares_.Get(xid.txn_id)) {
    // Duplicate (e.g. a middleware prepare retry): wait on the entry.
    shipper_.AwaitQuorum(staged, std::move(on_quorum));
    return;
  }
  ReplEntry entry;
  entry.type = ReplEntryType::kPrepare;
  entry.xid = xid;
  entry.coordinator = coordinator;
  entry.writes = std::move(writes);
  entry.at = loop()->Now();
  const uint64_t index =
      shipper_.AppendAndShip(std::move(entry), std::move(on_quorum));
  unresolved_prepares_.Add(xid.txn_id, index);
}

void Replicator::ReplicateCommit(const Xid& xid,
                                 std::vector<protocol::ReplWrite> writes,
                                 QuorumCallback on_quorum) {
  ReplicateIngest(xid, std::move(writes), 0, 0, 0, 0, std::move(on_quorum));
}

void Replicator::ReplicateIngest(const Xid& xid,
                                 std::vector<protocol::ReplWrite> writes,
                                 uint64_t migration_id, uint64_t chunk_seq,
                                 uint64_t delta_seq, uint64_t content_hash,
                                 QuorumCallback on_quorum) {
  GEOTP_CHECK(IsLeader(), "ReplicateIngest on non-leader");
  if (const uint64_t committed = commit_entries_.Get(xid.txn_id)) {
    shipper_.AwaitQuorum(committed, std::move(on_quorum));
    return;
  }
  unresolved_prepares_.Resolve(xid.txn_id);
  ReplEntry entry;
  entry.type = ReplEntryType::kCommit;
  entry.xid = xid;
  entry.writes = std::move(writes);
  entry.at = loop()->Now();
  entry.ingest_migration_id = migration_id;
  entry.ingest_chunk_seq = chunk_seq;
  entry.ingest_delta_seq = delta_seq;
  entry.ingest_content_hash = content_hash;
  const uint64_t index =
      shipper_.AppendAndShip(std::move(entry), std::move(on_quorum));
  commit_entries_.Put(xid.txn_id, index);
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
  entry.at = loop()->Now();
  const uint64_t index =
      shipper_.AppendAndShip(std::move(entry), std::move(on_quorum));
  // Mirror AppendTracked's bookkeeping for the leader's own append (the
  // shipper appends to the log directly).
  TrackMigrationRecord(type, record.migration_id, index);
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
  entry.at = loop()->Now();
  unresolved_prepares_.Resolve(txn);
  shipper_.AppendAndShip(std::move(entry), nullptr);
}

std::optional<uint64_t> Replicator::CommitEntryIndex(TxnId txn) const {
  const uint64_t index = commit_entries_.Get(txn);
  if (index == 0) return std::nullopt;
  return index;
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

bool Replicator::HandleMessage(runtime::MessageBase* msg) {
  switch (msg->type()) {
    case runtime::MessageType::kReplAppendRequest: {
      auto& req = static_cast<ReplAppendRequest&>(*msg);
      // A sealed frame opens into the entry vector the previous one left
      // behind (OnAppend moved its entries into the log), reusing its
      // capacity, and hands it back afterwards.
      const bool sealed = !req.payload.empty();
      if (sealed) req.entries.swap(opened_entries_);
      // A corrupt envelope (hash or bounds check failed) drops the whole
      // frame. No ack — the leader's heartbeat retransmit recovers.
      if (protocol::OpenAppendPayload(&req)) OnAppend(req);
      if (sealed) req.entries.swap(opened_entries_);
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
      // migration_id == 0 marks a replication bootstrap snapshot; shard
      // migration chunks fall through to the ShardMigrator.
      auto& chunk = static_cast<protocol::ShardSnapshotChunk&>(*msg);
      if (chunk.migration_id != 0 || chunk.group != group_.logical) {
        return false;
      }
      if (!protocol::OpenChunkPayload(&chunk)) {
        return true;  // corrupt: drop; the next re-offer round recovers
      }
      OnBootstrapSnapshot(chunk);
      return true;
    }
    case runtime::MessageType::kShardSeedOffer: {
      const auto& offer = static_cast<protocol::ShardSeedOffer&>(*msg);
      if (offer.migration_id != 0 || offer.group != group_.logical) {
        return false;  // migration-resume offer: the ShardMigrator handles it
      }
      OnSeedOffer(offer);
      return true;
    }
    case runtime::MessageType::kShardSeedDecline: {
      const auto& decline = static_cast<protocol::ShardSeedDecline&>(*msg);
      if (decline.migration_id != 0 || decline.group != group_.logical) {
        return false;
      }
      OnSeedDecline(decline);
      return true;
    }
    default:
      return false;
  }
}

void Replicator::OnAppend(ReplAppendRequest& req) {
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

  for (ReplEntry& entry : req.entries) {
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
    AppendTracked(std::move(entry));
  }

  const uint64_t verified = req.prev_index + req.entries.size();
  compact_floor_ = std::max(compact_floor_, req.compact_floor);
  consistent_prefix_ = std::max(consistent_prefix_, verified);
  follower_watermark_ = std::max(
      follower_watermark_, std::min(req.commit_watermark, consistent_prefix_));
  ApplyCommitted(follower_watermark_);
  if (applied_index_ >= req.commit_watermark) {
    fresh_as_of_ = loop()->Now();
  }
  MaybeTruncateLog();
  ack->ok = true;
  ack->ack_index = consistent_prefix_;
  network()->Send(std::move(ack));
}

void Replicator::AppendTracked(ReplEntry entry) {
  const uint64_t index = log_.Append(std::move(entry));
  const ReplEntry& appended = log_.At(index);
  switch (appended.type) {
    case ReplEntryType::kPrepare:
      unresolved_prepares_.Add(appended.xid.txn_id, index);
      break;
    case ReplEntryType::kCommit:
      unresolved_prepares_.Resolve(appended.xid.txn_id);
      commit_entries_.Put(appended.xid.txn_id, index);
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
  }
}

void Replicator::MaybeTruncateLog() {
  // Safe compaction point: everything at quorum that this replica already
  // reflects, bounded by what EVERY group member already holds (a
  // truncated entry can never be re-shipped, and any replica may be the
  // next leader). The leader computes that bound as its min follower
  // match index; followers learn it as the append-carried compact_floor.
  // A leader reflects its whole quorum-durable prefix through local
  // engine commits, so applied_index_ (a follower-side notion) only
  // bounds followers. Unresolved prepares are pinned: a promotion must
  // still install them as in-doubt branches.
  uint64_t safe = commit_watermark();
  if (IsLeader()) {
    safe = std::min(safe, shipper_.MinMatchIndex());
  } else {
    safe = std::min({safe, applied_index_, compact_floor_});
  }
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
  log_.TruncateFrom(from);
  unresolved_prepares_.EraseFrom(from);
  commit_entries_.EraseFrom(from);
  for (auto it = unresolved_migrations_.begin();
       it != unresolved_migrations_.end();) {
    if (it->second.begin_index >= from) {
      it = unresolved_migrations_.erase(it);
      continue;
    }
    if (it->second.cutover_index >= from) it->second.cutover_index = 0;
    ++it;
  }
  consistent_prefix_ = std::min(consistent_prefix_, from - 1);
}

void Replicator::OnAppendAck(const ReplAppendAck& ack) {
  if (ack.epoch > election_.epoch()) {
    // A replica moved to a newer epoch: our leadership (if any) is over.
    election_.ObserveEpoch(ack.epoch);
    SyncRoleState();
    return;
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
  resp->voter_last_index = log_.last_index();
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
  // The shipper re-fires this every heartbeat while the follower's next
  // entry stays compacted away; an offer round takes a couple of round
  // trips, so only re-offer after a quiet period. A re-offer is harmless
  // beyond the bytes: the follower re-declines (now including any chunks
  // it applied from the interrupted round) and the leader ships the rest.
  auto it = bootstrap_streams_.find(follower);
  if (it != bootstrap_streams_.end() &&
      loop()->Now() - it->second.offered_at <
          2 * group_.config.heartbeat_interval) {
    return;
  }
  BootstrapStream& stream = bootstrap_streams_[follower];
  stream.offered_at = loop()->Now();
  // Position the follower's empty log at our compaction boundary: the
  // offered chunks cover every compacted entry's effects (they are our
  // CURRENT committed state, so re-applying the retained tail is
  // idempotent). Committed state only: live branches' in-place writes
  // stay out — their prepare entries are pinned above the compaction
  // point and ship with the tail.
  stream.base_index = log_.first_index() - 1;
  stream.base_epoch = log_.EpochAt(stream.base_index);
  stream.digests.clear();
  const std::vector<protocol::ReplWrite> records =
      SortedCommittedRecords(node_->engine());
  const size_t per_chunk =
      std::max<uint64_t>(1, node_->config().migration_chunk_records);
  for (size_t offset = 0; offset < records.size(); offset += per_chunk) {
    const size_t count = std::min(per_chunk, records.size() - offset);
    const std::vector<protocol::ReplWrite> slice(
        records.begin() + static_cast<ptrdiff_t>(offset),
        records.begin() + static_cast<ptrdiff_t>(offset + count));
    protocol::SeedDigest digest;
    digest.seq = stream.digests.size() + 1;
    digest.hash = common::ContentHash64(protocol::PackWrites(slice));
    digest.lo = slice.front().key;
    digest.hi = slice.back().key;
    digest.last = offset + count == records.size();
    stream.digests.push_back(digest);
  }
  auto offer = std::make_unique<protocol::ShardSeedOffer>();
  offer->from = self();
  offer->to = follower;
  offer->migration_id = 0;  // bootstrap, not a shard migration
  offer->group = group_.logical;
  offer->epoch = election_.epoch();
  offer->base_index = stream.base_index;
  offer->base_epoch = stream.base_epoch;
  offer->digests = stream.digests;
  stats_.bootstrap_offers_sent++;
  GEOTP_INFO("replica " << self() << ": bootstrap offer (base "
                        << stream.base_index << ", "
                        << stream.digests.size() << " chunks, "
                        << records.size() << " records) -> " << follower);
  network()->Send(std::move(offer));
}

void Replicator::OnSeedOffer(const protocol::ShardSeedOffer& offer) {
  if (offer.epoch < election_.epoch()) return;  // stale leader
  const bool epoch_changed = offer.epoch > election_.epoch();
  if (epoch_changed || election_.leader() != offer.from ||
      election_.role() != Role::kFollower) {
    election_.AdoptLeader(offer.from, offer.epoch);
    SyncRoleState();
  }
  last_leader_contact_ = loop()->Now();
  if (offer.base_index <= applied_index_) {
    // Already past the snapshot point (e.g. the previous round finished
    // and this is a straggler re-offer): a plain ack resumes normal
    // shipping of the retained tail.
    pending_bootstrap_.reset();
    auto ack = std::make_unique<ReplAppendAck>();
    ack->from = self();
    ack->to = offer.from;
    ack->group = group_.logical;
    ack->epoch = election_.epoch();
    ack->ok = true;
    ack->ack_index = consistent_prefix_;
    network()->Send(std::move(ack));
    return;
  }
  // Decline every chunk whose span this store already holds
  // byte-identically (journaled applies that survived a log wipe, or a
  // previous interrupted seed round). Keys are never deleted, so span
  // content matching the digest hash means the chunk is fully present.
  auto decline = std::make_unique<protocol::ShardSeedDecline>();
  decline->from = self();
  decline->to = offer.from;
  decline->migration_id = 0;
  decline->group = group_.logical;
  decline->epoch = election_.epoch();
  PendingBootstrap pending;
  pending.base_index = offer.base_index;
  pending.base_epoch = offer.base_epoch;
  for (const protocol::SeedDigest& digest : offer.digests) {
    if (SpanHash(node_->engine(), digest.lo, digest.hi) == digest.hash) {
      decline->declined.push_back(digest.seq);
    } else {
      pending.missing.insert(digest.seq);
    }
  }
  GEOTP_INFO("replica " << self() << ": seed offer (base "
                        << offer.base_index << "): declining "
                        << decline->declined.size() << "/"
                        << offer.digests.size() << " chunks");
  pending_bootstrap_ = std::move(pending);
  network()->Send(std::move(decline));
  if (pending_bootstrap_->missing.empty()) {
    // Everything declined (or an empty store offered): install directly.
    FinishBootstrapInstall();
  }
}

void Replicator::OnSeedDecline(const protocol::ShardSeedDecline& decline) {
  if (!IsLeader() || decline.epoch != election_.epoch()) return;
  auto it = bootstrap_streams_.find(decline.from);
  if (it == bootstrap_streams_.end()) return;  // no offer outstanding
  const BootstrapStream& stream = it->second;
  stats_.bootstrap_chunks_declined += decline.declined.size();
  const std::set<uint64_t> declined(decline.declined.begin(),
                                    decline.declined.end());
  const common::WireCodec codec =
      common::SenderCodec(node_->config().wan_compression);
  for (const protocol::SeedDigest& digest : stream.digests) {
    if (declined.count(digest.seq) > 0) continue;
    auto chunk = std::make_unique<protocol::ShardSnapshotChunk>();
    chunk->from = self();
    chunk->to = decline.from;
    chunk->migration_id = 0;
    chunk->group = group_.logical;
    chunk->epoch = election_.epoch();
    chunk->seq = digest.seq;
    chunk->last = digest.last;
    chunk->base_index = stream.base_index;
    chunk->base_epoch = stream.base_epoch;
    // Fresh scan of the span: content may have drifted since the offer
    // (commits keep landing), which is safe — values are absolute and
    // anything newer than base_index re-applies from the retained tail.
    for (const auto& [key, value] : node_->engine().CommittedRecords(
             [&digest](const RecordKey& key) {
               return !KeyLess(key, digest.lo) && !KeyLess(digest.hi, key);
             })) {
      chunk->records.push_back(protocol::ReplWrite{key, value});
    }
    std::sort(chunk->records.begin(), chunk->records.end(),
              [](const protocol::ReplWrite& a, const protocol::ReplWrite& b) {
                return KeyLess(a.key, b.key);
              });
    const protocol::EnvelopeBytes bytes =
        protocol::SealChunkPayload(codec, chunk.get());
    stats_.wan_bytes_raw += bytes.raw;
    stats_.wan_bytes_wire += bytes.wire;
    stats_.bootstrap_chunks_sent++;
    network()->Send(std::move(chunk));
  }
}

void Replicator::FinishBootstrapInstall() {
  GEOTP_CHECK(pending_bootstrap_.has_value(), "no bootstrap pending");
  const uint64_t base_index = pending_bootstrap_->base_index;
  const uint64_t base_epoch = pending_bootstrap_->base_epoch;
  pending_bootstrap_.reset();
  if (base_index > applied_index_) {
    log_.ResetTo(base_index, base_epoch);
    consistent_prefix_ = base_index;
    follower_watermark_ = base_index;
    applied_index_ = base_index;
    compact_floor_ = std::max(compact_floor_, base_index);
    unresolved_prepares_.clear();
    commit_entries_.clear();
    unresolved_migrations_.clear();
    fresh_as_of_ = loop()->Now();
    stats_.snapshot_installs++;
  }
  auto ack = std::make_unique<ReplAppendAck>();
  ack->from = self();
  ack->to = election_.leader();
  ack->group = group_.logical;
  ack->epoch = election_.epoch();
  ack->ok = true;
  ack->ack_index = consistent_prefix_;
  network()->Send(std::move(ack));
}

void Replicator::OnBootstrapSnapshot(
    const protocol::ShardSnapshotChunk& chunk) {
  // Stream chunks are numbered from 1; no sender produces seq 0.
  if (chunk.seq == 0) return;
  if (chunk.epoch < election_.epoch()) return;  // stale leader
  const bool epoch_changed = chunk.epoch > election_.epoch();
  if (epoch_changed || election_.leader() != chunk.from ||
      election_.role() != Role::kFollower) {
    election_.AdoptLeader(chunk.from, chunk.epoch);
    SyncRoleState();
  }
  last_leader_contact_ = loop()->Now();
  // Records apply immediately (the store persists them even across a
  // crash, turning them into declines on the next offer round); the log
  // repositions only once the last missing chunk lands.
  if (!pending_bootstrap_.has_value() ||
      pending_bootstrap_->base_index != chunk.base_index) {
    return;  // stale stream; the next offer round resynchronizes
  }
  for (const protocol::ReplWrite& w : chunk.records) {
    node_->engine().store().Apply(w.key, w.value);
  }
  pending_bootstrap_->missing.erase(chunk.seq);
  if (pending_bootstrap_->missing.empty()) FinishBootstrapInstall();
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
  pending_bootstrap_.reset();
  // NOTE: the committed store is deliberately KEPT (only the log device
  // is gone). The next seed offer hashes it span by span, so everything
  // journaled before the wipe comes back as declined chunks instead of
  // re-crossing the WAN.
}

// ---------------------------------------------------------------------------
// Timers, elections, role changes
// ---------------------------------------------------------------------------

void Replicator::ArmElectionTimer(Micros delay) {
  election_timer_ = loop()->Schedule(delay, [this]() {
    election_timer_ = sim::kInvalidEvent;
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
                       ? group_.config.election_retry_backoff + stagger
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
        heartbeat_timer_ = sim::kInvalidEvent;
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
        node_->loop()->Now());
  }
  GEOTP_INFO("replica " << self() << " leads group " << group_.logical
                        << " at epoch " << election_.epoch());
  // 1. Catch up the local store to the quorum-durable commit point.
  ApplyCommitted(follower_watermark_);
  // 2. Start shipping: followers re-verify their logs against ours.
  shipper_.Activate(group_.logical, election_.epoch(), Followers(),
                    group_.QuorumSize(), follower_watermark_);
  // 3. Commit/abort entries past our watermark (accepted from the old
  //    leader, quorum unknown): apply each locally once it reaches quorum
  //    under our term. The coordinating middleware re-sends decisions after
  //    the announce, which resolves idempotently against these entries.
  //    Until ALL of them have applied, the store is behind the log and
  //    this leader must not serve new branches: an exec admitted in the
  //    gap would read the pre-failover value under a lock the deferred
  //    raw apply then silently overwrites (lost update). The barrier
  //    (ReadyToServe) holds prepare installation, the announce, and the
  //    data source's parked client traffic until the last apply lands —
  //    at most one follower round trip, and if quorum is unreachable the
  //    group could not commit anything anyway.
  std::vector<uint64_t> inherited;
  for (uint64_t index = follower_watermark_ + 1; index <= log_.last_index();
       ++index) {
    const ReplEntryType type = log_.At(index).type;
    if (type != ReplEntryType::kCommit && type != ReplEntryType::kAbort) {
      continue;
    }
    inherited.push_back(index);
  }
  promotion_applies_pending_ = inherited.size();
  for (uint64_t index : inherited) {
    shipper_.AwaitQuorum(index, [this, index]() {
      ApplyEntry(log_.At(index));
      applied_index_ = std::max(applied_index_, index);
      GEOTP_CHECK(promotion_applies_pending_ > 0,
                  "promotion barrier underflow");
      if (--promotion_applies_pending_ == 0) FinishPromotion();
    });
  }
  ArmHeartbeatTimer();
  // With no inherited entries the barrier is already clear. (When there
  // are some, the LAST AwaitQuorum callback runs FinishPromotion — even
  // if it fired synchronously inside the loop above.)
  if (inherited.empty()) FinishPromotion();
}

void Replicator::FinishPromotion() {
  if (promotion_span_ != obs::kInvalidSpan) {
    obs::GlobalTracer().EndSpan(promotion_span_, node_->loop()->Now());
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
    if (node_->engine().StateOf(entry.xid) != storage::TxnState::kPrepared) {
      std::vector<std::pair<RecordKey, int64_t>> writes;
      writes.reserve(entry.writes.size());
      for (const protocol::ReplWrite& w : entry.writes) {
        writes.emplace_back(w.key, w.value);
      }
      Status st = node_->engine().InstallPreparedBranch(entry.xid, writes,
                                                        loop()->Now());
      GEOTP_CHECK(st.ok(), "installing staged prepare: " << st.ToString());
      stats_.prepared_installs++;
    }
    if (entry.coordinator != kInvalidNode) {
      auto vote = std::make_unique<VoteMessage>();
      vote->from = self();
      vote->to = entry.coordinator;
      vote->xid = entry.xid;
      vote->vote = Vote::kPrepared;
      network()->Send(std::move(vote));
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
  if (election_timer_ == sim::kInvalidEvent && !node_->crashed()) {
    ArmElectionTimer(group_.config.election_timeout +
                     ordinal_ * group_.config.election_stagger);
  }
}

// ---------------------------------------------------------------------------
// Apply path
// ---------------------------------------------------------------------------

void Replicator::ApplyCommitted(uint64_t target) {
  target = std::min(target, log_.last_index());
  while (applied_index_ < target) {
    ++applied_index_;
    ApplyEntry(log_.At(applied_index_));
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
        // in place.
        Status st = engine.Commit(entry.xid, loop()->Now());
        if (st.ok()) break;
        (void)engine.Rollback(entry.xid, loop()->Now());
      }
      // Pure replica apply: idempotent absolute writes.
      for (const protocol::ReplWrite& w : entry.writes) {
        engine.store().Apply(w.key, w.value);
      }
      // Migration-ingest provenance: feed the migrator's journal so a
      // promoted destination leader can decline re-offered chunks.
      if (entry.ingest_migration_id != 0) {
        node_->OnIngestApplied(entry.ingest_migration_id,
                               entry.ingest_chunk_seq, entry.ingest_delta_seq,
                               entry.ingest_content_hash);
      }
      break;
    case ReplEntryType::kAbort:
      if (state == storage::TxnState::kPrepared ||
          state == storage::TxnState::kActive) {
        (void)engine.Rollback(entry.xid, loop()->Now());
      }
      break;
    case ReplEntryType::kMigrationBegin:
    case ReplEntryType::kMigrationCutover:
    case ReplEntryType::kMigrationEnd:
      // Control metadata only: no store effect. Tracking happens at append
      // time; promotion reads unresolved_migrations_.
      break;
  }
}

// ---------------------------------------------------------------------------
// Crash / restart
// ---------------------------------------------------------------------------

void Replicator::OnCrash() {
  if (election_timer_ != sim::kInvalidEvent) {
    loop()->Cancel(election_timer_);
    election_timer_ = sim::kInvalidEvent;
  }
  if (heartbeat_timer_ != sim::kInvalidEvent) {
    loop()->Cancel(heartbeat_timer_);
    heartbeat_timer_ = sim::kInvalidEvent;
  }
  election_.StepDown();
  RetireLeadership();
  pending_bootstrap_.reset();  // reassembly state is volatile
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
