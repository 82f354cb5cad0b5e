#include "sharding/migrator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "datasource/data_source.h"
#include "protocol/wan_codec.h"

namespace geotp {
namespace sharding {

using protocol::MigrationRecord;
using protocol::ReplEntryType;
using protocol::ReplWrite;
using protocol::ShardCutoverReady;
using protocol::ShardDeltaAck;
using protocol::ShardDeltaBatch;
using protocol::ShardMapUpdate;
using protocol::ShardMigrateAborted;
using protocol::ShardMigrateCancel;
using protocol::ShardMigrateRequest;
using protocol::ShardSnapshotAck;
using protocol::ShardSnapshotChunk;

bool ShardMigrator::HandleMessage(runtime::MessageBase* msg) {
  switch (msg->type()) {
    case runtime::MessageType::kShardMigrateRequest:
      OnMigrateRequest(static_cast<ShardMigrateRequest&>(*msg));
      return true;
    case runtime::MessageType::kShardMigrateCancel:
      OnMigrateCancel(static_cast<ShardMigrateCancel&>(*msg));
      return true;
    case runtime::MessageType::kShardSnapshotChunk: {
      const auto& chunk = static_cast<const ShardSnapshotChunk&>(*msg);
      // A corrupt envelope is dropped whole — never half-applied; the
      // source's resend timer recovers it. Re-seed chunks (migration id 0)
      // belong to the Replicator.
      std::vector<ReplWrite> records;
      if (chunk.migration_id == 0 ||
          !protocol::OpenChunkPayload(chunk, &records)) {
        return true;
      }
      OnSnapshotChunk(chunk, std::move(records));
      return true;
    }
    case runtime::MessageType::kShardSnapshotAck:
      OnSnapshotAck(static_cast<ShardSnapshotAck&>(*msg));
      return true;
    case runtime::MessageType::kShardDeltaBatch:
      OnDeltaBatch(static_cast<ShardDeltaBatch&>(*msg));
      return true;
    case runtime::MessageType::kShardDeltaAck:
      OnDeltaAck(static_cast<ShardDeltaAck&>(*msg));
      return true;
    case runtime::MessageType::kShardMapUpdate:
      OnMapUpdate(static_cast<ShardMapUpdate&>(*msg));
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Routing checks
// ---------------------------------------------------------------------------

ShardMigrator::RouteCheck ShardMigrator::CheckOps(
    const std::vector<protocol::ClientOp>& ops,
    const ShardRange** moved) const {
  for (const protocol::ClientOp& op : ops) {
    for (const Outbound& out : outbound_) {
      if (out.fenced && out.range.Contains(op.key)) {
        return RouteCheck::kFenced;
      }
    }
  }
  if (map_.empty()) return RouteCheck::kServe;
  const NodeId self = node_->logical_id();
  for (const protocol::ClientOp& op : ops) {
    const ShardRange* range = map_.RangeOf(op.key);
    if (range != nullptr && range->owner != self) {
      if (moved != nullptr) *moved = range;
      return RouteCheck::kMoved;
    }
  }
  return RouteCheck::kServe;
}

bool ShardMigrator::OwnsKeys(const std::vector<RecordKey>& keys) const {
  if (map_.empty()) return true;
  const NodeId self = node_->logical_id();
  for (const RecordKey& key : keys) {
    const ShardRange* range = map_.RangeOf(key);
    if (range != nullptr && range->owner != self) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Source role: chunked streaming under receiver-driven credit
// ---------------------------------------------------------------------------

ShardMigrator::Outbound* ShardMigrator::FindOutbound(uint64_t migration_id) {
  for (Outbound& out : outbound_) {
    if (out.id == migration_id) return &out;
  }
  return nullptr;
}

void ShardMigrator::OnMigrateRequest(const ShardMigrateRequest& req) {
  // Only the current leader of the source group runs migrations; a
  // follower (or a deposed leader) ignores the request and the balancer's
  // timeout cancels it.
  replication::Replicator* repl = node_->replicator();
  if (repl != nullptr && !repl->IsLeader()) return;
  if (Outbound* existing = FindOutbound(req.migration_id)) {
    // Duplicate — unless the balancer re-pointed the stream at a new
    // destination leader (the old one failed over). Re-send everything
    // unacked there, verbatim: the new leader re-acks what its group
    // already applied and the stream carries on from its position.
    if (req.dest_leader != kInvalidNode &&
        req.dest_leader != existing->dest_leader) {
      existing->dest_leader = req.dest_leader;
      if (existing->chunks != nullptr) {
        existing->chunks->Redirect(req.dest_leader);
      }
      for (const auto& [seq, writes] : existing->unacked_deltas) {
        SendDelta(*existing, seq, writes);
      }
    }
    return;
  }
  stats_.migrations_started++;
  Outbound out;
  out.id = req.migration_id;
  out.range = req.range;
  out.dest = req.dest;
  out.dest_leader =
      req.dest_leader != kInvalidNode ? req.dest_leader : req.dest;
  out.new_version = req.new_version;
  out.balancer = req.from;
  out.timeout = req.timeout;
  const uint64_t id = out.id;
  ArmSelfCancel(id, req.timeout);
  outbound_.push_back(std::move(out));
  if (repl != nullptr) {
    // Journal the Begin record before any chunk leaves the node: a
    // failover mid-stream then finds the migration in the log and aborts
    // it deterministically instead of leaving the destination with an
    // orphaned half-stream only a timeout can clean up.
    JournalMigrationRecord(ReplEntryType::kMigrationBegin, outbound_.back(),
                           [this, id]() {
                             Outbound* begun = FindOutbound(id);
                             if (begun == nullptr) return;  // cancelled
                             begun->begin_logged = true;
                             StartStream(*begun);
                           });
  } else {
    StartStream(outbound_.back());
  }
}

void ShardMigrator::ArmSelfCancel(uint64_t migration_id, Micros timeout) {
  // If neither the balancer's cancel nor a cutover publish arrives (the
  // balancer may have died), unfence rather than refuse the range's traffic
  // forever. Twice the balancer's own timeout, so its cancel always wins.
  node_->timer()->Schedule(
      timeout > 0 ? 2 * timeout : SecToMicros(30), [this, migration_id]() {
        protocol::ShardMigrateCancel cancel;
        cancel.migration_id = migration_id;
        OnMigrateCancel(cancel);
      });
}

void ShardMigrator::StartStream(Outbound& out) {
  ShardSnapshotChunk header;
  header.from = node_->id();
  header.to = out.dest_leader;
  header.migration_id = out.id;
  header.group = out.dest;
  header.range = out.range;
  // Chunk values are read at cut time: they already include post-cut
  // commits, which also forward as deltas. Absolute values make the
  // duplicate application idempotent, and the destination's delta-written
  // skip keeps the newer delta value when the orders race.
  out.chunks = std::make_unique<replication::SnapshotSender>(
      node_, std::move(header),
      [range = out.range](const RecordKey& key) { return range.Contains(key); },
      &stats_.stream);
  out.chunks->Pump();
}

void ShardMigrator::SendDelta(const Outbound& out, uint64_t seq,
                              std::vector<ReplWrite> writes) {
  auto batch = std::make_unique<ShardDeltaBatch>();
  batch->from = node_->id();
  batch->to = out.dest_leader;
  batch->migration_id = out.id;
  batch->seq = seq;
  batch->writes = std::move(writes);
  node_->transport()->Send(std::move(batch));
}

void ShardMigrator::OnSnapshotAck(const ShardSnapshotAck& ack) {
  Outbound* out = FindOutbound(ack.migration_id);
  if (out == nullptr || out->chunks == nullptr ||
      !out->chunks->OnAck(ack)) {
    return;
  }
  out->chunks.reset();
  FenceRange(*out);
  MaybeReportCutover(*out);
}

void ShardMigrator::OnMigrateCancel(const ShardMigrateCancel& req) {
  // Destination side: drop the ordering buffer and tombstone the id so a
  // straggler (or retransmitted, or cancel-outrun) chunk cannot recreate
  // it — its stale records could overwrite a later migration of the same
  // range. Records already applied stay in the store as unreachable
  // garbage (the map never moved).
  inbound_.erase(req.migration_id);
  ingest_journal_.erase(req.migration_id);
  retired_inbound_.insert(req.migration_id);
  for (auto it = outbound_.begin(); it != outbound_.end(); ++it) {
    if (it->id == req.migration_id) {
      stats_.migrations_cancelled++;
      JournalEnd(*it);
      outbound_.erase(it);  // unfences the range
      return;
    }
  }
}

void ShardMigrator::FenceRange(Outbound& out) {
  out.fenced = true;
  // Abort in-flight ACTIVE branches touching the range (the client driver
  // retries them; post-cutover they route to the destination). PREPARED
  // branches drain: their decision resolves here and commit write sets
  // still forward as deltas. So does an active branch whose commit entry
  // is in the log: it is decided.
  std::vector<TxnId> to_abort;
  for (const auto& [txn, info] : node_->branches_) {
    const Xid xid{txn, node_->logical_id()};
    if (node_->engine().StateOf(xid) != storage::TxnState::kActive ||
        node_->CommitLogged(txn)) {
      continue;
    }
    for (const RecordKey& key : info.keys) {
      if (out.range.Contains(key)) {
        to_abort.push_back(txn);
        break;
      }
    }
  }
  for (TxnId txn : to_abort) node_->AbortBranch(txn);
  stats_.fence_aborts += to_abort.size();
}

void ShardMigrator::OnCommittedWrites(
    const std::vector<std::pair<RecordKey, int64_t>>& writes) {
  for (Outbound& out : outbound_) {
    std::vector<ReplWrite> intersecting;
    for (const auto& [key, value] : writes) {
      if (out.range.Contains(key)) {
        intersecting.push_back(ReplWrite{key, value});
      }
    }
    if (intersecting.empty()) continue;
    const uint64_t seq = out.next_seq++;
    stats_.delta_batches_sent++;
    stats_.delta_writes_sent += intersecting.size();
    SendDelta(out, seq, intersecting);
    out.unacked_deltas[seq] = std::move(intersecting);
  }
}

void ShardMigrator::OnDeltaAck(const ShardDeltaAck& ack) {
  Outbound* out = FindOutbound(ack.migration_id);
  if (out == nullptr) return;
  out->unacked_deltas.erase(out->unacked_deltas.begin(),
                            out->unacked_deltas.upper_bound(ack.seq));
  MaybeReportCutover(*out);
}

void ShardMigrator::OnBranchResolved() {
  for (Outbound& out : outbound_) MaybeReportCutover(out);
}

void ShardMigrator::MaybeReportCutover(Outbound& out) {
  // Fenced: every chunk is acked (the fence follows the stream).
  if (!out.fenced || out.cutover_reported) return;
  if (!out.unacked_deltas.empty()) return;  // deltas in flight
  // Any live branch still touching the range (a prepared branch awaiting
  // its decision) blocks the cutover: its commit must forward first.
  for (const auto& [txn, info] : node_->branches_) {
    for (const RecordKey& key : info.keys) {
      if (out.range.Contains(key)) return;
    }
  }
  // Prepared branches installed by a failover (InstallPreparedBranch)
  // have no branches_ entry; check the engine's in-doubt set directly —
  // their write sets must still forward as deltas when decided.
  for (const Xid& xid : node_->engine().PreparedXids()) {
    for (const auto& [key, value] : node_->engine().WriteSetOf(xid)) {
      if (out.range.Contains(key)) return;
    }
  }
  replication::Replicator* repl = node_->replicator();
  if (repl != nullptr && out.begin_logged) {
    if (out.cutover_logged) {
      SendCutoverReady(out, /*logged=*/true);
      return;
    }
    if (out.cutover_pending) return;  // record already replicating
    // Seal the migration in the group log BEFORE reporting: the fence now
    // survives a source failover (a promoted leader re-fences from the
    // record and re-reports), so the balancer's publish cannot race a
    // leadership change into a lost write.
    out.cutover_pending = true;
    const uint64_t id = out.id;
    JournalMigrationRecord(ReplEntryType::kMigrationCutover, out,
                           [this, id]() {
                             Outbound* sealed = FindOutbound(id);
                             if (sealed == nullptr) return;  // cancelled
                             sealed->cutover_pending = false;
                             sealed->cutover_logged = true;
                             MaybeReportCutover(*sealed);
                           });
    return;
  }
  SendCutoverReady(out, /*logged=*/false);
}

void ShardMigrator::SendCutoverReady(Outbound& out, bool logged) {
  out.cutover_reported = true;
  stats_.cutovers_reported++;
  auto ready = std::make_unique<ShardCutoverReady>();
  ready->from = node_->id();
  ready->to = out.balancer;
  ready->migration_id = out.id;
  ready->range = out.range;
  ready->range.owner = out.dest;
  ready->range.version = out.new_version;
  ready->logged = logged;
  node_->transport()->Send(std::move(ready));
}

// ---------------------------------------------------------------------------
// Replicated migration state (source side)
// ---------------------------------------------------------------------------

void ShardMigrator::JournalMigrationRecord(ReplEntryType type,
                                           const Outbound& out,
                                           std::function<void()> on_quorum) {
  replication::Replicator* repl = node_->replicator();
  if (repl == nullptr || !repl->IsLeader()) return;
  MigrationRecord record;
  record.migration_id = out.id;
  record.range = out.range;
  if (type == ReplEntryType::kMigrationCutover) {
    record.range.owner = out.dest;
    record.range.version = out.new_version;
    // All deltas were acked (MaybeReportCutover precondition), so this is
    // the exact resume point: a promoted leader continues the delta
    // sequence here for drain commits of installed prepared branches.
    record.delta_next_seq = out.next_seq;
  }
  record.dest = out.dest;
  record.dest_leader = out.dest_leader;
  record.new_version = out.new_version;
  record.balancer = out.balancer;
  record.timeout = out.timeout;
  repl->ReplicateMigrationRecord(type, record, std::move(on_quorum));
}

void ShardMigrator::JournalEnd(const Outbound& out) {
  // Keyed on the replicator's tracking, NOT on begin_logged: a cancel can
  // land inside the Begin record's quorum round trip, and the Begin was
  // already appended (and is pinning compaction) the moment it entered
  // the log. Leaders append the End; a deposed leader skips it and the
  // promoted leader resolves the record at promotion instead.
  replication::Replicator* repl = node_->replicator();
  if (repl == nullptr || !repl->HasUnresolvedMigration(out.id)) return;
  JournalMigrationRecord(ReplEntryType::kMigrationEnd, out, nullptr);
}

void ShardMigrator::OnInheritedMigrations(
    const std::vector<replication::Replicator::InheritedMigration>&
        migrations) {
  replication::Replicator* repl = node_->replicator();
  for (const auto& inherited : migrations) {
    const MigrationRecord& record = inherited.record;
    if (FindOutbound(record.migration_id) != nullptr) continue;
    if (!inherited.cutover_logged) {
      // Begin only: the stream and fence state died with the deposed
      // leader. Abort deterministically — journal the End, flush the
      // destination's half-applied buffer, tell the balancer so it
      // cancels now instead of at the timeout. The range keeps serving
      // here; placement never changed.
      stats_.migration_aborts_from_log++;
      GEOTP_INFO("migrator " << node_->id() << ": aborting inherited "
                             << "migration " << record.migration_id
                             << " from the log (no cutover record)");
      if (repl != nullptr && repl->IsLeader()) {
        MigrationRecord end = record;
        repl->ReplicateMigrationRecord(ReplEntryType::kMigrationEnd, end,
                                       nullptr);
      }
      auto cancel = std::make_unique<ShardMigrateCancel>();
      cancel->from = node_->id();
      cancel->to = record.dest_leader;
      cancel->migration_id = record.migration_id;
      node_->transport()->Send(std::move(cancel));
      auto aborted = std::make_unique<ShardMigrateAborted>();
      aborted->from = node_->id();
      aborted->to = record.balancer;
      aborted->migration_id = record.migration_id;
      node_->transport()->Send(std::move(aborted));
      continue;
    }
    // Cutover logged: the migration is sealed — every chunk and delta is
    // quorum-durable at the destination. Re-fence the range (BEFORE the
    // leadership announce, so no DM can route new work onto it) and
    // re-report readiness; the balancer publishes even though our epoch
    // moved, because the journaled record — not the deposed leader's
    // volatile fence — is what guarantees the transfer.
    stats_.migration_resumes++;
    GEOTP_INFO("migrator " << node_->id() << ": resuming migration "
                           << record.migration_id
                           << " from the journaled cutover record");
    Outbound out;
    out.id = record.migration_id;
    out.range = record.range;  // owner = dest per the cutover record;
                               // fencing tests span only
    out.dest = record.dest;
    out.dest_leader = record.dest_leader;
    out.new_version = record.new_version;
    out.balancer = record.balancer;
    out.timeout = record.timeout;
    out.begin_logged = true;
    out.cutover_logged = true;
    out.next_seq = std::max<uint64_t>(1, record.delta_next_seq);
    ArmSelfCancel(out.id, record.timeout);
    outbound_.push_back(std::move(out));
    FenceRange(outbound_.back());
    MaybeReportCutover(outbound_.back());
  }
}

// ---------------------------------------------------------------------------
// Destination role: ordered ingest, credit grants, delta interleave
// ---------------------------------------------------------------------------

void ShardMigrator::ApplyRecords(std::vector<ReplWrite> records,
                                 uint64_t migration_id, uint64_t chunk_seq,
                                 uint64_t delta_seq,
                                 std::function<bool()> still_valid,
                                 std::function<void()> done) {
  // Bulk ingest takes real engine time, charged per chunk (per-record
  // cost x chunk size); the records become visible — and durable, and
  // acked — only when it completes. This is what makes an oversized
  // migration's transfer time scale with its resident data, and why the
  // balancer splits a hot sub-range out of a big chunk instead of
  // shipping all of it.
  const Micros cost =
      static_cast<Micros>(records.size()) *
      node_->config().migration_apply_cost;
  node_->timer()->Schedule(
      cost, [this, records = std::move(records), migration_id, chunk_seq,
             delta_seq, still_valid = std::move(still_valid),
             done = std::move(done)]() mutable {
        if (node_->crashed()) return;
        if (!still_valid()) return;  // cancelled during the ingest delay
        replication::Replicator* repl = node_->replicator();
        if (repl != nullptr) {
          // A deposed leader leaves the ingest to the next one, which
          // finds it unapplied in the group's journal.
          if (!repl->IsLeader()) return;
          // Funnel through the replica group's log: the records apply on
          // every replica, this leader included, as the entry commits
          // (Replicator::ApplyEntry), and the ack waits for that apply
          // here. The entry is tagged with the stream position it covers,
          // journaling the chunk ack itself. The synthetic xid never
          // collides with coordinator txn ids (middleware ordinals are
          // small; 0xFFFF is reserved).
          const Xid xid{
              MakeTxnId(0xFFFFu,
                        (static_cast<uint64_t>(node_->id()) << 24) |
                            ++synthetic_seq_),
              node_->logical_id()};
          repl->ReplicateIngest(xid, std::move(records), migration_id,
                                chunk_seq, delta_seq, std::move(done));
          return;
        }
        for (const ReplWrite& w : records) {
          node_->engine().store().Apply(w.key, w.value);
        }
        done();
      });
}

uint64_t ShardMigrator::Term() const {
  const replication::Replicator* repl = node_->replicator();
  return repl != nullptr ? repl->epoch() : 0;
}

ShardMigrator::Inbound& ShardMigrator::InboundFor(uint64_t migration_id) {
  auto [it, fresh] = inbound_.try_emplace(migration_id);
  Inbound& in = it->second;
  if (fresh) {
    in.chunks =
        replication::SnapshotReceiver(node_->config().migration_stream_window);
  }
  const uint64_t term = Term();
  if (in.term == term) return in;
  // First ingest traffic of this leadership term. An ingest started in an
  // earlier term never completes here (its ack belonged to that term), and
  // the group may have applied more of the stream than this replica led:
  // the journal is complete by now, as ingest traffic parks until the
  // promotion barrier clears.
  in.term = term;
  in.applying = false;
  auto journaled = ingest_journal_.find(migration_id);
  if (journaled != ingest_journal_.end()) {
    const IngestJournal& journal = journaled->second;
    in.chunks.MarkApplied(journal.chunk_seq);
    in.deltas.MarkApplied(journal.delta_seq);
    in.delta_written.insert(journal.delta_keys.begin(),
                            journal.delta_keys.end());
  }
  return in;
}

void ShardMigrator::SendChunkAck(const Inbound& in, uint64_t migration_id,
                                 NodeId source) {
  auto ack = std::make_unique<ShardSnapshotAck>();
  ack->from = node_->id();
  ack->to = source;
  ack->migration_id = migration_id;
  in.chunks.FillAck(ack.get());
  node_->transport()->Send(std::move(ack));
}

void ShardMigrator::OnSnapshotChunk(const ShardSnapshotChunk& chunk,
                                    std::vector<ReplWrite> records) {
  replication::Replicator* repl = node_->replicator();
  if (repl != nullptr && !repl->IsLeader()) return;  // balancer will retry
  if (retired_inbound_.count(chunk.migration_id) > 0) return;  // cancelled
  Inbound& in = InboundFor(chunk.migration_id);
  if (in.range.hi == 0) in.range = chunk.range;
  if (!in.chunks.Offer(chunk.seq, chunk.last, std::move(records),
                       &stats_.stream)) {
    // Retransmit of an applied chunk (its ack was lost, or the group
    // applied it under an earlier leader): re-ack the current position so
    // the source advances.
    SendChunkAck(in, chunk.migration_id, chunk.from);
    return;
  }
  DrainIngest(chunk.migration_id, chunk.from);
}

void ShardMigrator::OnDeltaBatch(const ShardDeltaBatch& batch) {
  replication::Replicator* repl = node_->replicator();
  if (repl != nullptr && !repl->IsLeader()) return;
  if (retired_inbound_.count(batch.migration_id) > 0) return;  // cancelled
  Inbound& in = InboundFor(batch.migration_id);
  if (!in.deltas.Offer(batch.seq, false, batch.writes, nullptr)) {
    // Duplicate: re-ack the current position (see OnSnapshotChunk).
    SendDeltaAck(batch.migration_id, batch.from, in.deltas.applied());
    return;
  }
  DrainIngest(batch.migration_id, batch.from);
}

void ShardMigrator::SendDeltaAck(uint64_t migration_id, NodeId source,
                                 uint64_t seq) {
  auto ack = std::make_unique<ShardDeltaAck>();
  ack->from = node_->id();
  ack->to = source;
  ack->migration_id = migration_id;
  ack->seq = seq;
  node_->transport()->Send(std::move(ack));
}

void ShardMigrator::DrainIngest(uint64_t migration_id, NodeId source) {
  auto it = inbound_.find(migration_id);
  if (it == inbound_.end()) return;
  Inbound& in = it->second;
  if (in.applying) return;  // one bounded ingest at a time
  // An ingest belongs to the term that started it: a later term lifted
  // (or will lift) the position from the journal instead.
  const uint64_t term = in.term;
  const auto live_in_term = [this, migration_id, term]() -> Inbound* {
    auto live = inbound_.find(migration_id);
    if (live == inbound_.end() || live->second.term != term ||
        Term() != term) {
      return nullptr;
    }
    return &live->second;
  };
  const auto still_inbound = [live_in_term]() {
    Inbound* live = live_in_term();
    return live != nullptr && live->applying;
  };

  // Deltas first: they are small, carry post-cut (newer) values, and
  // applying them promptly is what lets them interleave behind the chunk
  // cursor instead of queueing until the stream ends (the drain at
  // cutover waits on their acks). A gap in the delta sequence falls
  // through to the chunk stream below.
  uint64_t seq = 0;
  std::vector<ReplWrite> writes;
  if (in.deltas.Next(&seq, &writes)) {
    in.applying = true;
    for (const ReplWrite& w : writes) in.delta_written.insert(w.key);
    ApplyRecords(std::move(writes), migration_id, 0, seq, still_inbound,
                 [this, source, migration_id, seq, live_in_term]() {
                   Inbound* live = live_in_term();
                   if (live == nullptr) return;  // cancelled or deposed
                   live->applying = false;
                   live->deltas.MarkApplied(seq);
                   stats_.delta_batches_applied++;
                   SendDeltaAck(migration_id, source, seq);
                   DrainIngest(migration_id, source);
                 });
    return;
  }

  // Chunks, in sequence order; out-of-order arrivals (independent
  // per-message link delays) wait in the receiver's bounded buffer.
  if (!in.chunks.Next(&seq, &writes)) return;
  // Deltas interleave behind the stream cursor: any key a delta already
  // wrote carries a post-cut (newer) value, so the chunk's committed-cut
  // copy must not overwrite it. Ingests are serialized by the `applying`
  // flag, so the set cannot change during this one.
  const auto superseded = std::remove_if(
      writes.begin(), writes.end(), [&in](const ReplWrite& w) {
        return in.delta_written.count(w.key) > 0;
      });
  stats_.chunk_records_superseded += writes.end() - superseded;
  writes.erase(superseded, writes.end());
  const size_t record_count = writes.size();
  in.applying = true;
  ApplyRecords(std::move(writes), migration_id, seq, 0, still_inbound,
               [this, migration_id, source, seq, record_count,
                live_in_term]() {
                 Inbound* live = live_in_term();
                 if (live == nullptr) return;  // cancelled or deposed
                 live->applying = false;
                 live->chunks.MarkApplied(seq);
                 // Counted only here: a cancel or crash during the ingest
                 // delay means the records never hit the store.
                 stats_.snapshot_chunks_applied++;
                 stats_.snapshot_records_applied += record_count;
                 SendChunkAck(*live, migration_id, source);
                 DrainIngest(migration_id, source);
               });
}

void ShardMigrator::NoteIngestApplied(uint64_t migration_id,
                                      uint64_t chunk_seq, uint64_t delta_seq,
                                      const std::vector<ReplWrite>& writes) {
  if (retired_inbound_.count(migration_id) > 0) return;
  IngestJournal& journal = ingest_journal_[migration_id];
  journal.chunk_seq = std::max(journal.chunk_seq, chunk_seq);
  if (delta_seq == 0) return;
  journal.delta_seq = std::max(journal.delta_seq, delta_seq);
  for (const ReplWrite& w : writes) journal.delta_keys.insert(w.key);
}

// ---------------------------------------------------------------------------
// Map adoption / lifecycle
// ---------------------------------------------------------------------------

void ShardMigrator::OnMapUpdate(const ShardMapUpdate& update) {
  map_.Adopt(update.entries);
  // Migrations whose range the map now places at the destination are
  // complete: journal their End record (the log must stop pinning them)
  // and drop their state (redirects come from the map from here on).
  const NodeId self = node_->logical_id();
  for (auto it = outbound_.begin(); it != outbound_.end();) {
    const ShardRange* range =
        map_.RangeOf(RecordKey{it->range.table, it->range.lo});
    if (range != nullptr && range->owner != self) {
      JournalEnd(*it);
      it = outbound_.erase(it);
    } else {
      ++it;
    }
  }
  // Destination side: once the map places a migration's range here, its
  // stream is over (the source only reported cutover after every chunk
  // and delta was acked) — the ordering buffer can go. This leader may
  // never have seen the last chunk: a predecessor may have applied it.
  for (auto it = inbound_.begin(); it != inbound_.end();) {
    const ShardRange& moving = it->second.range;
    const ShardRange* range = map_.RangeOf(RecordKey{moving.table, moving.lo});
    const bool complete = moving.hi != 0 && range != nullptr &&
                          range->owner == self &&
                          range->version >= moving.version;
    if (complete) {
      retired_inbound_.insert(it->first);
      ingest_journal_.erase(it->first);
      it = inbound_.erase(it);
    } else {
      ++it;
    }
  }
}

void ShardMigrator::OnCrash() {
  outbound_.clear();
  inbound_.clear();
}

}  // namespace sharding
}  // namespace geotp
