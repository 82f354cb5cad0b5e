#include "sharding/migrator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/wire.h"
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
      // source's resend timer recovers it. (Bootstrap chunks were already
      // consumed — and opened — by the Replicator.)
      std::vector<ReplWrite> records;
      if (!protocol::OpenChunkPayload(chunk, &records)) return true;
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

uint64_t ShardMigrator::UnackedChunks() const {
  uint64_t unacked = 0;
  for (const Outbound& out : outbound_) unacked += out.unacked.size();
  return unacked;
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
      ResendChunks(*existing);
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
  out.scan_cursor = req.range.lo;
  // Self-cancellation backstop: if neither the balancer's cancel nor a
  // cutover publish arrives (the balancer may have died), unfence rather
  // than refuse the range's traffic forever. Twice the balancer's own
  // timeout, so the normal cancel always wins the race.
  const Micros self_cancel =
      req.timeout > 0 ? 2 * req.timeout : SecToMicros(30);
  const uint64_t id = out.id;
  node_->timer()->Schedule(self_cancel, [this, id]() {
    protocol::ShardMigrateCancel cancel;
    cancel.migration_id = id;
    OnMigrateCancel(cancel);
  });
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
                             PumpChunks(id);
                           });
  } else {
    PumpChunks(id);
  }
}

void ShardMigrator::PumpChunks(uint64_t migration_id) {
  Outbound* out = FindOutbound(migration_id);
  if (out == nullptr || out->stream_complete || out->scan_exhausted ||
      out->next_chunk_seq > out->acked_chunk_seq + out->credit) {
    return;
  }
  const uint64_t chunk_cap =
      std::max<uint64_t>(1, node_->config().migration_chunk_records);
  // One committed-records scan + sort per pump, sliced into as many
  // chunks as the credit window allows (re-scanning per chunk would make
  // the stream quadratic in resident records). Values are read at send
  // time: they already include post-cut commits, which also forward as
  // deltas — absolute values make the duplicate application idempotent,
  // and the destination's delta-written skip keeps the newer delta value
  // when the orders race.
  const ShardRange range = out->range;
  const uint64_t cursor = out->scan_cursor;
  std::vector<ReplWrite> remainder;
  for (const auto& [key, value] : node_->engine().CommittedRecords(
           [&range, cursor](const RecordKey& key) {
             return range.Contains(key) && key.key >= cursor;
           })) {
    remainder.push_back(ReplWrite{key, value});
  }
  const auto by_key = [](const ReplWrite& a, const ReplWrite& b) {
    return a.key < b.key;
  };
  // Only the window's worth of smallest keys needs to be ordered; the
  // +1 extra element becomes the next pump's cursor. Selecting before
  // sorting keeps a pump O(remaining + window log window) instead of
  // fully sorting the remainder just to slice its head off.
  const size_t total = remainder.size();
  const uint64_t budget_chunks =
      out->acked_chunk_seq + out->credit - out->next_chunk_seq + 1;
  const size_t need = static_cast<size_t>(budget_chunks * chunk_cap + 1);
  if (total > need) {
    std::nth_element(remainder.begin(),
                     remainder.begin() + static_cast<ptrdiff_t>(need) - 1,
                     remainder.end(), by_key);
    remainder.resize(need);
  }
  std::sort(remainder.begin(), remainder.end(), by_key);
  size_t offset = 0;
  while (!out->scan_exhausted &&
         out->next_chunk_seq <= out->acked_chunk_seq + out->credit) {
    const size_t left = total - offset;
    const bool last = left <= chunk_cap;
    std::vector<ReplWrite> records(
        remainder.begin() + static_cast<ptrdiff_t>(offset),
        remainder.begin() +
            static_cast<ptrdiff_t>(offset + (last ? left : chunk_cap)));
    if (last) {
      out->scan_exhausted = true;
      out->last_chunk_seq = out->next_chunk_seq;
    } else {
      offset += chunk_cap;
      out->scan_cursor = remainder[offset].key.key;
    }
    const uint64_t seq = out->next_chunk_seq++;
    stats_.snapshot_chunks_sent++;
    stats_.snapshot_records_sent += records.size();
    SendChunk(*out, seq, records, last);
    if (obs::GlobalTracer().enabled()) {
      out->chunk_spans[seq] = obs::GlobalTracer().BeginSpan(
          obs::SystemContext(), "migrate.chunk", node_->id(),
          node_->timer()->Now());
    }
    out->unacked[seq] = std::move(records);
    stats_.peak_unacked_chunks = std::max<uint64_t>(
        stats_.peak_unacked_chunks, out->unacked.size());
  }
  out->last_progress_at = node_->timer()->Now();
  ArmResendTimer(migration_id);
}

void ShardMigrator::SendChunk(Outbound& out, uint64_t seq,
                              const std::vector<ReplWrite>& records,
                              bool last) {
  auto chunk = std::make_unique<ShardSnapshotChunk>();
  chunk->from = node_->id();
  chunk->to = out.dest_leader;
  chunk->migration_id = out.id;
  chunk->group = out.dest;
  chunk->range = out.range;
  chunk->seq = seq;
  chunk->last = last;
  protocol::SealChunkPayload(wire::Pack(records), chunk.get());
  stats_.wan_bytes_raw += chunk->payload_uncompressed_len;
  stats_.wan_bytes_wire += chunk->payload.size();
  node_->transport()->Send(std::move(chunk));
}

void ShardMigrator::ResendChunks(Outbound& out) {
  for (const auto& [seq, records] : out.unacked) {
    stats_.chunk_retransmits++;
    SendChunk(out, seq, records, seq == out.last_chunk_seq);
  }
  out.last_progress_at = node_->timer()->Now();
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

void ShardMigrator::ArmResendTimer(uint64_t migration_id) {
  Outbound* out = FindOutbound(migration_id);
  if (out == nullptr || out->resend_armed) return;
  out->resend_armed = true;
  const Micros check = node_->config().migration_resend_timeout;
  node_->timer()->Schedule(check, [this, migration_id]() {
    Outbound* late = FindOutbound(migration_id);
    if (late == nullptr || node_->crashed()) return;
    late->resend_armed = false;
    if (late->stream_complete || late->unacked.empty()) return;
    if (node_->timer()->Now() - late->last_progress_at >=
        node_->config().migration_resend_timeout) {
      // No progress in a full window: chunks (or their acks) were lost.
      // Re-send everything outstanding; duplicates re-ack at the
      // receiver's position, so a lost ack also recovers here.
      ResendChunks(*late);
    }
    ArmResendTimer(migration_id);
  });
}

void ShardMigrator::OnSnapshotAck(const ShardSnapshotAck& ack) {
  Outbound* out = FindOutbound(ack.migration_id);
  if (out == nullptr || out->stream_complete) return;
  // Take the grant only from acks at (or past) the current position: a
  // reordered older ack can carry a larger grant than the receiver's
  // buffer now has room for, and over-sending just gets chunks dropped
  // at the credit-overrun check — a resend-timeout stall for nothing.
  if (ack.seq >= out->acked_chunk_seq) {
    out->credit = std::max<uint64_t>(1, ack.credit);
  }
  if (ack.seq > out->acked_chunk_seq) {
    out->acked_chunk_seq = ack.seq;
    out->unacked.erase(out->unacked.begin(),
                       out->unacked.upper_bound(ack.seq));
    while (!out->chunk_spans.empty() &&
           out->chunk_spans.begin()->first <= ack.seq) {
      obs::GlobalTracer().EndSpan(out->chunk_spans.begin()->second,
                                  node_->timer()->Now());
      out->chunk_spans.erase(out->chunk_spans.begin());
    }
    out->last_progress_at = node_->timer()->Now();
  }
  if (out->last_chunk_seq != 0 &&
      out->acked_chunk_seq >= out->last_chunk_seq) {
    out->stream_complete = true;
    out->unacked.clear();
    stats_.streams_completed++;
    FenceRange(*out);
    MaybeReportCutover(*out);
    return;
  }
  PumpChunks(ack.migration_id);
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
  out->acked_seq = std::max(out->acked_seq, ack.seq);
  out->unacked_deltas.erase(
      out->unacked_deltas.begin(),
      out->unacked_deltas.upper_bound(out->acked_seq));
  MaybeReportCutover(*out);
}

void ShardMigrator::OnBranchResolved() {
  for (Outbound& out : outbound_) MaybeReportCutover(out);
}

void ShardMigrator::MaybeReportCutover(Outbound& out) {
  if (!out.fenced || !out.stream_complete || out.cutover_reported) return;
  if (out.acked_seq + 1 != out.next_seq) return;  // deltas in flight
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
    out.scan_exhausted = true;
    out.stream_complete = true;
    out.begin_logged = true;
    out.cutover_logged = true;
    out.resumed = true;
    out.next_seq = std::max<uint64_t>(1, record.delta_next_seq);
    out.acked_seq = out.next_seq - 1;
    const Micros self_cancel =
        record.timeout > 0 ? 2 * record.timeout : SecToMicros(30);
    const uint64_t id = out.id;
    node_->timer()->Schedule(self_cancel, [this, id]() {
      protocol::ShardMigrateCancel cancel;
      cancel.migration_id = id;
      OnMigrateCancel(cancel);
    });
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
  Inbound& in = inbound_[migration_id];
  const uint64_t term = Term();
  if (in.term == term) return in;
  // First ingest traffic of this leadership term. An ingest started in an
  // earlier term never completes here (its ack belonged to that term), and
  // the group may have applied more of the stream than this replica led:
  // the journal is complete by now, as ingest traffic parks until the
  // promotion barrier clears.
  in.term = term;
  in.applying = false;
  auto it = ingest_journal_.find(migration_id);
  if (it != ingest_journal_.end()) {
    const IngestJournal& journal = it->second;
    in.applied_chunk_seq = std::max(in.applied_chunk_seq, journal.chunk_seq);
    in.applied_seq = std::max(in.applied_seq, journal.delta_seq);
    in.delta_written.insert(journal.delta_keys.begin(),
                            journal.delta_keys.end());
  }
  return in;
}

void ShardMigrator::SendChunkAck(uint64_t migration_id, NodeId source) {
  auto it = inbound_.find(migration_id);
  if (it == inbound_.end()) return;
  const uint64_t window =
      std::max<uint64_t>(1, node_->config().migration_stream_window);
  const uint64_t buffered = it->second.pending_chunks.size();
  auto ack = std::make_unique<ShardSnapshotAck>();
  ack->from = node_->id();
  ack->to = source;
  ack->migration_id = migration_id;
  ack->seq = it->second.applied_chunk_seq;
  // Receiver-driven flow control: grant only what the ordering buffer has
  // room for. Never zero — the grant rides on an apply ack, so at least
  // one slot just freed.
  ack->credit = window > buffered ? window - buffered : 1;
  node_->transport()->Send(std::move(ack));
}

void ShardMigrator::OnSnapshotChunk(const ShardSnapshotChunk& chunk,
                                    std::vector<ReplWrite> records) {
  // migration_id == 0 chunks are replication bootstrap snapshots and are
  // consumed by the Replicator before this handler runs.
  if (chunk.migration_id == 0) return;
  replication::Replicator* repl = node_->replicator();
  if (repl != nullptr && !repl->IsLeader()) return;  // balancer will retry
  if (retired_inbound_.count(chunk.migration_id) > 0) return;  // cancelled
  const NodeId source = chunk.from;
  const uint64_t id = chunk.migration_id;
  Inbound& in = InboundFor(id);
  if (in.range.hi == 0) in.range = chunk.range;
  if (chunk.seq <= in.applied_chunk_seq) {
    // Retransmit of an applied chunk (its ack was lost, or the group
    // applied it under an earlier leader): re-ack the current position so
    // the source advances.
    SendChunkAck(id, source);
    return;
  }
  const uint64_t window =
      std::max<uint64_t>(1, node_->config().migration_stream_window);
  const bool already_buffered = in.pending_chunks.count(chunk.seq) > 0;
  if (!already_buffered && in.pending_chunks.size() >= window) {
    return;  // credit overrun; the retransmit path recovers
  }
  in.pending_chunks[chunk.seq] = std::move(records);
  stats_.peak_buffered_chunks = std::max<uint64_t>(
      stats_.peak_buffered_chunks, in.pending_chunks.size());
  DrainIngest(id, source);
}

void ShardMigrator::OnDeltaBatch(const ShardDeltaBatch& batch) {
  replication::Replicator* repl = node_->replicator();
  if (repl != nullptr && !repl->IsLeader()) return;
  if (retired_inbound_.count(batch.migration_id) > 0) return;  // cancelled
  Inbound& in = InboundFor(batch.migration_id);
  if (batch.seq <= in.applied_seq) {
    // Duplicate: re-ack the current position (see OnSnapshotChunk).
    SendDeltaAck(batch.migration_id, batch.from, in.applied_seq);
    return;
  }
  in.pending[batch.seq] = batch.writes;
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
  while (!in.pending.empty() && in.pending.begin()->first <= in.applied_seq) {
    in.pending.erase(in.pending.begin());  // stale duplicate
  }
  if (!in.pending.empty() &&
      in.pending.begin()->first == in.applied_seq + 1) {
    std::vector<ReplWrite> writes = std::move(in.pending.begin()->second);
    in.pending.erase(in.pending.begin());
    in.applying = true;
    const uint64_t seq = in.applied_seq + 1;
    for (const ReplWrite& w : writes) in.delta_written.insert(w.key);
    ApplyRecords(std::move(writes), migration_id, 0, seq, still_inbound,
                 [this, source, migration_id, seq, live_in_term]() {
                   Inbound* live = live_in_term();
                   if (live == nullptr) return;  // cancelled or deposed
                   live->applying = false;
                   live->applied_seq = seq;
                   stats_.delta_batches_applied++;
                   SendDeltaAck(migration_id, source, seq);
                   DrainIngest(migration_id, source);
                 });
    return;
  }

  // Chunks, in sequence order. Out-of-order arrivals (independent
  // per-message link delays) wait in the bounded pending_chunks buffer.
  // Prune stale duplicates first (a retransmit can re-buffer the chunk
  // that was mid-apply when it arrived — seq == applied+1 at buffering
  // time, already applied now); left in place they would pin window
  // slots forever and shrink every future credit grant.
  while (!in.pending_chunks.empty() &&
         in.pending_chunks.begin()->first <= in.applied_chunk_seq) {
    in.pending_chunks.erase(in.pending_chunks.begin());
  }
  auto chunk_it = in.pending_chunks.find(in.applied_chunk_seq + 1);
  if (chunk_it == in.pending_chunks.end()) return;
  std::vector<ReplWrite> chunk = std::move(chunk_it->second);
  in.pending_chunks.erase(chunk_it);
  // Deltas interleave behind the stream cursor: any key a delta already
  // wrote carries a post-cut (newer) value, so the chunk's committed-cut
  // copy must not overwrite it. Ingests are serialized by the `applying`
  // flag, so the set cannot change during this one.
  std::vector<ReplWrite> records;
  records.reserve(chunk.size());
  for (ReplWrite& w : chunk) {
    if (in.delta_written.count(w.key) > 0) {
      stats_.chunk_records_superseded++;
      continue;
    }
    records.push_back(std::move(w));
  }
  const uint64_t seq = in.applied_chunk_seq + 1;
  const size_t record_count = records.size();
  in.applying = true;
  ApplyRecords(std::move(records), migration_id, seq, 0, still_inbound,
               [this, migration_id, source, seq, record_count,
                live_in_term]() {
                 Inbound* live = live_in_term();
                 if (live == nullptr) return;  // cancelled or deposed
                 live->applying = false;
                 live->applied_chunk_seq = seq;
                 // Counted only here: a cancel or crash during the ingest
                 // delay means the records never hit the store.
                 stats_.snapshot_chunks_applied++;
                 stats_.snapshot_records_applied += record_count;
                 SendChunkAck(migration_id, source);
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
