// The replicated log and the leader-side shipping machinery.
//
// ReplicationLog is the per-replica log. A replica's durable part of it is
// everything before the oldest entry whose WAL record is still pending in
// the replica's GroupCommitter (the record is tagged with the entry's
// index); a crash keeps only that prefix. LogShipper is active only on the
// leader: it tracks per-follower progress Raft-style (next/match index),
// ships an entry whose record is tagged only once the record's batch went
// to the WAL device, retransmits unacked entries on the heartbeat tick, and
// fires quorum callbacks once an entry is held by a majority of the group
// (the leader's own copy counting once it is durable).
#ifndef GEOTP_REPLICATION_LOG_SHIPPER_H_
#define GEOTP_REPLICATION_LOG_SHIPPER_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "protocol/messages.h"
#include "protocol/wan_codec.h"
#include "replication/replication_config.h"
#include "runtime/runtime.h"
#include "storage/group_commit.h"

namespace geotp {
namespace replication {

/// Sequential log of ReplEntry, 1-based indexing. A compacted prefix
/// (entries every member already applied) may be truncated away: index
/// arithmetic stays global, only storage for [1, offset] is released.
class ReplicationLog {
 public:
  /// Smallest index still stored (offset + 1); may exceed last_index()
  /// when everything was compacted.
  uint64_t first_index() const { return offset_ + 1; }
  uint64_t last_index() const { return offset_ + entries_.size(); }
  bool empty() const { return last_index() == 0; }

  const protocol::ReplEntry& At(uint64_t index) const {
    GEOTP_CHECK(index > offset_ && index <= last_index(),
                "log index " << index << " outside [" << first_index()
                             << ", " << last_index() << "]");
    return entries_[static_cast<size_t>(index - offset_ - 1)];
  }

  /// Epoch of the entry at `index`; also answers at the compaction
  /// boundary (index == offset) and 0 for the log start.
  uint64_t EpochAt(uint64_t index) const {
    if (index == 0) return 0;
    if (index == offset_) return offset_epoch_;
    return At(index).epoch;
  }

  /// Appends at last_index() + 1 and returns the assigned index.
  uint64_t Append(protocol::ReplEntry entry) {
    entry.index = last_index() + 1;
    entries_.push_back(std::move(entry));
    return last_index();
  }

  /// Drops every entry with index >= `from` (divergent-tail repair).
  void TruncateFrom(uint64_t from) {
    GEOTP_CHECK(from > offset_, "tail truncation into compacted prefix");
    if (from <= last_index()) {
      entries_.resize(static_cast<size_t>(from - offset_ - 1));
    }
  }

  /// Highest compacted-away index (0 = nothing compacted).
  uint64_t offset() const { return offset_; }

  /// Snapshot bootstrap: discards everything and positions the (empty)
  /// log at the snapshot boundary, as if [1, offset] had been compacted.
  void ResetTo(uint64_t offset, uint64_t offset_epoch) {
    entries_.clear();
    offset_ = offset;
    offset_epoch_ = offset_epoch;
  }

  /// Compaction: releases every entry with index <= `upto` (clamped).
  /// Returns how many entries were dropped.
  uint64_t TruncatePrefix(uint64_t upto) {
    upto = std::min(upto, last_index());
    if (upto <= offset_) return 0;
    const uint64_t dropped = upto - offset_;
    offset_epoch_ = At(upto).epoch;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(dropped));
    offset_ = upto;
    return dropped;
  }

  using const_iterator = std::deque<protocol::ReplEntry>::const_iterator;
  /// The stored entries in [from, to], clamped to the retained range.
  std::pair<const_iterator, const_iterator> Range(uint64_t from,
                                                  uint64_t to) const {
    from = std::max(from, first_index());
    to = std::min(to, last_index());
    if (from > to) return {entries_.end(), entries_.end()};
    return {entries_.begin() + static_cast<ptrdiff_t>(from - offset_ - 1),
            entries_.begin() + static_cast<ptrdiff_t>(to - offset_)};
  }

  /// Copies of the entries in [from, to] (clamped).
  std::vector<protocol::ReplEntry> Slice(uint64_t from, uint64_t to) const {
    const auto [first, last] = Range(from, to);
    return std::vector<protocol::ReplEntry>(first, last);
  }

 private:
  std::deque<protocol::ReplEntry> entries_;
  uint64_t offset_ = 0;        ///< highest compacted-away index
  uint64_t offset_epoch_ = 0;  ///< epoch of the entry at offset_
};

struct LogShipperStats {
  uint64_t entries_shipped = 0;
  uint64_t append_batches_shipped = 0;  ///< non-empty ReplAppendRequests
  uint64_t acks_received = 0;
  uint64_t retransmissions = 0;
  uint64_t quorum_callbacks_fired = 0;
  uint64_t snapshots_sent = 0;  ///< bootstrap snapshots to wiped followers
  /// WAN accounting for shipped entry batches, per frame: packed size
  /// before compression vs bytes actually put on the wire.
  uint64_t wan_bytes_raw = 0;
  uint64_t wan_bytes_wire = 0;
  /// Batches packed, compressed and hashed. Followers at the same next
  /// index share one seal, so this trails append_batches_shipped.
  uint64_t batches_sealed = 0;
  GEOTP_STAT_FIELDS(entries_shipped, append_batches_shipped, acks_received,
                    retransmissions, quorum_callbacks_fired, snapshots_sent,
                    wan_bytes_raw, wan_bytes_wire, batches_sealed)
};

class LogShipper {
 public:
  using QuorumCallback = std::function<void()>;
  /// Ships a store snapshot to a follower whose next entry was compacted
  /// away (set by the Replicator; reuses the shard snapshot-install path).
  using SnapshotSender = std::function<void(NodeId follower)>;

  LogShipper(NodeId self, runtime::ITransport* network, runtime::ITimer* timer,
             ReplicationLog* log)
      : self_(self), network_(network), timer_(timer), log_(log) {}

  void set_snapshot_sender(SnapshotSender sender) {
    snapshot_sender_ = std::move(sender);
  }
  /// The replica's WAL (not owned). Its pending tags bound what ships and
  /// what this replica holds durably; without one, every entry ships and
  /// counts as durable once appended. A tag whose entry was cut since
  /// (a step-down or a divergent tail) can only hold both back until its
  /// record's flush starts or ends, never move them forward.
  void set_wal(const storage::GroupCommitter* wal) { wal_ = wal; }
  /// Runs whenever the commit watermark advances, before the quorum
  /// callbacks it releases (the replicator applies the new prefix there).
  void set_on_commit(std::function<void()> hook) {
    on_commit_ = std::move(hook);
  }

  /// Activates shipping for a leadership term. `floor` is the commit
  /// watermark known when leadership was acquired — the watermark never
  /// regresses below it.
  void Activate(NodeId group, uint64_t epoch, std::vector<NodeId> followers,
                size_t quorum_size, uint64_t floor);
  void Deactivate();
  bool active() const { return active_; }

  uint64_t commit_watermark() const { return commit_watermark_; }
  const LogShipperStats& stats() const { return stats_; }

  /// Appends `entry` to the log and schedules shipping; `on_quorum` runs
  /// once the entry is held by a quorum. With a quorum of one (or a group
  /// of one), the callback fires synchronously. Pass nullptr for
  /// fire-and-forget entries (aborts). Entries appended within one
  /// event-loop tick leave as ONE ReplAppendRequest per follower, acked as
  /// one batch, and sealed once for every follower at the same next index.
  uint64_t AppendAndShip(protocol::ReplEntry entry, QuorumCallback on_quorum);
  /// Appends the entry of a WAL record about to be written and tagged with
  /// the returned index. It ships once the record's batch goes to the
  /// device (Ship() from the flush-start hook), and this replica's copy
  /// counts toward the quorum once the record is durable (Raft thesis
  /// §10.2.1: the leader writes its own log while it replicates).
  uint64_t Append(protocol::ReplEntry entry);
  /// Coalesced shipping: one delay-0 event per tick ships everything
  /// shippable to every lagging follower in one request each.
  void Ship();

  /// The prefix of the log this replica holds durably: everything before
  /// the oldest entry whose WAL record is still pending.
  uint64_t DurableIndex() const {
    return Before(wal_ != nullptr ? wal_->OldestPendingTag() : 0);
  }
  /// The prefix of the log that may ship: everything before the oldest
  /// entry whose WAL record has not gone to the device yet.
  uint64_t ShippableIndex() const {
    return Before(wal_ != nullptr ? wal_->OldestUnstartedTag() : 0);
  }
  /// First entry of this term that never became shippable (past
  /// last_index() when there is none). Only this replica ever held it.
  uint64_t FirstUnshipped() const {
    return std::max(term_first_, ShippableIndex() + 1);
  }

  /// Lowest index known replicated on every member, the leader's durable
  /// prefix included (conservative: 0 until each follower acked). Used as
  /// the compaction bound so no follower is ever asked to accept a
  /// truncated-away entry.
  uint64_t MinMatchIndex() const;

  /// Registers an extra quorum callback for an existing entry (decision
  /// retries after failover). Fires immediately if already quorum-durable;
  /// otherwise after every callback registered for a lower index or
  /// earlier for the same one.
  void AwaitQuorum(uint64_t index, QuorumCallback on_quorum);

  /// Processes a follower ack; advances the watermark and fires callbacks.
  void OnAck(NodeId follower, const protocol::ReplAppendAck& ack);
  /// Re-counts the quorum, this replica's durable copy included (call
  /// once a WAL flush made more of the log durable here).
  void AdvanceWatermark();

  /// Heartbeat tick: ships pending entries to lagging followers, empty
  /// heartbeats (with the current watermark) to caught-up ones. A
  /// caught-up follower sent an append since the previous tick is
  /// skipped, unless the previous tick skipped it too.
  void Tick();

 private:
  struct Progress {
    uint64_t next_index = 1;   ///< first entry to ship next
    uint64_t match_index = 0;  ///< highest index known replicated
    bool shipped = false;      ///< sent an append since the last tick
    bool skipped = false;      ///< the last tick sent it nothing
  };

  void ShipTo(NodeId follower, Progress& progress);
  /// The entries [first, last] sealed for the WAN: packed straight from
  /// the log into a reused buffer, compressed and hashed, unless the last
  /// seal already covers exactly that range.
  const protocol::SealedPayload& Seal(uint64_t first, uint64_t last);
  /// Queues `on_quorum` behind every callback for an index <= `index`.
  void AddPending(uint64_t index, QuorumCallback on_quorum);
  /// The log prefix ending before the entry tagged `tag` (all of it for 0).
  uint64_t Before(uint64_t tag) const {
    return tag == 0 ? log_->last_index()
                    : std::min(log_->last_index(), tag - 1);
  }

  NodeId self_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  ReplicationLog* log_;
  SnapshotSender snapshot_sender_;
  const storage::GroupCommitter* wal_ = nullptr;
  std::function<void()> on_commit_;
  bool active_ = false;
  NodeId group_ = kInvalidNode;
  uint64_t epoch_ = 0;
  uint64_t term_first_ = 1;  ///< first index appended in this term
  size_t quorum_size_ = 1;
  bool ship_scheduled_ = false;
  /// Bumped on Activate/Deactivate so stale ship events are no-ops.
  uint64_t activation_ = 0;
  std::unordered_map<NodeId, Progress> followers_;
  uint64_t commit_watermark_ = 0;
  /// Pending quorum callbacks in index order, FIFO among equal indexes.
  /// Appends arrive in index order, so almost every insert is at the back.
  std::deque<std::pair<uint64_t, QuorumCallback>> pending_;
  /// The last sealed batch and the log range it covers (sealed_first_ 0:
  /// none). Leader log entries never change within a term, so the seal
  /// stays valid until Activate/Deactivate.
  uint64_t sealed_first_ = 0;
  uint64_t sealed_last_ = 0;
  protocol::SealedPayload sealed_;
  std::string packed_;  ///< reused pack buffer
  LogShipperStats stats_;
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_LOG_SHIPPER_H_
