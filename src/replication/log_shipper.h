// Replicated WAL storage and the leader-side shipping machinery.
//
// ReplicationLog is the per-replica durable log (survives crashes, like the
// engine WAL it mirrors). LogShipper is active only on the leader: it
// tracks per-follower progress Raft-style (next/match index), retransmits
// unacked entries on the heartbeat tick, and fires quorum callbacks once an
// entry is durable on a majority of the group (leader included).
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
#include "sim/network.h"

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
  /// before compression vs bytes actually put on the wire (equal when a
  /// batch ships raw — compression disabled on this leader).
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

  /// Leader-side compression knob (DataSourceConfig::wan_compression):
  /// on, batches ship compressed (common::SenderCodec); off, plain.
  void set_wan_compression(bool on) { wan_compression_ = on; }

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
  /// once the entry is durable on a quorum. With a quorum of one (or a
  /// group of one), the callback fires synchronously. Pass nullptr for
  /// fire-and-forget entries (aborts). Entries appended within one
  /// event-loop tick leave as ONE ReplAppendRequest per follower, acked as
  /// one batch, and sealed once for every follower at the same next index.
  uint64_t AppendAndShip(protocol::ReplEntry entry, QuorumCallback on_quorum);

  /// Lowest index known replicated on every follower (conservative: 0
  /// until each follower acked). Used as the compaction bound so no
  /// follower is ever asked to accept a truncated-away entry.
  uint64_t MinMatchIndex() const;

  /// Registers an extra quorum callback for an existing entry (decision
  /// retries after failover). Fires immediately if already quorum-durable;
  /// otherwise after every callback registered for a lower index or
  /// earlier for the same one.
  void AwaitQuorum(uint64_t index, QuorumCallback on_quorum);

  /// Processes a follower ack; advances the watermark and fires callbacks.
  void OnAck(NodeId follower, const protocol::ReplAppendAck& ack);

  /// Heartbeat tick: ships pending entries to lagging followers, empty
  /// heartbeats (with the current watermark) to caught-up ones.
  void Tick();

 private:
  struct Progress {
    uint64_t next_index = 1;   ///< first entry to ship next
    uint64_t match_index = 0;  ///< highest index known replicated
  };

  void ShipTo(NodeId follower, Progress& progress);
  /// The entries [first, last] sealed for the WAN: packed straight from
  /// the log into a reused buffer, compressed and hashed, unless the last
  /// seal already covers exactly that range.
  const protocol::SealedEntries& Seal(uint64_t first, uint64_t last);
  /// Coalesced shipping: one delay-0 event per tick ships every pending
  /// entry to every lagging follower in one request each.
  void ScheduleShip();
  /// Queues `on_quorum` behind every callback for an index <= `index`.
  void AddPending(uint64_t index, QuorumCallback on_quorum);
  void AdvanceWatermark();

  NodeId self_;
  runtime::ITransport* network_;
  runtime::ITimer* timer_;
  ReplicationLog* log_;
  SnapshotSender snapshot_sender_;
  bool wan_compression_ = true;
  bool active_ = false;
  NodeId group_ = kInvalidNode;
  uint64_t epoch_ = 0;
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
  protocol::SealedEntries sealed_;
  std::string packed_;  ///< reused pack buffer
  LogShipperStats stats_;
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_LOG_SHIPPER_H_
