// SnapshotStream: the one chunked, windowed transfer of committed records,
// shared by shard migration (ShardMigrator, migration_id != 0) and follower
// re-seed (Replicator, migration_id == 0); src/replication/README.md walks
// through it. Raft's chunked InstallSnapshot (Ongaro & Ousterhout, USENIX
// ATC 2014, §7) under receiver-driven credit (Kung, Blackwell & Chapman,
// SIGCOMM 1994): the sender seals each chunk once and keeps it until acked,
// so a resend is a copy; the receiver buffers at most its window and hands
// chunks to its owner in seq order.
#ifndef GEOTP_REPLICATION_SNAPSHOT_STREAM_H_
#define GEOTP_REPLICATION_SNAPSHOT_STREAM_H_

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "protocol/messages.h"
#include "runtime/runtime.h"

namespace geotp {
namespace datasource {
class DataSourceNode;
}  // namespace datasource

namespace replication {

/// One owner's snapshot streams, both roles.
struct SnapshotStreamStats {
  uint64_t snapshot_chunks_sent = 0;  ///< distinct chunks; resends excluded
  uint64_t snapshot_records_sent = 0;
  uint64_t chunks_sealed = 0;  ///< equals snapshot_chunks_sent: seal once
  uint64_t chunk_retransmits = 0;
  /// High-water marks of a sender's unacked chunks (its only memory) and a
  /// receiver's out-of-order buffer; both are capped by the credit window.
  uint64_t peak_unacked_chunks = 0;
  uint64_t peak_buffered_chunks = 0;
  uint64_t streams_completed = 0;  ///< every chunk acked
  uint64_t wan_bytes_raw = 0;   ///< packed chunk bytes before the codec
  uint64_t wan_bytes_wire = 0;  ///< chunk bytes actually sent (incl. resends)
  GEOTP_STAT_FIELDS(snapshot_chunks_sent, snapshot_records_sent,
                    chunks_sealed, chunk_retransmits,
                    HighWater(peak_unacked_chunks),
                    HighWater(peak_buffered_chunks), streams_completed,
                    wan_bytes_raw, wan_bytes_wire)
};

class SnapshotSender {
 public:
  /// Streams the committed records of `node` that `in_scope` accepts (all
  /// when empty). `header` holds what every chunk repeats (addresses and
  /// the owner's ids); the sender sets seq, last and the envelope.
  SnapshotSender(datasource::DataSourceNode* node,
                 protocol::ShardSnapshotChunk header,
                 std::function<bool(const RecordKey&)> in_scope,
                 SnapshotStreamStats* stats);
  ~SnapshotSender();
  SnapshotSender(const SnapshotSender&) = delete;
  SnapshotSender& operator=(const SnapshotSender&) = delete;

  const protocol::ShardSnapshotChunk& header() const { return header_; }

  /// Cuts, seals and sends chunks while the receiver's credit allows.
  void Pump();
  /// Takes an ack of this stream (cumulative seq + grant; another stream's
  /// is ignored) and pumps on. True when this ack completed the stream.
  bool OnAck(const protocol::ShardSnapshotAck& ack);
  /// Re-points the stream at `to` and re-sends every unacked chunk there.
  void Redirect(NodeId to);

 private:
  void Send(const protocol::ShardSnapshotChunk& chunk);
  void ResendUnacked();
  void ArmResendTimer();  ///< the no-progress check, one pending at a time

  datasource::DataSourceNode* node_;
  protocol::ShardSnapshotChunk header_;
  std::function<bool(const RecordKey&)> in_scope_;
  SnapshotStreamStats* stats_;
  RecordKey cursor_;       ///< first key the next chunk may hold
  uint64_t next_seq_ = 1;  ///< next chunk to cut
  uint64_t acked_ = 0;     ///< highest cumulatively acked chunk
  uint64_t credit_ = 1;    ///< receiver grant beyond `acked_`
  uint64_t last_seq_ = 0;  ///< seq of the final chunk (0 = not cut yet)
  bool complete_ = false;
  std::map<uint64_t, protocol::ShardSnapshotChunk> unacked_;  ///< sealed
  std::map<uint64_t, obs::SpanHandle> spans_;  ///< "snapshot.chunk" spans
  std::string packed_;  ///< pack buffer, kept for its capacity
  Micros last_progress_at_ = 0;
  runtime::TimerId resend_timer_ = runtime::kInvalidTimer;
};

class SnapshotReceiver {
 public:
  /// `window` bounds the out-of-order buffer and is the largest grant.
  explicit SnapshotReceiver(uint64_t window = 1);

  uint64_t applied() const { return applied_; }
  /// Every chunk through the one marked `last` is applied.
  bool done() const { return last_seq_ != 0 && applied_ >= last_seq_; }

  /// Buffers chunk `seq` (its opened `records`) unless the buffer is full
  /// (dropped; the sender's resend recovers it). False for a chunk at or
  /// below the applied position: the owner re-acks it, so the sender gets
  /// past a lost ack. `stats` may be null.
  bool Offer(uint64_t seq, bool last, std::vector<protocol::ReplWrite> records,
             SnapshotStreamStats* stats);
  /// Moves the next chunk in seq order (applied + 1) out of the buffer.
  bool Next(uint64_t* seq, std::vector<protocol::ReplWrite>* records);
  /// Chunk `seq` is applied (by the owner, or by its group under an
  /// earlier leader): the position moves up to it.
  void MarkApplied(uint64_t seq) { applied_ = std::max(applied_, seq); }
  /// The ack of the current position, granting the buffer room left.
  void FillAck(protocol::ShardSnapshotAck* ack) const;

 private:
  uint64_t window_;
  uint64_t applied_ = 0;   ///< highest contiguously applied chunk
  uint64_t last_seq_ = 0;  ///< N, once the `last` chunk was buffered
  std::map<uint64_t, std::vector<protocol::ReplWrite>> buffered_;
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_SNAPSHOT_STREAM_H_
