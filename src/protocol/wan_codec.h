// Envelope helpers for the two bulk WAN streams.
//
// LogShipper entry batches (ReplAppendRequest) and migration/bootstrap
// ShardSnapshotChunks carry their record vectors only inside a sealed
// envelope: the vector packed into one byte string with the one
// serializer in common/wire.h (`wire::Pack`, the exact layout the
// loopback message codec gives a vector), compressed and hash-verified
// as a unit (src/common/compress.h). The packed form is the CONTENT being
// transported, not the frame: the same sealed bytes travel inside a sim
// message object or inside a TCP frame unchanged, so the content hash
// verifies the same bytes in either runtime.
//
// All decode paths are bounds-checked and total: malformed bytes yield
// `false`, never a crash or a partial application.
#ifndef GEOTP_PROTOCOL_WAN_CODEC_H_
#define GEOTP_PROTOCOL_WAN_CODEC_H_

#include <string>
#include <vector>

#include "common/compress.h"
#include "protocol/messages.h"

namespace geotp {
namespace protocol {

/// One packed entry batch or record chunk sealed for the WAN: compressed
/// and hashed once. A leader copies a sealed batch into every frame that
/// ships it. `uncompressed_len` and `payload.size()` are the raw and wire
/// bytes the WAN accounting counters add up.
struct SealedPayload {
  common::WireCodec codec = common::WireCodec::kRaw;
  uint32_t uncompressed_len = 0;
  uint64_t hash = 0;
  std::string payload;
};
/// Seals the packed bytes `raw` into `sealed`, reusing its payload
/// buffer: block-compressed (a raw-codec envelope when that does not
/// shrink the bytes) and hashed.
void SealPayload(const std::string& raw, SealedPayload* sealed);
/// Makes `sealed` the envelope of `req` (a copy of its payload).
void AttachSealed(const SealedPayload& sealed, ReplAppendRequest* req);

/// Verifies and unpacks `req`'s envelope into `entries` (over their old
/// contents, reusing their capacity). A heartbeat carries no envelope and
/// opens to no entries. False = corrupt frame; the caller drops the whole
/// request (retransmit recovers).
bool OpenAppendPayload(const ReplAppendRequest& req,
                       std::vector<ReplEntry>* entries);

/// Seals the packed records `raw` (`wire::Pack` of a ReplWrite vector)
/// into `chunk`'s envelope.
void SealChunkPayload(const std::string& raw, ShardSnapshotChunk* chunk);
/// Chunk counterpart of OpenAppendPayload.
bool OpenChunkPayload(const ShardSnapshotChunk& chunk,
                      std::vector<ReplWrite>* records);

}  // namespace protocol
}  // namespace geotp

#endif  // GEOTP_PROTOCOL_WAN_CODEC_H_
