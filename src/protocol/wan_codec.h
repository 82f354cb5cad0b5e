// Packing + envelope helpers for the compressed WAN paths.
//
// The two bulk cross-region streams — LogShipper entry batches
// (ReplAppendRequest) and migration/bootstrap ShardSnapshotChunks — ship
// their record vectors as one packed byte string so the payload can be
// compressed and hash-verified as a unit (src/common/compress.h). The
// packed form is the vector exactly as the loopback message codec lays it
// out — both run the one serializer in common/wire.h over the structs'
// GEOTP_WIRE_FIELDS lists. It is the CONTENT being transported, not the
// frame: the same packed bytes travel inside a sim message object or
// inside a TCP frame unchanged, which is what makes the content hash a
// stable chunk identity across runtimes and across retries.
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

/// Canonical packed form of a record vector (20 bytes per write). The
/// ContentHash64 of these bytes is a chunk's identity in the re-seed
/// handshake, so the encoding must stay deterministic.
std::string PackWrites(const std::vector<ReplWrite>& writes);
bool UnpackWrites(const std::string& bytes, std::vector<ReplWrite>* writes);

/// Packed form of a shipped entry batch (everything a follower needs to
/// append, including migration control records and ingest provenance).
std::string PackEntries(const std::vector<ReplEntry>& entries);
bool UnpackEntries(const std::string& bytes,
                   std::vector<ReplEntry>* entries);

/// Seals `req->entries` into the WAN envelope under `codec` (kRaw, the
/// sender's compression knob off, leaves the plain vector in place).
/// Returns {raw_bytes, wire_bytes} of the batch for the WAN accounting
/// counters.
struct EnvelopeBytes {
  size_t raw = 0;
  size_t wire = 0;
};
EnvelopeBytes SealAppendPayload(common::WireCodec codec,
                                ReplAppendRequest* req);
/// Reverses SealAppendPayload: verifies + unpacks the envelope back into
/// `req->entries`. A request without an envelope passes through untouched.
/// False = corrupt frame; the caller drops the whole request (retransmit
/// recovers).
bool OpenAppendPayload(ReplAppendRequest* req);

/// Chunk counterpart. `content_hash` is set unconditionally (it is the
/// chunk's re-seed identity even on raw frames).
EnvelopeBytes SealChunkPayload(common::WireCodec codec,
                               ShardSnapshotChunk* chunk);
bool OpenChunkPayload(ShardSnapshotChunk* chunk);

}  // namespace protocol
}  // namespace geotp

#endif  // GEOTP_PROTOCOL_WAN_CODEC_H_
