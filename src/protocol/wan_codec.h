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
#include "common/wire.h"
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
/// The same bytes for a run of entries held in any container (the
/// replication log), written into `out` over its old contents.
template <class It>
void PackEntriesInto(It first, It last, std::string* out) {
  out->clear();
  wire::Writer(out).PutRange(first, last);
}
bool UnpackEntries(const std::string& bytes,
                   std::vector<ReplEntry>* entries);

/// {raw_bytes, wire_bytes} of a sealed batch, for the WAN accounting
/// counters.
struct EnvelopeBytes {
  size_t raw = 0;
  size_t wire = 0;
};

/// One entry batch sealed for the WAN: packed, compressed and hashed
/// once. A leader copies it into every frame that ships the same batch.
struct SealedEntries {
  common::WireCodec codec = common::WireCodec::kRaw;
  uint32_t uncompressed_len = 0;
  uint64_t hash = 0;
  /// Empty when the batch ships as plain entries (compression knob off).
  std::string payload;
  EnvelopeBytes bytes;
};
/// Seals the packed batch `raw` under `codec` into `sealed`, reusing its
/// payload buffer. kRaw (the sender's compression knob off) seals
/// nothing: the batch ships as plain entries, counted at its packed size.
void SealEntries(common::WireCodec codec, const std::string& raw,
                 SealedEntries* sealed);
/// Makes `sealed` the envelope of `req` (a copy of its payload).
void AttachSealed(const SealedEntries& sealed, ReplAppendRequest* req);

/// Seals `req->entries` into the WAN envelope under `codec` (kRaw leaves
/// the plain vector in place): SealEntries over PackEntries, attached.
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
