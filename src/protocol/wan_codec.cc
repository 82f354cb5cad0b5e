#include "protocol/wan_codec.h"

namespace geotp {
namespace protocol {

std::string PackWrites(const std::vector<ReplWrite>& writes) {
  return wire::Pack(writes);
}

bool UnpackWrites(const std::string& bytes,
                  std::vector<ReplWrite>* writes) {
  return wire::Unpack(bytes, writes);
}

std::string PackEntries(const std::vector<ReplEntry>& entries) {
  std::string out;
  PackEntriesInto(entries.begin(), entries.end(), &out);
  return out;
}

bool UnpackEntries(const std::string& bytes,
                   std::vector<ReplEntry>* entries) {
  return wire::Unpack(bytes, entries);
}

namespace {

/// Decoded payload bytes live only until they are unpacked, so one buffer
/// per thread serves every frame a thread opens.
std::string& OpenBuffer() {
  thread_local std::string buffer;
  return buffer;
}

}  // namespace

void SealEntries(common::WireCodec codec, const std::string& raw,
                 SealedEntries* sealed) {
  sealed->bytes.raw = raw.size();
  if (codec == common::WireCodec::kRaw) {
    // Compression off: the plain vector ships (no envelope); it still
    // counts as raw-sized WAN traffic.
    sealed->codec = common::WireCodec::kRaw;
    sealed->uncompressed_len = 0;
    sealed->hash = 0;
    sealed->payload.clear();
    sealed->bytes.wire = raw.size();
    return;
  }
  sealed->codec = common::EncodePayload(codec, raw, &sealed->payload);
  sealed->uncompressed_len = static_cast<uint32_t>(raw.size());
  sealed->hash = common::ContentHash64(raw);
  sealed->bytes.wire = sealed->payload.size();
}

void AttachSealed(const SealedEntries& sealed, ReplAppendRequest* req) {
  req->payload_codec = sealed.codec;
  req->payload_uncompressed_len = sealed.uncompressed_len;
  req->payload_hash = sealed.hash;
  req->payload = sealed.payload;
}

EnvelopeBytes SealAppendPayload(common::WireCodec codec,
                                ReplAppendRequest* req) {
  if (req->entries.empty()) return EnvelopeBytes();  // heartbeats stay bare
  SealedEntries sealed;
  SealEntries(codec, PackEntries(req->entries), &sealed);
  if (!sealed.payload.empty()) {
    req->entries.clear();
    AttachSealed(sealed, req);
  }
  return sealed.bytes;
}

bool OpenAppendPayload(ReplAppendRequest* req) {
  if (req->payload.empty()) return true;  // plain (or heartbeat) frame
  std::string& raw = OpenBuffer();
  if (!common::DecodePayload(req->payload_codec, req->payload,
                             req->payload_uncompressed_len,
                             req->payload_hash, &raw)) {
    return false;
  }
  if (!UnpackEntries(raw, &req->entries)) return false;
  req->payload.clear();
  return true;
}

EnvelopeBytes SealChunkPayload(common::WireCodec codec,
                               ShardSnapshotChunk* chunk) {
  EnvelopeBytes bytes;
  const std::string raw = PackWrites(chunk->records);
  bytes.raw = raw.size();
  // Always set: the hash is the chunk's identity in the re-seed
  // handshake, whatever codec the chunk ships under.
  chunk->content_hash = common::ContentHash64(raw);
  if (codec == common::WireCodec::kRaw) {
    bytes.wire = raw.size();
    return bytes;
  }
  chunk->payload_codec = common::EncodePayload(codec, raw, &chunk->payload);
  chunk->payload_uncompressed_len = static_cast<uint32_t>(raw.size());
  chunk->records.clear();
  bytes.wire = chunk->payload.size();
  return bytes;
}

bool OpenChunkPayload(ShardSnapshotChunk* chunk) {
  if (chunk->payload.empty()) return true;
  std::string& raw = OpenBuffer();
  if (!common::DecodePayload(chunk->payload_codec, chunk->payload,
                             chunk->payload_uncompressed_len,
                             chunk->content_hash, &raw)) {
    return false;
  }
  if (!UnpackWrites(raw, &chunk->records)) return false;
  chunk->payload.clear();
  return true;
}

}  // namespace protocol
}  // namespace geotp
