#include "protocol/wan_codec.h"

#include "common/wire.h"

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
  return wire::Pack(entries);
}

bool UnpackEntries(const std::string& bytes,
                   std::vector<ReplEntry>* entries) {
  return wire::Unpack(bytes, entries);
}

EnvelopeBytes SealAppendPayload(common::WireCodec codec,
                                ReplAppendRequest* req) {
  EnvelopeBytes bytes;
  if (req->entries.empty()) return bytes;  // heartbeats stay bare
  const std::string raw = PackEntries(req->entries);
  bytes.raw = raw.size();
  if (codec == common::WireCodec::kRaw) {
    // Compression off: ship the plain vector (no envelope); it still
    // counts as raw-sized WAN traffic.
    bytes.wire = raw.size();
    return bytes;
  }
  req->payload_codec = common::EncodePayload(codec, raw, &req->payload);
  req->payload_uncompressed_len = static_cast<uint32_t>(raw.size());
  req->payload_hash = common::ContentHash64(raw);
  req->entries.clear();
  bytes.wire = req->payload.size();
  return bytes;
}

bool OpenAppendPayload(ReplAppendRequest* req) {
  if (req->payload.empty()) return true;  // plain (or heartbeat) frame
  std::string raw;
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
  std::string raw;
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
