#include "protocol/wan_codec.h"

#include "common/wire.h"

namespace geotp {
namespace protocol {

namespace {

/// Decoded payload bytes live only until they are unpacked, so one buffer
/// per thread serves every frame a thread opens.
std::string& OpenBuffer() {
  thread_local std::string buffer;
  return buffer;
}

}  // namespace

void SealPayload(const std::string& raw, SealedPayload* sealed) {
  sealed->codec =
      common::EncodePayload(common::WireCodec::kBlock, raw, &sealed->payload);
  sealed->uncompressed_len = static_cast<uint32_t>(raw.size());
  sealed->hash = common::ContentHash64(raw);
}

void AttachSealed(const SealedPayload& sealed, ReplAppendRequest* req) {
  req->payload_codec = sealed.codec;
  req->payload_uncompressed_len = sealed.uncompressed_len;
  req->payload_hash = sealed.hash;
  req->payload = sealed.payload;
}

bool OpenAppendPayload(const ReplAppendRequest& req,
                       std::vector<ReplEntry>* entries) {
  if (req.payload.empty()) {  // heartbeat
    entries->clear();
    return true;
  }
  std::string& raw = OpenBuffer();
  return common::DecodePayload(req.payload_codec, req.payload,
                               req.payload_uncompressed_len, req.payload_hash,
                               &raw) &&
         wire::Unpack(raw, entries);
}

void SealChunkPayload(const std::string& raw, ShardSnapshotChunk* chunk) {
  chunk->payload_codec =
      common::EncodePayload(common::WireCodec::kBlock, raw, &chunk->payload);
  chunk->payload_uncompressed_len = static_cast<uint32_t>(raw.size());
  chunk->content_hash = common::ContentHash64(raw);
}

bool OpenChunkPayload(const ShardSnapshotChunk& chunk,
                      std::vector<ReplWrite>* records) {
  std::string& raw = OpenBuffer();
  return common::DecodePayload(chunk.payload_codec, chunk.payload,
                               chunk.payload_uncompressed_len,
                               chunk.content_hash, &raw) &&
         wire::Unpack(raw, records);
}

}  // namespace protocol
}  // namespace geotp
