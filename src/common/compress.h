// WAN payload compression: a pluggable compressor seam with a
// self-contained LZ-style block codec as the default, plus the content
// hash the WAN envelopes carry.
//
// Every cross-region byte is the scarce resource in a geo-distributed
// deployment, so the two bulk WAN paths — LogShipper entry batches and
// migration ShardSnapshotChunks — pack their records into a byte string,
// compress it, and ship `{payload, codec, uncompressed_len, content_hash}`
// instead of the plain vectors. The hash is computed over the UNCOMPRESSED
// packed bytes, so a receiver verifies end-to-end integrity after
// decompression (a truncated or bit-flipped frame is dropped, never
// applied) and — for migration chunks — the same hash doubles as the
// chunk's identity in the incremental re-seed handshake (ShardSeedOffer /
// ShardSeedDecline): equal hash means the destination already holds the
// chunk byte-for-byte and declines the retransfer.
//
// There is no negotiation: `wan_compression` is a sender-side deployment
// knob (SenderCodec), and every receiver decodes whatever codec a frame
// names, whatever its own knob says. zstd slots in behind GEOTP_WITH_ZSTD
// (CMake option) without changing any call site; the repo builds offline
// with the block codec alone. A build without zstd drops a zstd frame as
// corrupt (DecodePayload fails), so mixing such builds is unsupported.
#ifndef GEOTP_COMMON_COMPRESS_H_
#define GEOTP_COMMON_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace geotp {
namespace common {

/// FNV-1a 64-bit content hash. Not cryptographic — it guards against
/// corruption and identifies chunk content for re-seed declines, both
/// within one trusted deployment.
uint64_t ContentHash64(const void* data, size_t len);
inline uint64_t ContentHash64(const std::string& bytes) {
  return ContentHash64(bytes.data(), bytes.size());
}

/// Wire codec identifiers; the numeric values travel in message envelopes
/// and must stay stable.
enum class WireCodec : uint8_t {
  kRaw = 0,    ///< payload is the packed bytes, uncompressed
  kBlock = 1,  ///< self-contained LZ block codec (always available)
  kZstd = 2,   ///< optional, behind GEOTP_WITH_ZSTD
};

const char* WireCodecName(WireCodec codec);
constexpr WireCodec WireMax(WireCodec) { return WireCodec::kZstd; }

/// The codec a WAN sender ships under: this build's best compressor
/// (zstd under GEOTP_WITH_ZSTD, else the block codec) when the sender's
/// `wan_compression` knob is on, raw when it is off.
WireCodec SenderCodec(bool wan_compression);

/// Compression seam (SNIPPETS.md snippet 2 idiom): one process-wide
/// instance per codec. Output depends only on the input bytes; whatever
/// state an implementation reuses between calls (the block codec's match
/// table) is per thread and never leaks from one call into the next, so
/// concurrent callers on loopback executors need no locking.
class ICompressor {
 public:
  virtual ~ICompressor() = default;
  virtual WireCodec codec() const = 0;
  /// Compresses `len` bytes at `data` into `out`, replacing its contents
  /// and reusing its capacity. Always succeeds (worst case the output
  /// expands; callers fall back to raw when that loses).
  virtual void Compress(const uint8_t* data, size_t len, std::string* out) = 0;
};

class IDecompressor {
 public:
  virtual ~IDecompressor() = default;
  virtual WireCodec codec() const = 0;
  /// Decompresses into `out`. Returns false — with no crash and no
  /// out-of-bounds access — on any malformed input: truncated stream,
  /// offset outside the produced prefix, or output size != expected_len.
  virtual bool Decompress(const uint8_t* data, size_t len,
                          size_t expected_len, std::string* out) = 0;
};

/// Process-wide codec registry. Returns nullptr for kRaw (no transform)
/// and for codecs this build cannot handle.
ICompressor* CompressorFor(WireCodec codec);
IDecompressor* DecompressorFor(WireCodec codec);

/// Envelope helpers used by the WAN send/receive paths.
///
/// EncodePayload: compresses `raw` under `want` (falling back to raw when
/// the codec is unavailable or the compressed form is not smaller) and
/// returns the codec actually used; `wire` receives the bytes to ship
/// (its capacity is reused).
WireCodec EncodePayload(WireCodec want, const std::string& raw,
                        std::string* wire);
/// DecodePayload: inverse of EncodePayload plus end-to-end verification.
/// Returns false if the codec is unknown, the stream is malformed, the
/// size disagrees with `expected_len`, or the FNV hash of the recovered
/// bytes differs from `expected_hash`.
bool DecodePayload(WireCodec codec, const std::string& wire,
                   size_t expected_len, uint64_t expected_hash,
                   std::string* raw);

}  // namespace common
}  // namespace geotp

#endif  // GEOTP_COMMON_COMPRESS_H_
