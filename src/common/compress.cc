#include "common/compress.h"

#include <cstring>

#ifdef GEOTP_WITH_ZSTD
#include <zstd.h>
#endif

namespace geotp {
namespace common {
namespace {

// Block codec wire format (LZ4-flavoured token stream, self-contained so
// the repo builds offline):
//
//   sequence := token(1B) [lit-ext]* literals [offset(2B LE) [match-ext]*]
//   token    := literal_len(high nibble) | (match_len - 4)(low nibble)
//
// A nibble of 15 is extended by 255-run bytes. Matches copy `match_len`
// bytes from `offset` (1..65535) back in the produced output; the final
// sequence is literals only (the stream simply ends after them). The
// decoder is fully bounds-checked: it never reads past the input, never
// copies from before the produced output, and the result must come out to
// exactly the advertised uncompressed length.
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

/// Decompression sanity bound: no WAN payload in this system approaches
/// this, and it stops a forged `uncompressed_len` from turning a tiny
/// frame into a giant allocation.
constexpr size_t kMaxPayload = size_t{1} << 28;

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Hash32(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Worst-case compressed size: every match sequence spends at most its
/// literal run's length-extension bytes beyond the input it covers, and
/// the final literal run adds a token and one extension byte.
constexpr size_t CompressBound(size_t len) { return len + len / 255 + 16; }

uint8_t* PutExtLength(uint8_t* op, size_t extra) {
  while (extra >= 255) {
    *op++ = 255;
    extra -= 255;
  }
  *op++ = static_cast<uint8_t>(extra);
  return op;
}

/// The match finder's hash table, one per thread. Each slot carries the
/// generation of the call that wrote it beside the position, so a new call
/// sees an empty table without clearing it: WAN batches are a few hundred
/// bytes, far fewer than the table's 8192 slots.
struct MatchTable {
  uint32_t generation = 0;
  uint64_t slots[1u << kHashBits] = {};  ///< generation << 32 | position

  /// Starts a call: every slot written by an earlier call reads empty.
  void NextCall() {
    if (++generation == 0) {  // wrapped: stale stamps could match again
      std::memset(slots, 0, sizeof(slots));
      generation = 1;
    }
  }
  /// Stores `pos` in slot `h` and returns the position it held in this
  /// call, or -1 if it was empty.
  int64_t Exchange(uint32_t h, size_t pos) {
    const uint64_t old = slots[h];
    slots[h] = (uint64_t{generation} << 32) | static_cast<uint32_t>(pos);
    if ((old >> 32) != generation) return -1;
    return static_cast<int64_t>(static_cast<uint32_t>(old));
  }
};

class BlockCompressor : public ICompressor {
 public:
  WireCodec codec() const override { return WireCodec::kBlock; }

  void Compress(const uint8_t* data, size_t len, std::string* out) override {
    out->clear();
    if (len == 0) return;
    out->resize(CompressBound(len));
    uint8_t* const begin = reinterpret_cast<uint8_t*>(&(*out)[0]);
    uint8_t* op = begin;
    thread_local MatchTable table;
    table.NextCall();

    const auto emit = [&](size_t lit_from, size_t lit_n, size_t match_len,
                          size_t offset) {
      const size_t lit_token = lit_n < 15 ? lit_n : 15;
      size_t match_token = 0;
      if (match_len != 0) {
        const size_t m = match_len - kMinMatch;
        match_token = m < 15 ? m : 15;
      }
      *op++ = static_cast<uint8_t>((lit_token << 4) | match_token);
      if (lit_token == 15) op = PutExtLength(op, lit_n - 15);
      std::memcpy(op, data + lit_from, lit_n);
      op += lit_n;
      if (match_len == 0) return;  // final, literal-only sequence
      *op++ = static_cast<uint8_t>(offset & 0xFF);
      *op++ = static_cast<uint8_t>((offset >> 8) & 0xFF);
      if (match_token == 15) {
        op = PutExtLength(op, match_len - kMinMatch - 15);
      }
    };

    size_t anchor = 0;
    size_t ip = 0;
    while (ip + kMinMatch <= len) {
      const int64_t previous = table.Exchange(Hash32(Read32(data + ip)), ip);
      if (previous >= 0) {
        const size_t cand = static_cast<size_t>(previous);
        const size_t offset = ip - cand;
        if (offset >= 1 && offset <= kMaxOffset &&
            Read32(data + cand) == Read32(data + ip)) {
          size_t n = kMinMatch;
          while (ip + n < len && data[cand + n] == data[ip + n]) ++n;
          emit(anchor, ip - anchor, n, offset);
          ip += n;
          anchor = ip;
          continue;
        }
      }
      ++ip;
    }
    // No empty final token when the input ends exactly at a match: every
    // sequence then produces output, so any truncation of the stream is
    // detectable by the decoder's exact-length check.
    if (anchor < len) emit(anchor, len - anchor, 0, 0);
    out->resize(static_cast<size_t>(op - begin));
  }
};

class BlockDecompressor : public IDecompressor {
 public:
  WireCodec codec() const override { return WireCodec::kBlock; }

  bool Decompress(const uint8_t* data, size_t len, size_t expected_len,
                  std::string* out) override {
    out->clear();
    // One input byte yields at most 255 output bytes (a length-extension
    // byte), so a forged length that no stream of `len` bytes can reach
    // is rejected before anything is allocated for it.
    if (expected_len > kMaxPayload || expected_len / 255 > len) return false;
    out->resize(expected_len);
    uint8_t* const dst = reinterpret_cast<uint8_t*>(&(*out)[0]);
    size_t op = 0;  // bytes produced
    size_t ip = 0;
    const auto read_ext = [&](size_t* value) -> bool {
      uint8_t b;
      do {
        if (ip >= len) return false;
        b = data[ip++];
        *value += b;
        if (*value > expected_len) return false;  // runaway length
      } while (b == 255);
      return true;
    };
    const auto fail = [out]() {
      out->clear();
      return false;
    };
    while (ip < len) {
      const uint8_t token = data[ip++];
      size_t lit = token >> 4;
      if (lit == 15 && !read_ext(&lit)) return fail();
      if (lit > len - ip) return fail();
      if (lit > expected_len - op) return fail();
      std::memcpy(dst + op, data + ip, lit);
      op += lit;
      ip += lit;
      if (ip == len) {
        // Stream ends after literals: the final sequence. A non-zero
        // match nibble here is a dangling half-sequence — malformed.
        if ((token & 0x0F) != 0) return fail();
        break;
      }
      if (len - ip < 2) return fail();
      const size_t offset =
          static_cast<size_t>(data[ip]) |
          (static_cast<size_t>(data[ip + 1]) << 8);
      ip += 2;
      if (offset == 0 || offset > op) return fail();
      size_t match = token & 0x0F;
      if (match == 15 && !read_ext(&match)) return fail();
      match += kMinMatch;
      if (match > expected_len - op) return fail();
      const size_t src = op - offset;
      if (offset >= match) {
        // The source lies wholly in the produced prefix: one bulk copy.
        std::memcpy(dst + op, dst + src, match);
      } else {
        // Offsets shorter than the match repeat the produced tail
        // (RLE-style): copy byte by byte so each read sees the byte the
        // previous step wrote.
        for (size_t i = 0; i < match; ++i) dst[op + i] = dst[src + i];
      }
      op += match;
    }
    if (ip != len || op != expected_len) return fail();
    return true;
  }
};

#ifdef GEOTP_WITH_ZSTD
class ZstdCompressor : public ICompressor {
 public:
  WireCodec codec() const override { return WireCodec::kZstd; }
  void Compress(const uint8_t* data, size_t len, std::string* out) override {
    out->resize(ZSTD_compressBound(len));
    const size_t n =
        ZSTD_compress(&(*out)[0], out->size(), data, len, /*level=*/3);
    if (ZSTD_isError(n)) {
      out->assign(reinterpret_cast<const char*>(data), len);
      return;
    }
    out->resize(n);
  }
};

class ZstdDecompressor : public IDecompressor {
 public:
  WireCodec codec() const override { return WireCodec::kZstd; }
  bool Decompress(const uint8_t* data, size_t len, size_t expected_len,
                  std::string* out) override {
    if (expected_len > kMaxPayload) return false;
    out->resize(expected_len);
    const size_t n =
        ZSTD_decompress(&(*out)[0], expected_len, data, len);
    return !ZSTD_isError(n) && n == expected_len;
  }
};
#endif  // GEOTP_WITH_ZSTD

}  // namespace

uint64_t ContentHash64(const void* data, size_t len) {
  // FNV-1a 64.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

const char* WireCodecName(WireCodec codec) {
  switch (codec) {
    case WireCodec::kRaw:
      return "raw";
    case WireCodec::kBlock:
      return "block";
    case WireCodec::kZstd:
      return "zstd";
  }
  return "?";
}

WireCodec SenderCodec(bool wan_compression) {
  if (!wan_compression) return WireCodec::kRaw;
#ifdef GEOTP_WITH_ZSTD
  return WireCodec::kZstd;
#else
  return WireCodec::kBlock;
#endif
}

ICompressor* CompressorFor(WireCodec codec) {
  switch (codec) {
    case WireCodec::kBlock: {
      static BlockCompressor block;
      return &block;
    }
#ifdef GEOTP_WITH_ZSTD
    case WireCodec::kZstd: {
      static ZstdCompressor zstd;
      return &zstd;
    }
#endif
    default:
      return nullptr;
  }
}

IDecompressor* DecompressorFor(WireCodec codec) {
  switch (codec) {
    case WireCodec::kBlock: {
      static BlockDecompressor block;
      return &block;
    }
#ifdef GEOTP_WITH_ZSTD
    case WireCodec::kZstd: {
      static ZstdDecompressor zstd;
      return &zstd;
    }
#endif
    default:
      return nullptr;
  }
}

WireCodec EncodePayload(WireCodec want, const std::string& raw,
                        std::string* wire) {
  ICompressor* compressor = CompressorFor(want);
  if (compressor != nullptr) {
    compressor->Compress(reinterpret_cast<const uint8_t*>(raw.data()),
                         raw.size(), wire);
    if (wire->size() < raw.size()) return want;
  }
  *wire = raw;  // incompressible (or codec unavailable): ship raw
  return WireCodec::kRaw;
}

bool DecodePayload(WireCodec codec, const std::string& wire,
                   size_t expected_len, uint64_t expected_hash,
                   std::string* raw) {
  if (expected_len > kMaxPayload) return false;
  if (codec == WireCodec::kRaw) {
    if (wire.size() != expected_len) return false;
    *raw = wire;
  } else {
    IDecompressor* decompressor = DecompressorFor(codec);
    if (decompressor == nullptr) return false;
    if (!decompressor->Decompress(
            reinterpret_cast<const uint8_t*>(wire.data()), wire.size(),
            expected_len, raw)) {
      return false;
    }
  }
  return ContentHash64(*raw) == expected_hash;
}

}  // namespace common
}  // namespace geotp
