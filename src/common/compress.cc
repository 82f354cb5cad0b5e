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

void PutExtLength(std::string* out, size_t extra) {
  while (extra >= 255) {
    out->push_back(static_cast<char>(255));
    extra -= 255;
  }
  out->push_back(static_cast<char>(extra));
}

class BlockCompressor : public ICompressor {
 public:
  WireCodec codec() const override { return WireCodec::kBlock; }

  std::string Compress(const uint8_t* data, size_t len) override {
    std::string out;
    if (len == 0) return out;
    out.reserve(len / 2 + 16);
    uint32_t table[1u << kHashBits];  // position + 1; 0 = empty
    std::memset(table, 0, sizeof(table));

    const auto emit = [&](size_t lit_from, size_t lit_n, size_t match_len,
                          size_t offset) {
      const size_t lit_token = lit_n < 15 ? lit_n : 15;
      size_t match_token = 0;
      if (match_len != 0) {
        const size_t m = match_len - kMinMatch;
        match_token = m < 15 ? m : 15;
      }
      out.push_back(static_cast<char>((lit_token << 4) | match_token));
      if (lit_token == 15) PutExtLength(&out, lit_n - 15);
      out.append(reinterpret_cast<const char*>(data) + lit_from, lit_n);
      if (match_len == 0) return;  // final, literal-only sequence
      out.push_back(static_cast<char>(offset & 0xFF));
      out.push_back(static_cast<char>((offset >> 8) & 0xFF));
      if (match_token == 15) PutExtLength(&out, match_len - kMinMatch - 15);
    };

    size_t anchor = 0;
    size_t ip = 0;
    while (ip + kMinMatch <= len) {
      const uint32_t h = Hash32(Read32(data + ip));
      const uint32_t cand_plus1 = table[h];
      table[h] = static_cast<uint32_t>(ip + 1);
      if (cand_plus1 != 0) {
        const size_t cand = cand_plus1 - 1;
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
    return out;
  }
};

class BlockDecompressor : public IDecompressor {
 public:
  WireCodec codec() const override { return WireCodec::kBlock; }

  bool Decompress(const uint8_t* data, size_t len, size_t expected_len,
                  std::string* out) override {
    out->clear();
    if (expected_len > kMaxPayload) return false;
    out->reserve(expected_len < (size_t{1} << 20) ? expected_len
                                                  : size_t{1} << 20);
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
    while (ip < len) {
      const uint8_t token = data[ip++];
      size_t lit = token >> 4;
      if (lit == 15 && !read_ext(&lit)) return false;
      if (lit > len - ip) return false;
      if (lit > expected_len - out->size()) return false;
      out->append(reinterpret_cast<const char*>(data) + ip, lit);
      ip += lit;
      if (ip == len) {
        // Stream ends after literals: the final sequence. A non-zero
        // match nibble here is a dangling half-sequence — malformed.
        if ((token & 0x0F) != 0) return false;
        break;
      }
      if (len - ip < 2) return false;
      const size_t offset =
          static_cast<size_t>(data[ip]) |
          (static_cast<size_t>(data[ip + 1]) << 8);
      ip += 2;
      if (offset == 0 || offset > out->size()) return false;
      size_t match = token & 0x0F;
      if (match == 15 && !read_ext(&match)) return false;
      match += kMinMatch;
      if (match > expected_len - out->size()) return false;
      // Byte-by-byte: offsets shorter than the match repeat the produced
      // tail (RLE-style), so a bulk memcpy would read bytes not written
      // yet.
      const size_t src = out->size() - offset;
      for (size_t i = 0; i < match; ++i) out->push_back((*out)[src + i]);
    }
    return ip == len && out->size() == expected_len;
  }
};

#ifdef GEOTP_WITH_ZSTD
class ZstdCompressor : public ICompressor {
 public:
  WireCodec codec() const override { return WireCodec::kZstd; }
  std::string Compress(const uint8_t* data, size_t len) override {
    std::string out;
    out.resize(ZSTD_compressBound(len));
    const size_t n =
        ZSTD_compress(&out[0], out.size(), data, len, /*level=*/3);
    if (ZSTD_isError(n)) return std::string(reinterpret_cast<const char*>(data), len);
    out.resize(n);
    return out;
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
    std::string compressed = compressor->Compress(
        reinterpret_cast<const uint8_t*>(raw.data()), raw.size());
    if (compressed.size() < raw.size()) {
      *wire = std::move(compressed);
      return want;
    }
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
