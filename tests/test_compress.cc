// Property/fuzz battery for the WAN compression seam (common/compress.h)
// and the packed-payload codec (protocol/wan_codec.h).
//
// Contract under test:
//  * round-trip identity over random, incompressible, repetitive, empty
//    and 1-byte buffers;
//  * every truncation and every sampled bit flip of the wire bytes is
//    either rejected (DecodePayload false) or decodes to the exact
//    original content — never a crash, never silently different bytes
//    (the content hash is the last line of defence);
//  * the packed entry/write formats reject malformed input totally.
//
// The whole file runs under ASan/UBSan in the sanitize CI job (ctest
// label: compress), which is what "never crash" means in practice.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/wire.h"
#include "protocol/wan_codec.h"
#include "runtime/codec.h"

namespace geotp {
namespace {

using common::ContentHash64;
using common::DecodePayload;
using common::EncodePayload;
using common::WireCodec;
using protocol::ReplEntry;
using protocol::ReplWrite;

std::string RandomBytes(std::mt19937_64* rng, size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>((*rng)() & 0xFF);
  return out;
}

/// Structured-ish data resembling packed records: long runs of zero-heavy
/// little-endian integers — the shape the block codec must actually
/// compress on the WAN paths.
std::string RecordLikeBytes(std::mt19937_64* rng, size_t records) {
  std::vector<ReplWrite> writes;
  writes.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    ReplWrite w;
    w.key.table = 1;
    w.key.key = 1000 + i;
    w.value = static_cast<int64_t>((*rng)() % 100);
    writes.push_back(w);
  }
  return wire::Pack(writes);
}

void ExpectRoundTrip(WireCodec want, const std::string& raw) {
  std::string wire;
  const WireCodec used = EncodePayload(want, raw, &wire);
  std::string back;
  ASSERT_TRUE(
      DecodePayload(used, wire, raw.size(), ContentHash64(raw), &back))
      << "len=" << raw.size();
  EXPECT_EQ(back, raw);
}

TEST(ContentHash, StableAndSensitive) {
  EXPECT_EQ(ContentHash64(std::string()), 14695981039346656037ULL);
  const std::string a = "geo-distributed";
  std::string b = a;
  b[3] ^= 1;
  EXPECT_NE(ContentHash64(a), ContentHash64(b));
  EXPECT_EQ(ContentHash64(a), ContentHash64(std::string(a)));
}

TEST(BlockCodec, RoundTripAdversarialShapes) {
  std::mt19937_64 rng(0xC0DEC);
  ExpectRoundTrip(WireCodec::kBlock, "");            // empty
  ExpectRoundTrip(WireCodec::kBlock, "x");           // 1 byte
  ExpectRoundTrip(WireCodec::kBlock, "abcd");        // exactly min-match
  ExpectRoundTrip(WireCodec::kBlock, std::string(100000, 'z'));  // RLE
  ExpectRoundTrip(WireCodec::kBlock, RandomBytes(&rng, 65537));  // random
  // Long literal run (> 15+255 forces the length-extension path).
  ExpectRoundTrip(WireCodec::kBlock, RandomBytes(&rng, 5000));
  // Repetitive with period > min-match.
  std::string periodic;
  for (int i = 0; i < 4000; ++i) periodic += "pattern-17-bytes!";
  ExpectRoundTrip(WireCodec::kBlock, periodic);
  for (int trial = 0; trial < 50; ++trial) {
    ExpectRoundTrip(WireCodec::kBlock, RandomBytes(&rng, rng() % 4096));
    ExpectRoundTrip(WireCodec::kBlock, RecordLikeBytes(&rng, rng() % 512));
  }
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// A fixed shipped batch: 12 commit entries of 2 writes each, packed the
/// way a leader packs its log.
std::string FixedEntryBatch() {
  std::vector<ReplEntry> entries;
  for (uint64_t i = 1; i <= 12; ++i) {
    ReplEntry e;
    e.index = 40 + i;
    e.epoch = 3;
    e.xid = Xid{9000 + i, 2};
    e.coordinator = 1;
    const auto value = static_cast<int64_t>(100 + i % 4);
    e.writes.push_back(ReplWrite{RecordKey{1, 5000 + 7 * i}, value});
    e.writes.push_back(ReplWrite{RecordKey{2, 64 + i}, -5});
    entries.push_back(std::move(e));
  }
  return wire::Pack(entries);
}

std::string BlockCompress(const std::string& raw) {
  std::string out;
  common::CompressorFor(WireCodec::kBlock)
      ->Compress(reinterpret_cast<const uint8_t*>(raw.data()), raw.size(),
                 &out);
  return out;
}

// The WAN ratio gates and the bytes on the wire rest on these exact
// bytes; they were taken from the codec before its match table and output
// buffer were reused across calls.
TEST(BlockCodec, PinnedBytesOfAnEntryBatch) {
  EXPECT_EQ(Hex(BlockCompress(FixedEntryBatch())),
            "620c000000290001001203070042000129230a00840200000001000000080022"
            "8f1318001265070001180013410c0022fbff0100030f000e0700132a13000566"
            "001f2a6600041396660013663100007e0013420c000f66000e132b2900056600"
            "1f2b660004139d66001367310000660013430c000f66000e132c29000566001f"
            "2c66000413a466001364310000660013440c000f66000e132d29000566001f2d"
            "66000413ab660008980113453d000f66000e132e29000566001f2e66000413b2"
            "660008980113463d000f66000e132f29000566001f2f66000413b96600089801"
            "13473d000f66000e133029000566001f3066000413c0660008980113483d000f"
            "66000e133129000566001f3166000413c7660008980113493d000f66000e1332"
            "29000566001f3266000413ce6600089801134a3d000f66000e13332900056600"
            "1f3366000413d56600089801134b3d000f66000e133429000566001f34660004"
            "13dc6600089801134c3d000f66000e");
}

// Reused per-thread state must not leak from one call into the next. B
// is A without its first k bytes: positions B leaves in the match table
// point, read in A's coordinates, at earlier bytes of A that repeat
// later (the batch repeats with the entry stride), so a table that kept
// them would offer matches a fresh table does not have.
TEST(BlockCodec, NoStateLeaksAcrossCalls) {
  const std::string a = FixedEntryBatch();
  const std::string first = BlockCompress(a);
  for (size_t k = 1; k < 150; ++k) {
    const std::string b = a.substr(k);
    const std::string middle = BlockCompress(b);
    ASSERT_EQ(BlockCompress(a), first) << "after compressing A[" << k << ":]";
    // A reused output buffer holding other bytes is overwritten whole.
    std::string into = middle;
    common::CompressorFor(WireCodec::kBlock)
        ->Compress(reinterpret_cast<const uint8_t*>(a.data()), a.size(),
                   &into);
    ASSERT_EQ(into, first);
  }
}

// A hand-assembled stream with one match whose offset is at least its
// length (a bulk copy from the produced prefix) and one whose offset is
// shorter (it repeats the bytes it is producing).
TEST(BlockCodec, DecodesDisjointAndOverlappingMatches) {
  const std::string stream = std::string("\x80") + "abcdefgh" +  // 8 lits
                             std::string("\x08\x00", 2) +  // offset 8, len 4
                             std::string("\x03\x03\x00", 3) +  // off 3, len 7
                             "\x10z";                             // 1 literal
  const std::string expected = "abcdefgh" "abcd" "bcdbcdb" "z";
  std::string out;
  ASSERT_TRUE(common::DecompressorFor(WireCodec::kBlock)
                  ->Decompress(reinterpret_cast<const uint8_t*>(stream.data()),
                               stream.size(), expected.size(), &out));
  EXPECT_EQ(out, expected);
  // The compressor emits both kinds for a repeated block then a run.
  const std::string both = "abcdefghabcdefgh" + std::string(40, 'x') + "end";
  const std::string wire = BlockCompress(both);
  EXPECT_LT(wire.size(), both.size());
  ExpectRoundTrip(WireCodec::kBlock, both);
}

TEST(BlockCodec, IncompressibleFallsBackToRaw) {
  std::mt19937_64 rng(7);
  const std::string raw = RandomBytes(&rng, 2048);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  // Uniform random bytes cannot shrink: the envelope must ship them raw
  // rather than expanded.
  EXPECT_EQ(used, WireCodec::kRaw);
  EXPECT_EQ(wire, raw);
}

TEST(BlockCodec, CompressesRecordPayloads) {
  std::mt19937_64 rng(42);
  const std::string raw = RecordLikeBytes(&rng, 1024);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  ASSERT_EQ(used, WireCodec::kBlock);
  // The acceptance gate on the log-shipping path is 2x; packed records
  // must clear it with margin at the codec level.
  EXPECT_LT(wire.size() * 2, raw.size())
      << "ratio=" << static_cast<double>(raw.size()) / wire.size();
}

TEST(BlockCodec, TruncationAlwaysRejected) {
  std::mt19937_64 rng(0xBADF00D);
  const std::string raw = RecordLikeBytes(&rng, 256);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  ASSERT_EQ(used, WireCodec::kBlock);
  const uint64_t hash = ContentHash64(raw);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::string truncated = wire.substr(0, cut);
    std::string back;
    EXPECT_FALSE(DecodePayload(used, truncated, raw.size(), hash, &back))
        << "cut=" << cut;
  }
}

TEST(BlockCodec, BitFlipsNeverYieldWrongContent) {
  std::mt19937_64 rng(0xF11B5);
  const std::string raw = RecordLikeBytes(&rng, 200);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  ASSERT_EQ(used, WireCodec::kBlock);
  const uint64_t hash = ContentHash64(raw);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = wire;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      std::string back;
      // Either rejected outright or — if the stream still parses — the
      // content hash catches it. A flip can never produce accepted-but-
      // different bytes.
      if (DecodePayload(used, flipped, raw.size(), hash, &back)) {
        EXPECT_EQ(back, raw) << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(BlockCodec, WrongLengthOrHashRejected) {
  const std::string raw = std::string(500, 'q');
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  std::string back;
  EXPECT_FALSE(DecodePayload(used, wire, raw.size() + 1,
                             ContentHash64(raw), &back));
  EXPECT_FALSE(DecodePayload(used, wire, raw.size() - 1,
                             ContentHash64(raw), &back));
  EXPECT_FALSE(DecodePayload(used, wire, raw.size(),
                             ContentHash64(raw) ^ 1, &back));
  EXPECT_TRUE(DecodePayload(used, wire, raw.size(),
                            ContentHash64(raw), &back));
  // A forged giant uncompressed_len must not allocate its way to an OOM.
  EXPECT_FALSE(DecodePayload(used, wire, size_t{1} << 40,
                             ContentHash64(raw), &back));
}

TEST(BlockCodec, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string garbage = RandomBytes(&rng, rng() % 512);
    std::string back;
    // Most garbage is rejected; any accept must still match the hash we
    // demand, which garbage cannot forge. Either way: no crash, no OOB.
    DecodePayload(WireCodec::kBlock, garbage, rng() % 1024, rng(), &back);
  }
}

TEST(WanCodec, WritesRoundTripAndIdentity) {
  std::mt19937_64 rng(5);
  std::vector<ReplWrite> writes;
  for (int i = 0; i < 300; ++i) {
    ReplWrite w;
    w.key.table = static_cast<uint32_t>(rng() % 4);
    w.key.key = rng();
    w.value = static_cast<int64_t>(rng());
    writes.push_back(w);
  }
  const std::string packed = wire::Pack(writes);
  std::vector<ReplWrite> back;
  ASSERT_TRUE(wire::Unpack(packed, &back));
  ASSERT_EQ(back.size(), writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(back[i].key, writes[i].key);
    EXPECT_EQ(back[i].value, writes[i].value);
  }
  // Determinism: the hash IS the chunk identity in the re-seed handshake,
  // so packing the same records twice must produce identical bytes.
  EXPECT_EQ(packed, wire::Pack(writes));
  // Truncations reject totally.
  for (size_t cut = 0; cut < packed.size(); cut += 3) {
    std::vector<ReplWrite> scratch;
    EXPECT_FALSE(wire::Unpack(packed.substr(0, cut), &scratch));
  }
}

TEST(WanCodec, EntriesRoundTrip) {
  std::vector<ReplEntry> entries;
  for (uint64_t i = 1; i <= 40; ++i) {
    ReplEntry e;
    e.index = i;
    e.epoch = 3;
    e.type = protocol::ReplEntryType::kCommit;
    e.xid = Xid{100 + i, 2};
    e.coordinator = 1;
    for (uint64_t j = 0; j < i % 5; ++j) {
      e.writes.push_back(ReplWrite{RecordKey{1, i * 10 + j},
                                   static_cast<int64_t>(j)});
    }
    if (i == 7) {
      auto m = std::make_shared<protocol::MigrationRecord>();
      m->migration_id = 77;
      m->range = sharding::ShardRange{1, 100, 200, 3, 9};
      m->dest = 4;
      m->dest_leader = 12;
      m->new_version = 9;
      m->balancer = 1;
      m->timeout = 5000;
      m->delta_next_seq = 6;
      e.migration = m;
    }
    e.ingest_migration_id = i % 3 == 0 ? 8 : 0;
    e.ingest_chunk_seq = i % 3 == 0 ? 2 : 0;
    entries.push_back(std::move(e));
  }
  const std::string packed = wire::Pack(entries);
  std::vector<ReplEntry> back;
  ASSERT_TRUE(wire::Unpack(packed, &back));
  ASSERT_EQ(back.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].index, entries[i].index);
    EXPECT_EQ(back[i].epoch, entries[i].epoch);
    EXPECT_EQ(back[i].xid, entries[i].xid);
    EXPECT_EQ(back[i].writes.size(), entries[i].writes.size());
    EXPECT_EQ(back[i].ingest_chunk_seq, entries[i].ingest_chunk_seq);
    EXPECT_EQ(back[i].migration != nullptr,
              entries[i].migration != nullptr);
  }
  ASSERT_NE(back[6].migration, nullptr);
  EXPECT_EQ(back[6].migration->migration_id, 77u);
  EXPECT_EQ(back[6].migration->delta_next_seq, 6u);
  for (size_t cut = 0; cut < packed.size(); cut += 7) {
    std::vector<ReplEntry> scratch;
    EXPECT_FALSE(wire::Unpack(packed.substr(0, cut), &scratch));
  }
}

TEST(WanCodec, SealOpenAppendEnvelope) {
  std::vector<ReplEntry> entries;
  for (uint64_t i = 1; i <= 64; ++i) {
    ReplEntry e;
    e.index = i;
    e.epoch = 1;
    e.xid = Xid{i, 2};
    e.writes.push_back(ReplWrite{RecordKey{1, 1000 + i}, 5});
    entries.push_back(std::move(e));
  }
  const std::string packed = wire::Pack(entries);
  protocol::SealedPayload sealed;
  protocol::SealPayload(packed, &sealed);
  EXPECT_EQ(sealed.codec, WireCodec::kBlock);
  EXPECT_EQ(sealed.uncompressed_len, packed.size());
  EXPECT_EQ(sealed.hash, ContentHash64(packed));
  // Structured entries must compress.
  EXPECT_LT(sealed.payload.size(), packed.size());
  protocol::ReplAppendRequest req;
  req.group = 2;
  req.epoch = 1;
  protocol::AttachSealed(sealed, &req);
  // The traffic accounting counts the sealed frame, so the simulator sees
  // the compression too.
  EXPECT_EQ(req.WireSize(), runtime::EncodeMessage(req).size());
  std::vector<ReplEntry> back;
  ASSERT_TRUE(protocol::OpenAppendPayload(req, &back));
  EXPECT_EQ(wire::Pack(back), packed);
  // A heartbeat carries no envelope and opens to no entries.
  protocol::ReplAppendRequest heartbeat;
  ASSERT_TRUE(protocol::OpenAppendPayload(heartbeat, &back));
  EXPECT_TRUE(back.empty());
  // Corrupt envelope: flip a payload byte — the open must fail whole.
  protocol::ReplAppendRequest corrupt = req;
  corrupt.payload[corrupt.payload.size() / 2] ^= 0x20;
  EXPECT_FALSE(protocol::OpenAppendPayload(corrupt, &back));
}

TEST(WanCodec, SealOpenChunkEnvelope) {
  std::vector<ReplWrite> records;
  for (uint64_t i = 0; i < 256; ++i) {
    records.push_back(
        ReplWrite{RecordKey{1, 5000 + i}, static_cast<int64_t>(i % 7)});
  }
  const std::string packed = wire::Pack(records);
  protocol::ShardSnapshotChunk chunk;
  chunk.migration_id = 9;
  chunk.seq = 3;
  protocol::SealChunkPayload(packed, &chunk);
  EXPECT_EQ(chunk.payload_codec, WireCodec::kBlock);
  EXPECT_EQ(chunk.payload_uncompressed_len, packed.size());
  EXPECT_EQ(chunk.content_hash, ContentHash64(packed));
  std::vector<ReplWrite> back;
  ASSERT_TRUE(protocol::OpenChunkPayload(chunk, &back));
  EXPECT_EQ(wire::Pack(back), packed);
  // An empty chunk (an empty store's bootstrap stream) does not shrink
  // under the block codec: it seals as a raw-codec envelope, still hashed
  // and verified.
  protocol::ShardSnapshotChunk empty;
  const std::string none = wire::Pack(std::vector<ReplWrite>());
  protocol::SealChunkPayload(none, &empty);
  EXPECT_EQ(empty.payload_codec, WireCodec::kRaw);
  EXPECT_EQ(empty.payload, none);
  EXPECT_EQ(empty.content_hash, ContentHash64(none));
  ASSERT_TRUE(protocol::OpenChunkPayload(empty, &back));
  EXPECT_TRUE(back.empty());
  empty.payload[0] ^= 0x01;
  EXPECT_FALSE(protocol::OpenChunkPayload(empty, &back));
}

}  // namespace
}  // namespace geotp
