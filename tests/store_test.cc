// Unit tests for the durable trajectory store: CRC32C, block/manifest
// codecs and their defect ladders, MemVfs crash semantics, AtomicWriteFile
// atomicity, and Store append/commit/scan/recovery behaviour under media
// corruption and torn tails. The exhaustive crash-point sweep lives in
// store_crash_test.cc.

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/quarantine.h"
#include "core/stid.h"
#include "force_isa_guard.h"
#include "kernels/crc32c.h"
#include "obs/metrics.h"
#include "store/format.h"
#include "store/segment.h"
#include "store/store.h"
#include "store/vfs.h"

namespace sidq {
namespace store {
namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Deterministic synthetic record stream; row 7 carries a NaN payload and
// row 11 a signed zero, so round-trip assertions are genuinely bit-level.
StRecord MakeRecord(uint64_t i) {
  StRecord r;
  r.sensor = 1 + (i % 5);
  r.t = static_cast<Timestamp>(1000 * i);
  r.loc = geometry::Point(0.25 * static_cast<double>(i),
                          -0.5 * static_cast<double>(i));
  r.value = 20.0 + 0.125 * static_cast<double>(i);
  r.stddev = 0.5;
  if (i == 7) r.value = std::numeric_limits<double>::quiet_NaN();
  if (i == 11) r.value = -0.0;
  return r;
}

void ExpectBitIdentical(const StRecord& a, const StRecord& b) {
  EXPECT_EQ(a.sensor, b.sensor);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(Bits(a.loc.x), Bits(b.loc.x));
  EXPECT_EQ(Bits(a.loc.y), Bits(b.loc.y));
  EXPECT_EQ(Bits(a.value), Bits(b.value));
  EXPECT_EQ(Bits(a.stddev), Bits(b.stddev));
}

// --- CRC32C ---

TEST(Crc32cTest, KnownAnswer) {
  // RFC 3720 test vector for CRC32C ("123456789").
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  const std::string data = "sidq durable store";
  const uint32_t base = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    std::string mutated = data;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 1);
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base) << byte;
  }
}

// --- block codec ---

TEST(BlockFormatTest, EncodeParseRoundTripIsBitExact) {
  ColumnarBlock block;
  for (uint64_t i = 0; i < 16; ++i) block.Add(MakeRecord(i));
  const std::string encoded = EncodeBlock(block);
  ASSERT_GT(encoded.size(), kBlockHeaderSize);

  const ParsedBlock parsed = ParseBlockAt(encoded, 0);
  ASSERT_EQ(parsed.defect, BlockDefect::kNone);
  EXPECT_EQ(parsed.bytes_consumed, encoded.size());
  ASSERT_EQ(parsed.block.size(), block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    ExpectBitIdentical(parsed.block.Record(i), block.Record(i));
  }
}

TEST(BlockFormatTest, DefectLadder) {
  ColumnarBlock block;
  for (uint64_t i = 0; i < 4; ++i) block.Add(MakeRecord(i));
  const std::string good = EncodeBlock(block);

  // Torn header.
  EXPECT_EQ(ParseBlockAt(good.substr(0, kBlockHeaderSize - 1), 0).defect,
            BlockDefect::kShortHeader);
  // Not a block boundary.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_EQ(ParseBlockAt(bad, 0).defect, BlockDefect::kBadMagic);
  // Future version byte.
  bad = good;
  bad[4] = 99;
  EXPECT_EQ(ParseBlockAt(bad, 0).defect, BlockDefect::kBadVersion);
  // Length beyond the sanity bound (flip a high bit of payload_len).
  bad = good;
  bad[11] = static_cast<char>(0x7f);
  EXPECT_EQ(ParseBlockAt(bad, 0).defect, BlockDefect::kBadLength);
  // Torn payload.
  EXPECT_EQ(ParseBlockAt(good.substr(0, good.size() - 1), 0).defect,
            BlockDefect::kShortPayload);
  // Single flipped payload bit fails the checksum.
  bad = good;
  bad[kBlockHeaderSize + 3] = static_cast<char>(bad[kBlockHeaderSize + 3] ^ 8);
  EXPECT_EQ(ParseBlockAt(bad, 0).defect, BlockDefect::kBadCrc);
}

// --- manifest codec ---

Manifest SampleManifest() {
  Manifest m;
  m.gen = 3;
  m.prev_gen = 2;
  m.prev_crc = 0xdeadbeef;
  m.field_name = "pm2.5";
  m.num_segments = 2;
  m.rows = 40;
  BlockEntry b;
  b.segment = 0;
  b.index = 0;
  b.offset = 0;
  b.length = 784;
  b.crc = 0x12345678;
  b.row_start = 0;
  b.row_count = 16;
  b.sensor_rows = {{1, 10}, {2, 6}};
  m.blocks.push_back(b);
  QuarantinedBlockEntry q;
  q.segment = 0;
  q.index = 1;
  q.defect = BlockDefect::kBadCrc;
  q.offset = 784;
  q.length = 784;
  q.row_start = 16;
  q.row_count = 16;
  q.sensor_rows = {{1, 16}};
  m.quarantined.push_back(q);
  return m;
}

TEST(ManifestTest, SerializeParseRoundTrip) {
  const Manifest m = SampleManifest();
  const std::string text = SerializeManifest(m);
  const StatusOr<ParsedManifest> parsed = ParseManifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Manifest& r = parsed->manifest;
  EXPECT_EQ(r.gen, m.gen);
  EXPECT_EQ(r.prev_gen, m.prev_gen);
  EXPECT_EQ(r.prev_crc, m.prev_crc);
  EXPECT_EQ(r.field_name, m.field_name);
  EXPECT_EQ(r.num_segments, m.num_segments);
  EXPECT_EQ(r.rows, m.rows);
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_EQ(r.blocks[0].length, 784u);
  EXPECT_EQ(r.blocks[0].sensor_rows, m.blocks[0].sensor_rows);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].defect, BlockDefect::kBadCrc);
  EXPECT_EQ(r.quarantined[0].offset, 784u);
}

TEST(ManifestTest, TornOrFlippedManifestFailsItsOwnChecksum) {
  const std::string text = SerializeManifest(SampleManifest());
  // Any strict prefix either loses the commit line (InvalidArgument) or
  // keeps it with mismatched coverage -- never parses as valid.
  for (size_t len = 0; len < text.size(); ++len) {
    EXPECT_FALSE(ParseManifest(text.substr(0, len)).ok()) << len;
  }
  // A flipped bit in the body fails the commit CRC with DataLoss.
  std::string flipped = text;
  flipped[10] = static_cast<char>(flipped[10] ^ 4);
  const StatusOr<ParsedManifest> got = ParseManifest(flipped);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(ManifestTest, FileNames) {
  EXPECT_EQ(ManifestFileName(7), "MANIFEST-000007");
  EXPECT_EQ(SegmentFileName(3), "000003.seg");
  uint64_t gen = 0;
  uint32_t seg = 0;
  EXPECT_TRUE(ParseManifestFileName("MANIFEST-000007", &gen));
  EXPECT_EQ(gen, 7u);
  EXPECT_TRUE(ParseSegmentFileName("000003.seg", &seg));
  EXPECT_EQ(seg, 3u);
  EXPECT_FALSE(ParseManifestFileName("MANIFEST-xyz", &gen));
  EXPECT_FALSE(ParseSegmentFileName("CURRENT", &seg));
  EXPECT_FALSE(ParseSegmentFileName("000003.seg.tmp", &seg));
}

// The serializer's output IS the on-disk format: padding, separators and
// field order drifting would change every commit CRC, so pin the bytes.
TEST(ManifestTest, SerializeIsByteExactGolden) {
  EXPECT_EQ(SerializeManifest(SampleManifest()),
            "# sidq-store manifest v1\n"
            "gen 3\n"
            "prev 2 deadbeef\n"
            "field pm2.5\n"
            "segments 2\n"
            "rows 40\n"
            "block 0 0 0 784 12345678 0 16 2 1 10 2 6\n"
            "quarantine 0 1 6 784 784 16 16 1 1 16\n"
            "commit d31e6ed7\n");

  // Extremes: no predecessor, empty field name, zero-padded hex, the
  // widest integers every column holds, an empty sensor_rows run.
  Manifest m;
  m.gen = 1;
  m.num_segments = 0xffffffffu;
  m.rows = std::numeric_limits<uint64_t>::max();
  BlockEntry b;
  b.segment = 0xffffffffu;
  b.index = 7;
  b.offset = std::numeric_limits<uint64_t>::max();
  b.length = 16;
  b.crc = 0xab;
  b.row_start = 1234567890123ull;
  b.row_count = 0;
  m.blocks.push_back(b);
  b.crc = 0;
  b.sensor_rows = {{0, 1},
                   {std::numeric_limits<SensorId>::max(), 0xffffffffu}};
  m.blocks.push_back(b);
  EXPECT_EQ(SerializeManifest(m),
            "# sidq-store manifest v1\n"
            "gen 1\n"
            "prev none\n"
            "field \n"
            "segments 4294967295\n"
            "rows 18446744073709551615\n"
            "block 4294967295 7 18446744073709551615 16 000000ab "
            "1234567890123 0 0\n"
            "block 4294967295 7 18446744073709551615 16 00000000 "
            "1234567890123 0 2 0 1 18446744073709551615 4294967295\n"
            "commit 5f084d1f\n");
}

// Re-seals a manifest body (every byte before the commit line) with a valid
// commit CRC, so a structural defect reaches the body parser instead of
// failing the checksum first.
std::string Reseal(const std::string& body) {
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", Crc32c(body.data(), body.size()));
  return body + "commit " + hex + "\n";
}

// SampleManifest()'s body, one entry per line (without the newline):
// 0 header, 1 gen, 2 prev, 3 field, 4 segments, 5 rows, 6 block,
// 7 quarantine.
std::vector<std::string> SampleBodyLines() {
  const std::string text = SerializeManifest(SampleManifest());
  const std::string body = text.substr(0, text.rfind("commit "));
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t nl = body.find('\n', pos);
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

// Every CRC-valid malformation maps to the reason code the v1 codec has
// always given it. The grammar is whitespace-separated tokens; a token is
// read the way strtoull reads it (optional sign, `0x` in hex, cut at a NUL
// byte), and tokens after a line's last field are ignored. Those edges
// are pinned too, so a codec rewrite cannot silently narrow or widen what
// a stored manifest may contain.
TEST(ManifestTest, HostileManifestsKeepTheirReasonCodes) {
  enum class Op { kReplace, kInsert, kErase };
  struct Case {
    const char* name;
    Op op;
    size_t line;
    std::string text;
    StatusCode code;
  };
  const StatusCode kOk = StatusCode::kOk;
  const StatusCode kBad = StatusCode::kInvalidArgument;
  const std::vector<Case> cases = {
      {"pristine", Op::kReplace, 1, "gen 3", kOk},
      {"gen not a number", Op::kReplace, 1, "gen x3", kBad},
      {"gen trailing junk", Op::kReplace, 1, "gen 3x", kBad},
      {"gen u64 max", Op::kReplace, 1, "gen 18446744073709551615", kOk},
      {"gen overflows u64", Op::kReplace, 1, "gen 18446744073709551616",
       kBad},
      {"gen missing value", Op::kReplace, 1, "gen", kBad},
      {"gen extra token", Op::kReplace, 1, "gen 3 4", kOk},
      {"gen plus sign", Op::kReplace, 1, "gen +3", kOk},
      {"gen minus sign wraps", Op::kReplace, 1, "gen -3", kOk},
      {"gen bare sign", Op::kReplace, 1, "gen -", kBad},
      {"gen cut at NUL", Op::kReplace, 1, std::string("gen 3\0z", 7), kOk},
      {"gen NUL only", Op::kReplace, 1, std::string("gen \0", 5), kOk},
      {"gen tab separated", Op::kReplace, 1, "\tgen\t3\r", kOk},
      {"gen hex digits", Op::kReplace, 1, "gen 0x3", kBad},
      {"prev none", Op::kReplace, 2, "prev none", kOk},
      {"prev missing crc", Op::kReplace, 2, "prev 2", kBad},
      {"prev missing everything", Op::kReplace, 2, "prev", kBad},
      {"prev non-hex crc", Op::kReplace, 2, "prev 2 deadbeeg", kBad},
      {"prev crc over 32 bits", Op::kReplace, 2, "prev 2 1deadbeef", kBad},
      {"prev crc 0x prefix", Op::kReplace, 2, "prev 2 0xdeadbeef", kOk},
      {"prev crc upper case", Op::kReplace, 2, "prev 2 DEADBEEF", kOk},
      {"prev crc bare 0x", Op::kReplace, 2, "prev 2 0x", kBad},
      {"prev crc minus zero", Op::kReplace, 2, "prev 2 -0", kOk},
      {"prev crc minus one", Op::kReplace, 2, "prev 2 -1", kBad},
      {"prev bad gen", Op::kReplace, 2, "prev two deadbeef", kBad},
      {"field empty", Op::kReplace, 3, "field", kOk},
      {"field spaces kept", Op::kReplace, 3, "field  a b ", kOk},
      {"field glued", Op::kReplace, 3, "fieldpm2.5", kBad},
      {"segments u32 max", Op::kReplace, 4, "segments 4294967295", kOk},
      {"segments overflow u32", Op::kReplace, 4, "segments 4294967296",
       kBad},
      {"rows missing value", Op::kReplace, 5, "rows ", kBad},
      {"rows negative zero", Op::kReplace, 5, "rows -0", kOk},
      {"block missing sensor rows", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16", kBad},
      {"block missing a pair half", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 2 1 10 2", kBad},
      {"block sensor_rows longer than line", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 3 1 10 2 6", kBad},
      {"block sensor_rows at the old cap", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 1048576 1 10", kBad},
      {"block sensor_rows over the cap", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 1048577 1 10", kBad},
      {"block sensor_rows overflows u64", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 99999999999999999999 1 10", kBad},
      {"block row_count overflows u32", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 4294967296 2 1 10 2 6", kBad},
      {"block sensor count overflows u32", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 2 1 4294967296 2 6", kBad},
      {"block segment truncates to u32", Op::kReplace, 6,
       "block 4294967296 0 0 784 12345678 0 16 2 1 10 2 6", kOk},
      {"block non-hex crc", Op::kReplace, 6,
       "block 0 0 0 784 1234567g 0 16 2 1 10 2 6", kBad},
      {"block crc over 32 bits", Op::kReplace, 6,
       "block 0 0 0 784 123456789 0 16 2 1 10 2 6", kBad},
      {"block bad offset", Op::kReplace, 6,
       "block 0 0 zero 784 12345678 0 16 2 1 10 2 6", kBad},
      {"block extra token", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 2 1 10 2 6 9", kOk},
      {"block empty sensor_rows", Op::kReplace, 6,
       "block 0 0 0 784 12345678 0 16 0", kOk},
      {"quarantine defect out of range", Op::kReplace, 7,
       "quarantine 0 1 9 784 784 16 16 1 1 16", kBad},
      {"quarantine defect max", Op::kReplace, 7,
       "quarantine 0 1 8 784 784 16 16 1 1 16", kOk},
      {"quarantine missing fields", Op::kReplace, 7,
       "quarantine 0 1 6 784 784 16", kBad},
      {"quarantine extra token", Op::kReplace, 7,
       "quarantine 0 1 6 784 784 16 16 1 1 16 x", kOk},
      {"unknown line kind", Op::kInsert, 6, "bogus 1", kBad},
      {"empty line", Op::kInsert, 6, "", kOk},
      {"blank line", Op::kInsert, 6, " \t\v\f\r", kOk},
      {"duplicate gen line", Op::kInsert, 2, "gen 4", kOk},
      {"duplicate header", Op::kInsert, 1, "# sidq-store manifest v1", kBad},
      {"no header", Op::kErase, 0, "", kBad},
      {"header trailing space", Op::kReplace, 0, "# sidq-store manifest v1 ",
       kBad},
      {"header indented", Op::kReplace, 0, " # sidq-store manifest v1", kBad},
      {"missing gen", Op::kErase, 1, "", kBad},
      {"missing prev", Op::kErase, 2, "", kBad},
      {"missing field", Op::kErase, 3, "", kBad},
      {"missing segments", Op::kErase, 4, "", kBad},
      {"missing rows", Op::kErase, 5, "", kBad},
  };
  for (const Case& c : cases) {
    std::vector<std::string> lines = SampleBodyLines();
    ASSERT_EQ(lines.size(), 8u);
    switch (c.op) {
      case Op::kReplace:
        lines[c.line] = c.text;
        break;
      case Op::kInsert:
        lines.insert(lines.begin() + static_cast<ptrdiff_t>(c.line), c.text);
        break;
      case Op::kErase:
        lines.erase(lines.begin() + static_cast<ptrdiff_t>(c.line));
        break;
    }
    std::string body;
    for (const std::string& line : lines) body += line + "\n";
    const StatusOr<ParsedManifest> got = ParseManifest(Reseal(body));
    EXPECT_EQ(got.status().code(), c.code)
        << c.name << ": " << got.status();
  }

  // Parsed values of the accepted edges.
  auto parse_with = [](size_t line, const std::string& text) {
    std::vector<std::string> lines = SampleBodyLines();
    lines[line] = text;
    std::string body;
    for (const std::string& l : lines) body += l + "\n";
    StatusOr<ParsedManifest> got = ParseManifest(Reseal(body));
    EXPECT_TRUE(got.ok()) << text << ": " << got.status();
    return got.ok() ? got->manifest : Manifest{};
  };
  EXPECT_EQ(parse_with(1, "gen -3").gen,
            std::numeric_limits<uint64_t>::max() - 2);
  EXPECT_EQ(parse_with(1, std::string("gen 3\0z", 7)).gen, 3u);
  EXPECT_EQ(parse_with(1, std::string("gen \0", 5)).gen, 0u);
  EXPECT_EQ(parse_with(2, "prev 2 0xDEADbeef").prev_crc, 0xdeadbeefu);
  EXPECT_EQ(parse_with(2, "prev none").prev_gen, 0u);
  EXPECT_EQ(parse_with(3, "field").field_name, "");
  EXPECT_EQ(parse_with(3, "field  a b ").field_name, " a b ");
  EXPECT_EQ(parse_with(3, "field\tpm 10").field_name, "pm 10");
  EXPECT_EQ(parse_with(6, "block 4294967297 0 0 784 12345678 0 16 0")
                .blocks[0]
                .segment,
            1u);
}

// The commit line is checked before the body: an unreadable or mismatched
// commit is DataLoss (torn), trailing garbage is InvalidArgument.
TEST(ManifestTest, HostileCommitLinesKeepTheirReasonCodes) {
  std::string body;
  for (const std::string& line : SampleBodyLines()) body += line + "\n";
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", Crc32c(body.data(), body.size()));
  const std::string crc = hex;
  std::string upper = crc;
  for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
  struct Case {
    const char* name;
    std::string text;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"pristine", body + "commit " + crc + "\n", StatusCode::kOk},
      {"upper-case crc", body + "commit " + upper + "\n", StatusCode::kOk},
      {"0x crc", body + "commit 0x" + crc + "\n", StatusCode::kOk},
      {"spaced crc", body + "commit \t " + crc + " \n", StatusCode::kOk},
      {"empty", "", StatusCode::kDataLoss},
      {"no commit line", body, StatusCode::kDataLoss},
      {"commit glued to a line", body + "xcommit " + crc + "\n",
       StatusCode::kDataLoss},
      {"unterminated", body + "commit " + crc, StatusCode::kDataLoss},
      {"no crc", body + "commit \n", StatusCode::kDataLoss},
      {"non-hex crc", body + "commit " + crc.substr(0, 7) + "g\n",
       StatusCode::kDataLoss},
      {"crc over 32 bits", body + "commit 1" + crc + "\n",
       StatusCode::kDataLoss},
      {"crc mismatch", body + "commit " + (crc == "00000000" ? "1" : "0") +
                           "\n",
       StatusCode::kDataLoss},
      {"garbage after crc", body + "commit " + crc + " x\n",
       StatusCode::kInvalidArgument},
      {"garbage line after commit", body + "commit " + crc + "\nx\n",
       StatusCode::kInvalidArgument},
      {"commit only", "commit " + Reseal("").substr(7),
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    const StatusOr<ParsedManifest> got = ParseManifest(c.text);
    EXPECT_EQ(got.status().code(), c.code) << c.name << ": " << got.status();
  }
}

// --- MemVfs crash semantics ---

TEST(MemVfsTest, UnsyncedBytesVanishOnCrash) {
  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("d").ok());
  StatusOr<std::unique_ptr<WritableFile>> f =
      vfs.NewWritableFile("d/a", WriteMode::kTruncate);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("durable").ok());
  ASSERT_TRUE((*f)->Sync().ok());
  ASSERT_TRUE(vfs.SyncDir("d").ok());
  ASSERT_TRUE((*f)->Append(" volatile").ok());
  vfs.SimulateCrash();
  // Post-crash: synced prefix survives, the stale handle fails.
  const StatusOr<std::string> data = vfs.ReadFile("d/a");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "durable");
  EXPECT_FALSE((*f)->Append("x").ok());
}

TEST(MemVfsTest, UnfsyncedDirOpsAreUndoneNewestFirst) {
  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("d").ok());
  ASSERT_TRUE(AtomicWriteFile(&vfs, "d/t", "old").ok());
  // Overwrite d/t via rename without the directory fsync: on crash the
  // rename rolls back to the old content and the tmp file reappears only
  // as its synced self -- which AtomicWriteFile's journal then undoes too.
  {
    StatusOr<std::unique_ptr<WritableFile>> f =
        vfs.NewWritableFile("d/t.tmp", WriteMode::kTruncate);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("new").ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
    ASSERT_TRUE(vfs.Rename("d/t.tmp", "d/t").ok());
    // no SyncDir -- crash now
  }
  vfs.SimulateCrash();
  const StatusOr<std::string> data = vfs.ReadFile("d/t");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "old");
  EXPECT_FALSE(vfs.Exists("d/t.tmp"));
}

TEST(MemVfsTest, AtomicWriteFileSurvivesCrashAfterPublish) {
  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("d").ok());
  ASSERT_TRUE(AtomicWriteFile(&vfs, "d/c", "v1").ok());
  vfs.SimulateCrash();
  const StatusOr<std::string> data = vfs.ReadFile("d/c");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "v1");
}

// --- store round trips ---

StoreOptions SmallBlocks() {
  StoreOptions o;
  o.block_records = 8;
  o.segment_target_blocks = 4;
  o.field_name = "pm2.5";
  return o;
}

TEST(StoreTest, AppendScanCommitReopenRoundTrip) {
  MemVfs vfs;
  StatusOr<std::unique_ptr<Store>> opened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store& store = **opened;
  EXPECT_EQ(store.manifest_gen(), 0u);

  constexpr uint64_t kRows = 100;  // crosses block and segment boundaries
  for (uint64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(store.Append(MakeRecord(i)).ok());
  }
  // Scan sees sealed, pending, and open-block rows before any commit.
  uint64_t seen = 0;
  ASSERT_TRUE(store
                  .Scan([&](uint64_t row, const StRecord& rec) {
                    EXPECT_EQ(row, seen);
                    ExpectBitIdentical(rec, MakeRecord(row));
                    ++seen;
                  })
                  .ok());
  EXPECT_EQ(seen, kRows);

  ASSERT_TRUE(store.Close().ok());
  EXPECT_EQ(store.manifest_gen(), 1u);

  // Reopen: clean recovery, identical bytes.
  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const Store& r = **reopened;
  EXPECT_EQ(r.manifest_gen(), 1u);
  EXPECT_EQ(r.rows(), kRows);
  EXPECT_EQ(r.rows_readable(), kRows);
  EXPECT_TRUE(r.recovery().current_valid);
  EXPECT_TRUE(r.recovery().quarantined.empty());
  EXPECT_FALSE(r.recovery().tail_truncated);
  EXPECT_EQ(r.field_name(), "pm2.5");
  seen = 0;
  ASSERT_TRUE(r.Scan([&](uint64_t row, const StRecord& rec) {
                 EXPECT_EQ(row, seen);
                 ExpectBitIdentical(rec, MakeRecord(row));
                 ++seen;
               })
                  .ok());
  EXPECT_EQ(seen, kRows);
}

// The hardware and software CRC paths compute one polynomial: a store
// written under either reopens under the other with every block verified,
// and the bytes on disk do not depend on which path wrote them.
TEST(StoreTest, CrcPathsReopenEachOthersStores) {
  kernels::ForceIsaGuard guard;
  constexpr uint64_t kRows = 100;
  // (writer tier, reader tier); nullptr is the dispatched default.
  const std::pair<const char*, const char*> legs[] = {{nullptr, "scalar"},
                                                      {"scalar", nullptr}};
  std::vector<std::map<std::string, std::string>> files;
  for (const auto& [writer, reader] : legs) {
    MemVfs vfs;
    guard.Force(writer);
    EXPECT_EQ(kernels::Crc32cHardwareActive(),
              writer == nullptr && kernels::Crc32cHardwareAvailable());
    {
      StatusOr<std::unique_ptr<Store>> opened =
          Store::Open(&vfs, "db", SmallBlocks());
      ASSERT_TRUE(opened.ok()) << opened.status();
      for (uint64_t i = 0; i < kRows; ++i) {
        ASSERT_TRUE((*opened)->Append(MakeRecord(i)).ok());
      }
      ASSERT_TRUE((*opened)->Close().ok());
    }
    guard.Force(reader);
    StatusOr<std::unique_ptr<Store>> reopened =
        Store::Open(&vfs, "db", SmallBlocks());
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    const RecoveryReport& report = (*reopened)->recovery();
    EXPECT_TRUE(report.current_valid);
    EXPECT_EQ(report.blocks_verified, (kRows + 7) / 8);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(report.rows_recovered, kRows);
    uint64_t seen = 0;
    ASSERT_TRUE((*reopened)
                    ->Scan([&](uint64_t row, const StRecord& rec) {
                      EXPECT_EQ(row, seen);
                      ExpectBitIdentical(rec, MakeRecord(row));
                      ++seen;
                    })
                    .ok());
    EXPECT_EQ(seen, kRows);

    std::map<std::string, std::string>& bytes = files.emplace_back();
    StatusOr<std::vector<std::string>> names = vfs.ListDir("db");
    ASSERT_TRUE(names.ok()) << names.status();
    for (const std::string& name : *names) {
      StatusOr<std::string> data = vfs.ReadFile("db/" + name);
      ASSERT_TRUE(data.ok()) << data.status();
      bytes[name] = *std::move(data);
    }
  }
  EXPECT_EQ(files[0], files[1]);
}

TEST(StoreTest, ManifestGenerationsChainAcrossCommits) {
  MemVfs vfs;
  StatusOr<std::unique_ptr<Store>> opened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(opened.ok());
  Store& store = **opened;
  for (int commit = 0; commit < 3; ++commit) {
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          store.Append(MakeRecord(static_cast<uint64_t>(commit) * 10 + i))
              .ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    EXPECT_EQ(store.manifest_gen(), static_cast<uint64_t>(commit) + 1);
  }
  ASSERT_TRUE(store.Close().ok());

  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->manifest_gen(), 3u);
  EXPECT_EQ((*reopened)->rows(), 30u);
  // All three surviving generation links verify.
  EXPECT_EQ((*reopened)->recovery().chain_links_verified, 2u);
  EXPECT_TRUE((*reopened)->recovery().chain_intact);
}

TEST(StoreTest, UncommittedSealedBlocksAreRecoveredFromTail) {
  MemVfs vfs;
  {
    StatusOr<std::unique_ptr<Store>> opened =
        Store::Open(&vfs, "db", SmallBlocks());
    ASSERT_TRUE(opened.ok());
    Store& store = **opened;
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    // 20 more rows = 2 sealed blocks + 4 in the open block; drop the
    // store without committing, like a crash. Sealed blocks were written
    // but never synced -- simulate the power cut.
    for (uint64_t i = 10; i < 30; ++i) {
      ASSERT_TRUE(store.Append(MakeRecord(i)).ok());
    }
  }
  // No SimulateCrash: the bytes reached the (Mem)page cache and the file
  // still holds them; recovery adopts the sealed-but-unmanifested tail.
  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const Store& r = **reopened;
  EXPECT_EQ(r.manifest_gen(), 1u);
  EXPECT_EQ(r.recovery().tail_blocks_recovered, 2u);
  EXPECT_EQ(r.rows(), 26u);  // 10 committed + 16 sealed; open block lost
  uint64_t seen = 0;
  ASSERT_TRUE(r.Scan([&](uint64_t row, const StRecord& rec) {
                 ExpectBitIdentical(rec, MakeRecord(row));
                 ++seen;
               })
                  .ok());
  EXPECT_EQ(seen, 26u);
}

TEST(StoreTest, CorruptInteriorBlockIsQuarantinedWithReason) {
  MemVfs vfs;
  {
    StatusOr<std::unique_ptr<Store>> opened =
        Store::Open(&vfs, "db", SmallBlocks());
    ASSERT_TRUE(opened.ok());
    Store& store = **opened;
    for (uint64_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(store.Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE(store.Close().ok());
  }
  // Flip one payload bit inside the second block of segment 0 (blocks are
  // back-to-back; every block here holds 8 rows of 48 bytes + 4 length
  // prefix + 16 header).
  const StatusOr<std::string> seg = vfs.ReadFile("db/000000.seg");
  ASSERT_TRUE(seg.ok());
  const ParsedBlock first = ParseBlockAt(*seg, 0);
  ASSERT_EQ(first.defect, BlockDefect::kNone);
  ASSERT_TRUE(
      vfs.CorruptByte("db/000000.seg", first.bytes_consumed + 20, 0x10).ok());

  obs::MetricsRegistry metrics;
  StoreOptions options = SmallBlocks();
  options.obs.metrics = &metrics;
  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const Store& r = **reopened;

  // The dead block is itemized, not dropped: reason code, row span, and
  // per-sensor losses all survive.
  ASSERT_EQ(r.recovery().quarantined.size(), 1u);
  const QuarantinedBlockEntry& q = r.recovery().quarantined[0];
  EXPECT_EQ(q.defect, BlockDefect::kBadCrc);
  EXPECT_EQ(q.row_start, 8u);
  EXPECT_EQ(q.row_count, 8u);
  EXPECT_EQ(r.recovery().rows_lost, 8u);
  EXPECT_EQ(r.rows(), 32u);
  EXPECT_EQ(r.rows_readable(), 24u);

  // Scan serves everything readable; row ids of lost rows stay gaps.
  std::vector<uint64_t> rows_seen;
  ASSERT_TRUE(r.Scan([&](uint64_t row, const StRecord& rec) {
                 rows_seen.push_back(row);
                 ExpectBitIdentical(rec, MakeRecord(row));
               })
                  .ok());
  ASSERT_EQ(rows_seen.size(), 24u);
  for (uint64_t row : rows_seen) {
    EXPECT_TRUE(row < 8 || row >= 16) << row;
  }

  // Per-trajectory quality annotations: sensors in the dead block are
  // flagged degraded.
  uint64_t lost_total = 0;
  for (const auto& [sensor, quality] : r.recovery().sensor_quality) {
    lost_total += quality.rows_lost;
    EXPECT_EQ(quality.complete(), quality.rows_lost == 0) << sensor;
  }
  EXPECT_EQ(lost_total, 8u);

  // Ledger surfacing with the store-specific reason code.
  QuarantineLedger ledger;
  r.AppendQuarantineTo(&ledger);
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.entries()[0].reason, QuarantineReason::kStoreCorruptBlock);
  EXPECT_EQ(ledger.entries()[0].seq, 8u);

  // Metrics surfaced the loss.
  int64_t quarantined_counter = 0;
  for (const obs::CounterValue& c : metrics.Snapshot().counters) {
    if (c.name == "store.recovery.blocks_quarantined") {
      quarantined_counter = c.value;
    }
  }
  EXPECT_EQ(quarantined_counter, 1);

  // The quarantine verdict is carried forward: commit on the recovered
  // store, reopen, and the dead block is still itemized.
  StatusOr<std::unique_ptr<Store>> w = Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE((*w)->Close().ok());
  StatusOr<std::unique_ptr<Store>> again =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ((*again)->recovery().quarantined.size(), 1u);
  EXPECT_EQ((*again)->recovery().quarantined[0].defect, BlockDefect::kBadCrc);
  EXPECT_EQ((*again)->rows_readable(), 24u);
}

// Scan's row loop is a template over ScanBlocks: its rows and row ids are
// exactly the concatenation of the blocks ScanBlocks hands out, across
// committed blocks with a quarantine gap, pending blocks and the open
// block, whether `fn` is a lambda or a std::function.
TEST(StoreTest, ScanRowsEqualScanBlocksConcatenation) {
  MemVfs vfs;
  {
    StatusOr<std::unique_ptr<Store>> opened =
        Store::Open(&vfs, "db", SmallBlocks());
    ASSERT_TRUE(opened.ok());
    for (uint64_t i = 0; i < 32; ++i) {
      ASSERT_TRUE((*opened)->Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*opened)->Close().ok());
  }
  // Quarantine the second block (rows 8..15), as in the test above.
  const StatusOr<std::string> seg = vfs.ReadFile("db/000000.seg");
  ASSERT_TRUE(seg.ok());
  const ParsedBlock first = ParseBlockAt(*seg, 0);
  ASSERT_EQ(first.defect, BlockDefect::kNone);
  ASSERT_TRUE(
      vfs.CorruptByte("db/000000.seg", first.bytes_consumed + 20, 0x10).ok());
  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Store& store = **reopened;
  ASSERT_EQ(store.recovery().quarantined.size(), 1u);
  // Rows 32..47 seal two pending blocks; rows 48..51 stay in the open one.
  for (uint64_t i = 32; i < 52; ++i) {
    ASSERT_TRUE(store.Append(MakeRecord(i)).ok());
  }

  std::vector<std::pair<uint64_t, size_t>> blocks;  // (first_row, rows)
  std::vector<std::pair<uint64_t, StRecord>> from_blocks;
  ASSERT_TRUE(store
                  .ScanBlocks([&](uint64_t first_row,
                                  const ColumnarBlock& block) {
                    blocks.emplace_back(first_row, block.size());
                    for (size_t i = 0; i < block.size(); ++i) {
                      from_blocks.emplace_back(first_row + i,
                                               block.Record(i));
                    }
                  })
                  .ok());
  const std::vector<std::pair<uint64_t, size_t>> want_blocks = {
      {0, 8}, {16, 8}, {24, 8}, {32, 8}, {40, 8}, {48, 4}};
  EXPECT_EQ(blocks, want_blocks);
  ASSERT_EQ(from_blocks.size(), 44u);

  std::vector<std::pair<uint64_t, StRecord>> from_lambda;
  ASSERT_TRUE(store
                  .Scan([&](uint64_t row, const StRecord& rec) {
                    from_lambda.emplace_back(row, rec);
                  })
                  .ok());
  std::vector<std::pair<uint64_t, StRecord>> from_function;
  const std::function<void(uint64_t, const StRecord&)> fn =
      [&](uint64_t row, const StRecord& rec) {
        from_function.emplace_back(row, rec);
      };
  ASSERT_TRUE(store.Scan(fn).ok());

  for (const auto* rows : {&from_lambda, &from_function}) {
    ASSERT_EQ(rows->size(), from_blocks.size());
    for (size_t i = 0; i < rows->size(); ++i) {
      EXPECT_EQ((*rows)[i].first, from_blocks[i].first) << i;
      ExpectBitIdentical((*rows)[i].second, from_blocks[i].second);
      ExpectBitIdentical((*rows)[i].second, MakeRecord((*rows)[i].first));
    }
  }
}

TEST(StoreTest, TornTailIsTruncatedAndReopenIsIdempotent) {
  MemVfs vfs;
  {
    StatusOr<std::unique_ptr<Store>> opened =
        Store::Open(&vfs, "db", SmallBlocks());
    ASSERT_TRUE(opened.ok());
    Store& store = **opened;
    for (uint64_t i = 0; i < 24; ++i) {
      ASSERT_TRUE(store.Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE(store.Close().ok());
  }
  // Tear the last block: cut 17 bytes off the segment end, then invalidate
  // the manifest chain's view by removing CURRENT? No -- the manifest
  // references the full block, so the cut shows up as a manifested block
  // failing verification (quarantine), not a tail. To exercise *tail*
  // truncation, append garbage past the manifested end instead.
  const StatusOr<uint64_t> size = vfs.FileSize("db/000000.seg");
  ASSERT_TRUE(size.ok());
  {
    StatusOr<std::unique_ptr<WritableFile>> f =
        vfs.NewWritableFile("db/000000.seg", WriteMode::kAppend);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("SBLK torn garbage").ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->recovery().tail_truncated);
  EXPECT_EQ((*reopened)->recovery().tail_bytes_discarded, 17u);
  EXPECT_EQ((*reopened)->rows_readable(), 24u);
  const StatusOr<uint64_t> size_after = vfs.FileSize("db/000000.seg");
  ASSERT_TRUE(size_after.ok());
  EXPECT_EQ(*size_after, *size);

  // Second open: nothing left to repair.
  StatusOr<std::unique_ptr<Store>> again =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)->recovery().tail_truncated);
  EXPECT_EQ((*again)->rows_readable(), 24u);
}

TEST(StoreTest, AppendAfterRecoveryContinuesRowIds) {
  MemVfs vfs;
  {
    StatusOr<std::unique_ptr<Store>> opened =
        Store::Open(&vfs, "db", SmallBlocks());
    ASSERT_TRUE(opened.ok());
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE((*opened)->Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*opened)->Close().ok());
  }
  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(reopened.ok());
  Store& store = **reopened;
  for (uint64_t i = 20; i < 40; ++i) {
    ASSERT_TRUE(store.Append(MakeRecord(i)).ok());
  }
  ASSERT_TRUE(store.Close().ok());

  StatusOr<std::unique_ptr<Store>> final_open =
      Store::Open(&vfs, "db", SmallBlocks());
  ASSERT_TRUE(final_open.ok());
  uint64_t seen = 0;
  ASSERT_TRUE((*final_open)
                  ->Scan([&](uint64_t row, const StRecord& rec) {
                    EXPECT_EQ(row, seen);
                    ExpectBitIdentical(rec, MakeRecord(row));
                    ++seen;
                  })
                  .ok());
  EXPECT_EQ(seen, 40u);
}

TEST(StoreTest, RejectsBadOptions) {
  MemVfs vfs;
  StoreOptions bad;
  bad.block_records = 0;
  EXPECT_FALSE(Store::Open(&vfs, "db", bad).ok());
}

}  // namespace
}  // namespace store
}  // namespace sidq
