#include "store/format.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace sidq {
namespace store {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "store format assumes little-endian host layout");

namespace {

template <typename T>
void AppendRaw(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void AppendColumn(std::string* out, const std::vector<T>& column) {
  out->append(reinterpret_cast<const char*>(column.data()),
              column.size() * sizeof(T));
}

template <typename T>
void ReadColumn(const char* src, size_t n, std::vector<T>* column) {
  column->resize(n);
  std::memcpy(column->data(), src, n * sizeof(T));
}

// Per-record payload bytes: sensor u64 + t i64 + four doubles.
constexpr size_t kRowBytes = sizeof(SensorId) + sizeof(Timestamp) +
                             4 * sizeof(double);

// --- manifest text codec ----------------------------------------------------
//
// The v1 grammar: lines split on '\n'; within a line, tokens are separated
// by C-locale whitespace; a numeric token means what strtoull(tok, &end,
// base) reads when it stops at `*end == '\0'`. Every manifest a v1 store
// ever accepted must keep parsing to the same values and every rejection
// keeps its StatusCode, so those strtoull edges are part of the format
// (tests/store_test.cc pins them in a reason-code table).

constexpr char kManifestHeader[] = "# sidq-store manifest v1";

// ' ' and "\t\n\v\f\r" (9..13).
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// strtoull semantics: the token ends at its first NUL byte (nothing left
// converts to 0), one leading sign is allowed and '-' negates modulo 2^64,
// hex may carry a 0x prefix, and the magnitude must fit 64 bits.
bool ParseUnsigned(std::string_view tok, int base, uint64_t* out) {
  uint64_t v = 0;
  const char* end = tok.data() + tok.size();
  std::from_chars_result r = std::from_chars(tok.data(), end, v, base);
  if (r.ec == std::errc() && r.ptr == end) {  // plain digits: the common case
    *out = v;
    return true;
  }
  tok = tok.substr(0, tok.find('\0'));
  if (tok.empty()) {
    *out = 0;
    return true;
  }
  const bool negate = tok.front() == '-';
  if (negate || tok.front() == '+') tok.remove_prefix(1);
  if (base == 16 && tok.size() >= 2 && tok[0] == '0' &&
      (tok[1] == 'x' || tok[1] == 'X')) {
    tok.remove_prefix(2);
  }
  end = tok.data() + tok.size();
  r = std::from_chars(tok.data(), end, v, base);
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = negate ? 0 - v : v;
  return true;
}

bool ParseHex32(std::string_view tok, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseUnsigned(tok, 16, &v) || v > 0xffffffffull) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

// Cursor over the whitespace-separated tokens of one line.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_(text) {}

  // The next token, or false when only whitespace is left.
  bool Next(std::string_view* tok) {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    if (pos_ == text_.size()) return false;
    const size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    *tok = text_.substr(start, pos_ - start);
    return true;
  }
  bool U64(uint64_t* out) {
    std::string_view tok;
    return Next(&tok) && ParseUnsigned(tok, 10, out);
  }
  bool U32(uint32_t* out) {
    uint64_t v = 0;
    if (!U64(&v) || v > 0xffffffffull) return false;
    *out = static_cast<uint32_t>(v);
    return true;
  }
  // v1 stores segment and block ordinals as u64 and keeps the low 32 bits.
  bool TruncatedU32(uint32_t* out) {
    uint64_t v = 0;
    if (!U64(&v)) return false;
    *out = static_cast<uint32_t>(v);
    return true;
  }
  bool Hex32(uint32_t* out) {
    std::string_view tok;
    return Next(&tok) && ParseHex32(tok, out);
  }
  // Everything after the last token read, separator included.
  std::string_view rest() const { return text_.substr(pos_); }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

bool ParseSensorRows(Tokens* in,
                     std::vector<std::pair<SensorId, uint32_t>>* out) {
  uint64_t n = 0;
  if (!in->U64(&n) || n > (1u << 20)) return false;
  // A pair takes at least four bytes (" s c"), so the rest of the line
  // bounds the reservation: a CRC-valid line claiming a million pairs
  // fails below without a large allocation first.
  out->reserve(std::min<uint64_t>(n, in->rest().size() / 4));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t sensor = 0;
    uint32_t count = 0;
    if (!in->U64(&sensor) || !in->U32(&count)) return false;
    out->emplace_back(static_cast<SensorId>(sensor), count);
  }
  return true;
}

// Appends ' ' and `v` in decimal (std::to_string's digits).
template <typename T>
void PutDec(std::string* out, T v) {
  char buf[24] = {' '};
  const auto res = std::to_chars(buf + 1, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

// Appends ' ' and `v` as exactly eight lower-case hex digits ("%08x").
void PutHex32(std::string* out, uint32_t v) {
  char buf[9] = {' ', '0', '0', '0', '0', '0', '0', '0', '0'};
  char digits[8];
  const auto res = std::to_chars(digits, digits + sizeof(digits), v, 16);
  const size_t len = static_cast<size_t>(res.ptr - digits);
  std::memcpy(buf + sizeof(buf) - len, digits, len);
  out->append(buf, sizeof(buf));
}

std::string Hex32(uint32_t v) {
  std::string out;
  PutHex32(&out, v);
  return out.substr(1);
}

void PutSensorRows(
    std::string* out,
    const std::vector<std::pair<SensorId, uint32_t>>& sensor_rows) {
  PutDec(out, sensor_rows.size());
  for (const auto& [sensor, count] : sensor_rows) {
    PutDec(out, sensor);
    PutDec(out, count);
  }
}

}  // namespace

const char* BlockDefectName(BlockDefect defect) {
  switch (defect) {
    case BlockDefect::kNone:
      return "none";
    case BlockDefect::kShortHeader:
      return "short-header";
    case BlockDefect::kBadMagic:
      return "bad-magic";
    case BlockDefect::kBadVersion:
      return "bad-version";
    case BlockDefect::kBadLength:
      return "bad-length";
    case BlockDefect::kShortPayload:
      return "short-payload";
    case BlockDefect::kBadCrc:
      return "bad-crc";
    case BlockDefect::kBadPayload:
      return "bad-payload";
    case BlockDefect::kManifestMismatch:
      return "manifest-mismatch";
  }
  return "unknown";
}

std::string EncodeBlock(const ColumnarBlock& block) {
  std::string payload;
  const uint32_t n = static_cast<uint32_t>(block.size());
  payload.reserve(sizeof(uint32_t) + n * kRowBytes);
  AppendRaw(&payload, n);
  AppendColumn(&payload, block.sensor);
  AppendColumn(&payload, block.t);
  AppendColumn(&payload, block.x);
  AppendColumn(&payload, block.y);
  AppendColumn(&payload, block.value);
  AppendColumn(&payload, block.stddev);

  // Header: magic | version | type | reserved | payload_len | crc. The CRC
  // covers the header fields after the magic (minus itself) plus the
  // payload, so a flipped length bit fails verification just like flipped
  // data.
  std::string header;
  header.reserve(kBlockHeaderSize);
  header.append(kBlockMagic, sizeof(kBlockMagic));
  AppendRaw(&header, kFormatVersion);
  AppendRaw(&header, kBlockTypeColumnar);
  AppendRaw(&header, static_cast<uint16_t>(0));
  AppendRaw(&header, static_cast<uint32_t>(payload.size()));
  uint32_t crc = kernels::Crc32cExtend(0, header.data() + 4, 8);
  crc = kernels::Crc32cExtend(crc, payload.data(), payload.size());
  AppendRaw(&header, crc);
  return header + payload;
}

ParsedBlock ParseBlockAt(std::string_view segment, uint64_t offset) {
  ParsedBlock out;
  if (offset > segment.size() ||
      segment.size() - offset < kBlockHeaderSize) {
    out.defect = BlockDefect::kShortHeader;
    return out;
  }
  const char* header = segment.data() + offset;
  if (std::memcmp(header, kBlockMagic, sizeof(kBlockMagic)) != 0) {
    out.defect = BlockDefect::kBadMagic;
    return out;
  }
  const uint8_t version = static_cast<uint8_t>(header[4]);
  const uint8_t type = static_cast<uint8_t>(header[5]);
  if (version != kFormatVersion || type != kBlockTypeColumnar) {
    out.defect = BlockDefect::kBadVersion;
    return out;
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, header + 8, sizeof(payload_len));
  if (payload_len > kMaxBlockPayload) {
    out.defect = BlockDefect::kBadLength;
    return out;
  }
  std::memcpy(&out.crc, header + 12, sizeof(out.crc));
  if (segment.size() - offset - kBlockHeaderSize < payload_len) {
    out.defect = BlockDefect::kShortPayload;
    return out;
  }
  out.bytes_consumed = kBlockHeaderSize + payload_len;
  const char* payload = header + kBlockHeaderSize;
  uint32_t crc = kernels::Crc32cExtend(0, header + 4, 8);
  crc = kernels::Crc32cExtend(crc, payload, payload_len);
  if (crc != out.crc) {
    out.defect = BlockDefect::kBadCrc;
    return out;
  }
  if (payload_len < sizeof(uint32_t)) {
    out.defect = BlockDefect::kBadPayload;
    return out;
  }
  uint32_t n = 0;
  std::memcpy(&n, payload, sizeof(n));
  if (payload_len != sizeof(uint32_t) + static_cast<uint64_t>(n) * kRowBytes) {
    out.defect = BlockDefect::kBadPayload;
    return out;
  }
  const char* p = payload + sizeof(uint32_t);
  ReadColumn(p, n, &out.block.sensor);
  p += n * sizeof(SensorId);
  ReadColumn(p, n, &out.block.t);
  p += n * sizeof(Timestamp);
  ReadColumn(p, n, &out.block.x);
  p += n * sizeof(double);
  ReadColumn(p, n, &out.block.y);
  p += n * sizeof(double);
  ReadColumn(p, n, &out.block.value);
  p += n * sizeof(double);
  ReadColumn(p, n, &out.block.stddev);
  return out;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::string SerializeManifest(const Manifest& m) {
  // One reserved buffer: a line costs ~64 bytes plus ~12 per sensor pair.
  size_t estimate = 256 + m.field_name.size();
  for (const BlockEntry& b : m.blocks) {
    estimate += 64 + 12 * b.sensor_rows.size();
  }
  for (const QuarantinedBlockEntry& q : m.quarantined) {
    estimate += 64 + 12 * q.sensor_rows.size();
  }
  std::string out;
  out.reserve(estimate);
  out += kManifestHeader;
  out += "\ngen";
  PutDec(&out, m.gen);
  if (m.prev_gen == 0) {
    out += "\nprev none";
  } else {
    out += "\nprev";
    PutDec(&out, m.prev_gen);
    PutHex32(&out, m.prev_crc);
  }
  out += "\nfield ";
  out += m.field_name;
  out += "\nsegments";
  PutDec(&out, m.num_segments);
  out += "\nrows";
  PutDec(&out, m.rows);
  out += '\n';
  for (const BlockEntry& b : m.blocks) {
    out += "block";
    PutDec(&out, b.segment);
    PutDec(&out, b.index);
    PutDec(&out, b.offset);
    PutDec(&out, b.length);
    PutHex32(&out, b.crc);
    PutDec(&out, b.row_start);
    PutDec(&out, b.row_count);
    PutSensorRows(&out, b.sensor_rows);
    out += '\n';
  }
  for (const QuarantinedBlockEntry& q : m.quarantined) {
    out += "quarantine";
    PutDec(&out, q.segment);
    PutDec(&out, q.index);
    PutDec(&out, static_cast<int>(q.defect));
    PutDec(&out, q.offset);
    PutDec(&out, q.length);
    PutDec(&out, q.row_start);
    PutDec(&out, q.row_count);
    PutSensorRows(&out, q.sensor_rows);
    out += '\n';
  }
  const uint32_t crc = Crc32c(out);
  out += "commit";
  PutHex32(&out, crc);
  out += '\n';
  return out;
}

StatusOr<ParsedManifest> ParseManifest(std::string_view text) {
  // The commit line must be the last line and must checksum everything
  // before it; anything else is a torn or corrupted manifest.
  const size_t commit_pos = text.rfind("commit ");
  if (commit_pos == std::string_view::npos ||
      (commit_pos != 0 && text[commit_pos - 1] != '\n')) {
    return Status::DataLoss("manifest has no commit line (torn)");
  }
  // The commit line must itself be newline-terminated: a manifest cut even
  // one byte short is torn, full stop -- "every strict prefix fails" is
  // the invariant the crash sweep leans on.
  if (text.back() != '\n') {
    return Status::DataLoss("manifest commit line unterminated (torn)");
  }
  Tokens commit_line(text.substr(commit_pos + 7));
  std::string_view tok;
  uint32_t commit_crc = 0;
  if (!commit_line.Next(&tok)) {
    return Status::DataLoss("manifest commit line unreadable (torn)");
  }
  if (!ParseHex32(tok, &commit_crc)) {
    return Status::DataLoss("manifest commit crc unreadable (torn)");
  }
  if (commit_line.Next(&tok)) {
    return Status::InvalidArgument("garbage after manifest commit line");
  }
  const std::string_view body = text.substr(0, commit_pos);
  const uint32_t actual = Crc32c(body);
  if (actual != commit_crc) {
    return Status::DataLoss("manifest commit crc mismatch: recorded " +
                            Hex32(commit_crc) + ", computed " + Hex32(actual));
  }

  ParsedManifest out;
  out.commit_crc = commit_crc;
  Manifest& m = out.manifest;
  // The body is empty or ends in '\n' (the byte before "commit ").
  size_t pos = body.find('\n');
  if (body.empty() || body.substr(0, pos) != kManifestHeader) {
    return Status::InvalidArgument("bad manifest header line: " +
                                   std::string(body.substr(0, pos)));
  }
  bool saw_gen = false, saw_field = false, saw_segments = false,
       saw_rows = false, saw_prev = false;
  for (++pos; pos < body.size();) {
    const size_t eol = body.find('\n', pos);
    const std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    Tokens in(line);
    std::string_view kind;
    if (!in.Next(&kind)) continue;
    if (kind == "gen") {
      if (!in.U64(&m.gen)) {
        return Status::InvalidArgument("bad gen line: " + std::string(line));
      }
      saw_gen = true;
    } else if (kind == "prev") {
      if (!in.Next(&tok)) {
        return Status::InvalidArgument("bad prev line: " + std::string(line));
      }
      if (tok != "none") {
        if (!ParseUnsigned(tok, 10, &m.prev_gen)) {
          return Status::InvalidArgument("bad prev gen: " +
                                         std::string(line));
        }
        if (!in.Hex32(&m.prev_crc)) {
          return Status::InvalidArgument("bad prev crc: " +
                                         std::string(line));
        }
      }
      saw_prev = true;
    } else if (kind == "field") {
      // The name is the rest of the line after one separator, verbatim.
      const std::string_view rest = in.rest();
      m.field_name = std::string(rest.empty() ? rest : rest.substr(1));
      saw_field = true;
    } else if (kind == "segments") {
      if (!in.U32(&m.num_segments)) {
        return Status::InvalidArgument("bad segments line: " +
                                       std::string(line));
      }
      saw_segments = true;
    } else if (kind == "rows") {
      if (!in.U64(&m.rows)) {
        return Status::InvalidArgument("bad rows line: " + std::string(line));
      }
      saw_rows = true;
    } else if (kind == "block") {
      BlockEntry& b = m.blocks.emplace_back();
      if (!in.TruncatedU32(&b.segment) || !in.TruncatedU32(&b.index) ||
          !in.U64(&b.offset) || !in.U64(&b.length) || !in.Hex32(&b.crc) ||
          !in.U64(&b.row_start) || !in.U32(&b.row_count) ||
          !ParseSensorRows(&in, &b.sensor_rows)) {
        return Status::InvalidArgument("bad block line: " +
                                       std::string(line));
      }
    } else if (kind == "quarantine") {
      QuarantinedBlockEntry& q = m.quarantined.emplace_back();
      uint64_t defect = 0;
      if (!in.TruncatedU32(&q.segment) || !in.TruncatedU32(&q.index) ||
          !in.U64(&defect) || !in.U64(&q.offset) || !in.U64(&q.length) ||
          !in.U64(&q.row_start) || !in.U32(&q.row_count) ||
          defect > static_cast<uint64_t>(BlockDefect::kManifestMismatch) ||
          !ParseSensorRows(&in, &q.sensor_rows)) {
        return Status::InvalidArgument("bad quarantine line: " +
                                       std::string(line));
      }
      q.defect = static_cast<BlockDefect>(defect);
    } else {
      return Status::InvalidArgument("unknown manifest line: " +
                                     std::string(line));
    }
  }
  if (!saw_gen || !saw_prev || !saw_field || !saw_segments || !saw_rows) {
    return Status::InvalidArgument("manifest missing required line");
  }
  return out;
}
std::string ManifestFileName(uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%06" PRIu64, gen);
  return buf;
}

std::string SegmentFileName(uint32_t segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06u.seg", segment);
  return buf;
}

bool ParseManifestFileName(const std::string& name, uint64_t* gen) {
  constexpr char kPrefix[] = "MANIFEST-";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.size() <= kPrefixLen || name.compare(0, kPrefixLen, kPrefix) != 0) {
    return false;
  }
  const std::string digits = name.substr(kPrefixLen);
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  char* end = nullptr;
  *gen = std::strtoull(digits.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseSegmentFileName(const std::string& name, uint32_t* segment) {
  constexpr char kSuffix[] = ".seg";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kSuffixLen ||
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(0, name.size() - kSuffixLen);
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  char* end = nullptr;
  const uint64_t v = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v > 0xffffffffull) return false;
  *segment = static_cast<uint32_t>(v);
  return true;
}

std::string SerializeCurrent(uint64_t gen, uint32_t commit_crc) {
  std::string out = ManifestFileName(gen);
  PutHex32(&out, commit_crc);
  out += '\n';
  return out;
}

Status ParseCurrent(std::string_view text, uint64_t* gen,
                    uint32_t* commit_crc) {
  Tokens in(text);
  std::string_view name, crc;
  if (!in.Next(&name)) {
    return Status::DataLoss("CURRENT is empty or unreadable");
  }
  if (!ParseManifestFileName(std::string(name), gen)) {
    return Status::DataLoss("CURRENT names no manifest: " + std::string(name));
  }
  if (!in.Next(&crc) || !ParseHex32(crc, commit_crc)) {
    return Status::DataLoss("CURRENT has no commit crc");
  }
  return Status::OK();
}

}  // namespace store
}  // namespace sidq
