#include "store/block_reader.h"

#include <cstring>
#include <utility>

namespace sidq {
namespace store {

namespace {

// Sequential scans touch segments in ascending order, so a handful of
// live handles covers them; the cap keeps fd/mapping usage flat on
// thousand-segment stores.
constexpr size_t kMaxHandles = 64;

// Bounded defect ladder at `offset` of `file`, verdict-identical to
// ParseBlockAt over the whole file: a 16-byte header read settles
// kShortHeader / kBadMagic / kBadVersion / kBadLength, then the header's
// own payload length sizes the full read, so kShortPayload is only ever
// "the file ends early", not "our window was small".
Status LadderAt(RandomAccessFile* file, std::string* scratch, uint64_t offset,
                ParsedBlock* parsed) {
  *parsed = ParsedBlock();
  scratch->resize(kBlockHeaderSize);
  SIDQ_ASSIGN_OR_RETURN(
      std::string_view header,
      file->Read(offset, kBlockHeaderSize, scratch->data()));
  if (header.size() < kBlockHeaderSize) {
    parsed->defect = BlockDefect::kShortHeader;
    return Status::OK();
  }
  const ParsedBlock header_verdict = ParseBlockAt(header, 0);
  if (header_verdict.defect == BlockDefect::kBadMagic ||
      header_verdict.defect == BlockDefect::kBadVersion ||
      header_verdict.defect == BlockDefect::kBadLength) {
    *parsed = header_verdict;
    return Status::OK();
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, header.data() + 8, sizeof(payload_len));
  const size_t want = kBlockHeaderSize + payload_len;
  scratch->resize(want);
  SIDQ_ASSIGN_OR_RETURN(std::string_view full,
                        file->Read(offset, want, scratch->data()));
  if (full.size() < want) {
    parsed->defect = BlockDefect::kShortPayload;
    return Status::OK();
  }
  *parsed = ParseBlockAt(full, 0);
  return Status::OK();
}

}  // namespace

BlockReader::BlockReader(const Vfs* vfs, std::string dir, BlockCache* cache)
    : vfs_(vfs), dir_(std::move(dir)), cache_(cache) {}

StatusOr<RandomAccessFile*> BlockReader::Handle(uint32_t segment) {
  auto it = handles_.find(segment);
  if (it != handles_.end()) return it->second.get();
  SIDQ_ASSIGN_OR_RETURN(
      std::unique_ptr<RandomAccessFile> file,
      vfs_->NewRandomAccessFile(dir_ + "/" + SegmentFileName(segment)));
  if (handles_.size() >= kMaxHandles) {
    // Scans walk segments in ascending order; the lowest-numbered handle
    // is the least likely to be touched again.
    handles_.erase(handles_.begin());
  }
  RandomAccessFile* raw = file.get();
  handles_[segment] = std::move(file);
  return raw;
}

Status BlockReader::VerifyAt(RandomAccessFile* file, std::string* scratch,
                             const BlockEntry& entry, BlockDefect* defect,
                             ColumnarBlock* out) {
  ParsedBlock parsed;
  SIDQ_RETURN_IF_ERROR(LadderAt(file, scratch, entry.offset, &parsed));
  *defect = parsed.defect;
  if (*defect == BlockDefect::kNone &&
      (parsed.crc != entry.crc || parsed.bytes_consumed != entry.length ||
       parsed.block.size() != entry.row_count)) {
    *defect = BlockDefect::kManifestMismatch;
  }
  if (*defect == BlockDefect::kNone && out != nullptr) {
    *out = std::move(parsed.block);
  }
  return Status::OK();
}

Status BlockReader::Read(const BlockEntry& entry, MissingPolicy policy,
                         BlockDefect* defect, PinnedBlock* out) {
  *defect = BlockDefect::kNone;
  *out = PinnedBlock();  // unpin a previous block before probing
  *out = cache_->Lookup(entry.segment, entry.offset);
  if (*out) return Status::OK();
  StatusOr<RandomAccessFile*> handle = Handle(entry.segment);
  if (!handle.ok()) {
    if (policy == MissingPolicy::kDefect) {
      // Missing/unreadable segment: same verdict a zero-length file gives.
      *defect = BlockDefect::kShortHeader;
      return Status::OK();
    }
    return handle.status();
  }
  ColumnarBlock block;
  const Status st = VerifyAt(*handle, &scratch_, entry, defect, &block);
  if (!st.ok()) {
    if (policy == MissingPolicy::kDefect) {
      *defect = BlockDefect::kShortHeader;
      return Status::OK();
    }
    return st;
  }
  if (*defect != BlockDefect::kNone) return Status::OK();
  *out = cache_->Insert(entry.segment, entry.offset, std::move(block));
  return Status::OK();
}

StatusOr<BlockReader::TailScanResult> BlockReader::TailScan(
    uint32_t segment, uint64_t start_offset, uint32_t start_index,
    const std::function<void(ScannedBlock&&)>& fn) {
  SIDQ_ASSIGN_OR_RETURN(RandomAccessFile * file, Handle(segment));
  SIDQ_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  TailScanResult result;
  uint64_t offset = start_offset;
  uint32_t index = start_index;
  while (offset < size) {
    ParsedBlock parsed;
    SIDQ_RETURN_IF_ERROR(LadderAt(file, &scratch_, offset, &parsed));
    if (parsed.defect != BlockDefect::kNone) {
      result.defect = parsed.defect;
      break;
    }
    ScannedBlock scanned;
    scanned.index = index;
    scanned.offset = offset;
    scanned.length = parsed.bytes_consumed;
    scanned.crc = parsed.crc;
    scanned.block = std::move(parsed.block);
    offset += parsed.bytes_consumed;
    ++index;
    fn(std::move(scanned));
  }
  result.valid_bytes = offset;
  return result;
}

StatusOr<std::string> BlockReader::ReadRange(uint32_t segment, uint64_t offset,
                                             uint64_t length) {
  SIDQ_ASSIGN_OR_RETURN(RandomAccessFile * file, Handle(segment));
  std::string out;
  out.resize(length);
  SIDQ_ASSIGN_OR_RETURN(std::string_view view,
                        file->Read(offset, length, out.data()));
  if (view.data() == out.data()) {
    out.resize(view.size());  // pread path filled the buffer in place
  } else {
    out.assign(view.data(), view.size());  // mmap path: copy out
  }
  return out;
}

StatusOr<uint64_t> BlockReader::SegmentSize(uint32_t segment) {
  SIDQ_ASSIGN_OR_RETURN(RandomAccessFile * file, Handle(segment));
  return file->Size();
}

void BlockReader::Invalidate(uint32_t segment) {
  handles_.erase(segment);
  cache_->EraseSegment(segment);
}

void BlockReader::InvalidateAll() {
  handles_.clear();
  cache_->Clear();
}

}  // namespace store
}  // namespace sidq
