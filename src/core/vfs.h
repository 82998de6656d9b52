#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/statusor.h"

namespace sidq {

// -------------------------------------------------------------------------
// Vfs: the single seam between sidq and the filesystem.
//
// Every byte sidq persists (store segments and manifests, CSV exports,
// event logs, metrics and trace files) goes through this interface. That
// is the whole point: durability bugs live at the filesystem boundary --
// short writes on a full disk, torn appends on power loss, fsyncs the
// kernel acknowledged but a dying drive dropped -- and a seam makes every
// one of those failure modes injectable and therefore testable. RealVfs
// (here) is thin POSIX; the test backends in store/vfs.h are MemVfs, which
// models the crash-visible state machine of a journaled filesystem (what
// survives a power cut is exactly the synced prefix of each file plus the
// dir entries made durable by SyncDir), and FaultVfs, which wraps MemVfs
// and kills I/O at an enumerable crash point or at seeded FailPoint sites.
//
// Durability contract implemented by all backends:
//   - Append is buffered: bytes are crash-durable only after Sync()
//     succeeds AND the file's directory entry is durable.
//   - A new file's directory entry becomes durable via SyncDir(parent);
//     so does a Rename. AtomicWriteFile below sequences
//     tmp-write + fsync + rename + dir-fsync for the classic atomic
//     publish.
//   - Rename is atomic: readers see the old content or the new, never a
//     mix.
//
// sidq-lint rule R15 bans raw std::ofstream / fopen outside
// src/core/vfs.cc, so this seam cannot silently grow bypasses.
// -------------------------------------------------------------------------

// A sequential output file. Append order is write order; nothing is
// crash-durable before Sync().
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  [[nodiscard]] virtual Status Append(const char* data, size_t n) = 0;
  [[nodiscard]] Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }
  // Makes every appended byte crash-durable (fsync).
  [[nodiscard]] virtual Status Sync() = 0;
  // Closes the descriptor, reporting (not swallowing) close errors; the
  // destructor closes silently as a last resort.
  [[nodiscard]] virtual Status Close() = 0;
};

enum class WriteMode {
  kTruncate,  // create or wipe
  kAppend,    // create or continue at the end
};

// A positional-read handle for the out-of-core scan path (Store v2). The
// Real backend serves reads from an mmap of the file (remapping when the
// file has grown since open, falling back to pread when mmap is
// unavailable); Mem/Fault backends copy into `scratch` so crash and
// corruption semantics stay exactly those of the in-memory model. Reads
// past EOF are short, not errors: the returned view holds
// min(n, size - offset) bytes (empty at/after EOF). The view is valid
// until the next Read/Refresh on the same handle.
//
// Contract with the mutating API: a RandomAccessFile pins no filesystem
// state. After a Truncate/Remove/Rename of the underlying path, the
// handle must be discarded (the BlockReader's Invalidate hook does this);
// reading through a stale mapping of a shrunk file is undefined.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  [[nodiscard]] virtual StatusOr<std::string_view> Read(uint64_t offset,
                                                        size_t n,
                                                        char* scratch) = 0;
  // Size of the file as of the last Read/Refresh (mmap backends re-stat
  // lazily; call Refresh() to observe growth explicitly).
  [[nodiscard]] virtual StatusOr<uint64_t> Size() = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  [[nodiscard]] virtual StatusOr<std::unique_ptr<WritableFile>>
  NewWritableFile(const std::string& path, WriteMode mode) = 0;
  // Whole-file read. Inside src/store/ this is reserved for the small
  // bounded control files (manifests, CURRENT); segment data goes through
  // NewRandomAccessFile + the BlockReader so peak RSS stays bounded by
  // the cache budget (sidq-lint R16 enforces the split).
  [[nodiscard]] virtual StatusOr<std::string> ReadFile(
      const std::string& path) const = 0;
  // Positional-read handle for bounded block reads (mmap on RealVfs).
  [[nodiscard]] virtual StatusOr<std::unique_ptr<RandomAccessFile>>
  NewRandomAccessFile(const std::string& path) const = 0;
  [[nodiscard]] virtual StatusOr<uint64_t> FileSize(
      const std::string& path) const = 0;
  [[nodiscard]] virtual bool Exists(const std::string& path) const = 0;
  // Sorted basenames of regular files directly inside `dir`.
  [[nodiscard]] virtual StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const = 0;
  [[nodiscard]] virtual Status Rename(const std::string& from,
                                      const std::string& to) = 0;
  [[nodiscard]] virtual Status Truncate(const std::string& path,
                                        uint64_t size) = 0;
  [[nodiscard]] virtual Status Remove(const std::string& path) = 0;
  [[nodiscard]] virtual Status CreateDir(const std::string& dir) = 0;
  // Makes the directory's current entries (creates, renames, removes)
  // crash-durable.
  [[nodiscard]] virtual Status SyncDir(const std::string& dir) = 0;
};

// Process-wide POSIX Vfs singleton (stateless, thread-safe).
Vfs* DefaultVfs();

// The atomic publish every sidq writer uses: write `path`.tmp, fsync,
// rename over `path`, fsync the directory. A crash at any point leaves
// either the complete old file or the complete new one -- never a
// truncated parse-as-valid prefix.
[[nodiscard]] Status AtomicWriteFile(Vfs* vfs, const std::string& path,
                                     const std::string& content);

// Directory portion of `path` ("" when none).
[[nodiscard]] std::string ParentDir(const std::string& path);

}  // namespace sidq
