#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/vfs.h"

namespace sidq {
namespace store {

// perfbench/ spells these four names with store::; the benchmark is not
// edited here.
using sidq::DefaultVfs;
using sidq::Vfs;
using sidq::WritableFile;
using sidq::WriteMode;

// -------------------------------------------------------------------------
// MemVfs: in-memory filesystem with an explicit crash model, for the
// crash-point sweep. Externally synchronized (the store is single-writer;
// tests drive it from one thread).
//
// Crash semantics of SimulateCrash():
//   - every file's content reverts to its synced prefix;
//   - directory operations (create/rename/remove) not yet covered by a
//     SyncDir of their parent are undone, newest first -- a tmp file that
//     was renamed over a target without a dir fsync reverts to the old
//     target content;
//   - open WritableFile handles go stale and fail every later call.
// -------------------------------------------------------------------------
class MemVfs : public Vfs {
 public:
  MemVfs() = default;

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override;
  StatusOr<std::string> ReadFile(const std::string& path) const override;
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) const override;
  StatusOr<uint64_t> FileSize(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;

  // Power cut: unsynced bytes and un-fsynced directory operations vanish.
  void SimulateCrash();

  // Test hooks.
  [[nodiscard]] size_t num_files() const { return files_.size(); }
  // Flips one bit of `path` at byte `offset` (durable and volatile alike):
  // the media-corruption injection the CRC sweep uses.
  [[nodiscard]] Status CorruptByte(const std::string& path, uint64_t offset,
                                   uint8_t xor_mask);

 private:
  friend class MemWritableFile;
  friend class MemRandomAccessFile;

  struct MemFile {
    std::string data;
    size_t synced = 0;  // crash-durable prefix length
  };
  struct DirOp {
    enum Kind { kCreate, kRename, kRemove } kind;
    std::string a, b;              // kRename: a -> b
    std::optional<MemFile> saved;  // overwritten/removed content
  };

  std::map<std::string, MemFile> files_;
  std::map<std::string, bool> dirs_;
  // Un-fsynced directory operations, undone in reverse on crash.
  std::vector<DirOp> journal_;
  // Bumped by SimulateCrash(); stale handles compare against it.
  uint64_t generation_ = 0;
};

// -------------------------------------------------------------------------
// FaultVfs: deterministic crash-fault injection over a MemVfs.
//
// Every mutating call is one numbered "op". Two injection mechanisms:
//
//   1. CrashPlan: kill I/O at exactly op `at_op`. kBeforeOp drops the op
//      whole (power cut between writes); kTornAppend persists a seeded
//      prefix of the append before dying (torn page); kBitFlip persists
//      the append with one seeded bit flipped (media corruption at the
//      moment of loss). After the crash fires, every call -- on the vfs
//      and on any open handle -- fails kUnavailable, and the base MemVfs
//      reverts to crash-durable state; recovery then reopens the base.
//      Enumerating at_op over [0, ops()) is the crash-point sweep.
//
//   2. FailPoint sites (core/failpoint.h), keyed by op number, for seeded
//      probabilistic chaos without a crash:
//        store.vfs.append  transient/permanent -> injected EIO before any
//                          byte is written; corrupt -> one seeded bit flip
//                          in the appended data (write "succeeds");
//        store.vfs.sync    corrupt -> LOST FSYNC: reports success without
//                          making anything durable; errors -> injected
//                          EIO;
//        store.vfs.rename  transient/permanent -> injected EIO, rename
//                          not performed.
// -------------------------------------------------------------------------
class FaultVfs : public Vfs {
 public:
  enum class CrashStyle {
    kBeforeOp,    // op never happens
    kTornAppend,  // seeded prefix of the append becomes durable
    kBitFlip,     // append lands with one seeded bit flipped, then crash
  };
  struct CrashPlan {
    int64_t at_op = -1;  // < 0: never crash
    CrashStyle style = CrashStyle::kBeforeOp;
    uint64_t seed = 0;  // drives torn prefix length / flipped bit position
  };

  explicit FaultVfs(MemVfs* base) : base_(base) {}

  void set_plan(const CrashPlan& plan) { plan_ = plan; }
  [[nodiscard]] int64_t ops() const { return ops_; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override;
  StatusOr<std::string> ReadFile(const std::string& path) const override;
  // Reads are not numbered ops (the crash plan enumerates MUTATING I/O);
  // a read after the crash fired fails kUnavailable like everything else.
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) const override;
  StatusOr<uint64_t> FileSize(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomAccessFile;

  // Claims the next op number; returns the crash/injection verdict for a
  // non-append op (append handles torn/flip itself). `site` may be null
  // (op counts toward the crash plan but has no FailPoint). For kCorrupt
  // verdicts *corrupt is set and OK returned; callers that cannot corrupt
  // pass nullptr and the verdict degrades to pass.
  [[nodiscard]] Status BeginOp(const char* site, bool* corrupt);
  void Crash();

  MemVfs* base_;
  CrashPlan plan_;
  int64_t ops_ = 0;
  bool crashed_ = false;
};

// Chaos site names (armed via ArmFailPoint in tests and chaos CI legs).
inline constexpr char kVfsAppendFailPoint[] = "store.vfs.append";
inline constexpr char kVfsSyncFailPoint[] = "store.vfs.sync";
inline constexpr char kVfsRenameFailPoint[] = "store.vfs.rename";

}  // namespace store
}  // namespace sidq
