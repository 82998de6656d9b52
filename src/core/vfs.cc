#include "core/vfs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace sidq {

// ---------------------------------------------------------------------------
// RealVfs: thin POSIX. Raw fds rather than iostreams so every syscall
// result is checked -- std::ofstream swallows short writes and close
// errors, which is exactly the failure mode this seam exists to kill.
// ---------------------------------------------------------------------------

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

class RealWritableFile : public WritableFile {
 public:
  RealWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealWritableFile() override {
    if (fd_ >= 0) ::close(fd_);  // last-resort; Close() reports errors
  }

  Status Append(const char* data, size_t n) override {
    if (fd_ < 0) return Status::FailedPrecondition("append to closed file " + path_);
    while (n > 0) {
      const ssize_t w = ::write(fd_, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::DataLoss(ErrnoMessage("short write to", path_));
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("sync of closed file " + path_);
    if (::fsync(fd_) != 0) {
      return Status::DataLoss(ErrnoMessage("fsync failed for", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      // A failing close can mean deferred write errors (NFS, full disk):
      // data loss, not a shrug.
      return Status::DataLoss(ErrnoMessage("close failed for", path_));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

// Positional reads served from an mmap of the file. The mapping covers
// the size observed at open (or last Refresh); a read past the mapped
// range re-stats and remaps, so a reader handle opened before the tail
// segment grew still sees appended blocks. When mmap is unavailable
// (length-0 files, exotic filesystems) every read falls back to pread --
// same semantics, one extra copy.
class RealRandomAccessFile : public RandomAccessFile {
 public:
  RealRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {
    (void)Refresh();  // sidq: allow-ignored-status(best-effort initial map; reads re-stat on miss)
  }

  ~RealRandomAccessFile() override {
    Unmap();
    if (fd_ >= 0) ::close(fd_);
  }

  StatusOr<std::string_view> Read(uint64_t offset, size_t n,
                                  char* scratch) override {
    if (offset + n > size_ || map_ == nullptr) {
      SIDQ_RETURN_IF_ERROR(Refresh());
    }
    if (offset >= size_) return std::string_view();
    const size_t avail = static_cast<size_t>(size_ - offset);
    const size_t len = std::min(n, avail);
    if (map_ != nullptr) {
      return std::string_view(static_cast<const char*>(map_) + offset, len);
    }
    // pread fallback: short reads mean the file shrank under us.
    size_t got = 0;
    while (got < len) {
      const ssize_t r = ::pread(fd_, scratch + got, len - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(ErrnoMessage("pread failed for", path_));
      }
      if (r == 0) break;
      got += static_cast<size_t>(r);
    }
    return std::string_view(scratch, got);
  }

  StatusOr<uint64_t> Size() override {
    SIDQ_RETURN_IF_ERROR(Refresh());
    return size_;
  }

 private:
  Status Refresh() {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::Unavailable(ErrnoMessage("fstat failed for", path_));
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size != size_ || (map_ == nullptr && size > 0)) {
      Unmap();
      size_ = size;
      if (size_ > 0) {
        void* m = ::mmap(nullptr, static_cast<size_t>(size_), PROT_READ,
                         MAP_SHARED, fd_, 0);
        if (m != MAP_FAILED) map_ = m;  // else: pread fallback
      }
    }
    return Status::OK();
  }

  void Unmap() {
    if (map_ != nullptr) {
      ::munmap(map_, static_cast<size_t>(size_));
      map_ = nullptr;
    }
  }

  int fd_;
  std::string path_;
  void* map_ = nullptr;
  uint64_t size_ = 0;
};

class RealVfs : public Vfs {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override {
    int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
    flags |= (mode == WriteMode::kTruncate) ? O_TRUNC : O_APPEND;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::Unavailable(ErrnoMessage("cannot open", path));
    }
    return {std::make_unique<RealWritableFile>(fd, path)};
  }

  StatusOr<std::string> ReadFile(const std::string& path) const override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("cannot open", path));
    }
    std::string out;
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        const Status st = Status::Unavailable(ErrnoMessage("read failed for", path));
        ::close(fd);
        return st;
      }
      if (r == 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return out;
  }

  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) const override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("cannot open", path));
    }
    return {std::make_unique<RealRandomAccessFile>(fd, path)};
  }

  StatusOr<uint64_t> FileSize(const std::string& path) const override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("stat failed for", path));
    }
    return static_cast<uint64_t>(st.st_size);
  }

  bool Exists(const std::string& path) const override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      if (errno == ENOENT) return Status::NotFound("no such directory: " + dir);
      return Status::Unavailable(ErrnoMessage("cannot open directory", dir));
    }
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      struct stat st;
      if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
        names.push_back(name);
      }
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Unavailable(ErrnoMessage("rename failed for", from + " -> " + to));
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::Unavailable(ErrnoMessage("truncate failed for", path));
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::Unavailable(ErrnoMessage("unlink failed for", path));
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) == 0) return Status::OK();
    if (errno == EEXIST) {
      struct stat st;
      if (::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        return Status::OK();
      }
      return Status::AlreadyExists("path exists but is not a directory: " + dir);
    }
    return Status::Unavailable(ErrnoMessage("mkdir failed for", dir));
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      return Status::Unavailable(ErrnoMessage("cannot open directory", dir));
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::DataLoss(ErrnoMessage("fsync failed for directory", dir));
    }
    return Status::OK();
  }
};

}  // namespace

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Vfs* DefaultVfs() {
  // Meyers singleton: RealVfs is stateless, so destruction order at exit
  // cannot strand anyone holding the pointer.
  static RealVfs vfs;
  return &vfs;
}

Status AtomicWriteFile(Vfs* vfs, const std::string& path,
                       const std::string& content) {
  const std::string tmp = path + ".tmp";
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        vfs->NewWritableFile(tmp, WriteMode::kTruncate));
  SIDQ_RETURN_IF_ERROR(file->Append(content));
  SIDQ_RETURN_IF_ERROR(file->Sync());
  SIDQ_RETURN_IF_ERROR(file->Close());
  SIDQ_RETURN_IF_ERROR(vfs->Rename(tmp, path));
  const std::string dir = ParentDir(path);
  if (!dir.empty()) {
    SIDQ_RETURN_IF_ERROR(vfs->SyncDir(dir));
  }
  return Status::OK();
}

}  // namespace sidq
