// RAII file and filesystem helpers shared by the persistent stores and trace
// writers: buffered sequential writers/readers, a mapped append-only log,
// random-access readers, positional reads and writes, data syncs and
// truncation, atomic renames, and scoped temp directories for tests/benches.
#ifndef GADGET_COMMON_FILE_UTIL_H_
#define GADGET_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace gadget {

// Buffered append-only writer (used by the SSTable builder, whole-file writes
// and trace writers). Appended bytes reach the kernel only when the buffer
// fills, on Sync and on Close.
class WritableFile {
 public:
  ~WritableFile();
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  static StatusOr<std::unique_ptr<WritableFile>> Create(const std::string& path);

  Status Append(std::string_view data);
  Status Sync();   // write the buffer + fdatasync
  Status Close();  // write the buffer + close; safe to call twice

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  WritableFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  Status FlushBuffer();

  std::string path_;
  int fd_;
  std::string buffer_;
  uint64_t size_ = 0;
};

// Append-only log written through a shared file mapping (used by the WAL).
// Append copies bytes straight into the mapped window, so they are in the
// page cache, which a process crash keeps, with no syscall per append. Disk
// space is allocated a window at a time, before the window is mapped, and
// never by extending the file with ftruncate, so a full disk is an IoError
// from Append, not a SIGBUS on a store into the mapping. Until Close, the file ends in the
// zero-filled rest of its last window; Close unmaps it and truncates the file
// to the bytes appended.
class MappedLogFile {
 public:
  // Mapped pages count in RSS, so the window is small and fixed.
  static constexpr uint64_t kWindowBytes = 256 * 1024;

  ~MappedLogFile();
  MappedLogFile(const MappedLogFile&) = delete;
  MappedLogFile& operator=(const MappedLogFile&) = delete;

  static StatusOr<std::unique_ptr<MappedLogFile>> Create(const std::string& path);

  // Reserves every window `data` reaches before copying any of it, so a
  // failed reservation appends nothing.
  Status Append(std::string_view data);
  Status Sync();   // fdatasync: what Append copied survives a power loss
  Status Close();  // unmap + truncate to the bytes appended + close; safe to call twice

 private:
  MappedLogFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  // Unmaps the current window, if any.
  Status Unmap();

  std::string path_;
  int fd_;
  char* window_ = nullptr;   // file bytes [window_end_ - kWindowBytes, window_end_)
  uint64_t window_end_ = 0;  // 0 while nothing is mapped
  uint64_t size_ = 0;        // bytes appended
  uint64_t reserved_ = 0;  // file bytes with disk space allocated
};

// Positional (pread) random-access reader for SSTables / pages.
class RandomAccessFile {
 public:
  ~RandomAccessFile();
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  static StatusOr<std::unique_ptr<RandomAccessFile>> Open(const std::string& path);

  // Reads exactly n bytes at offset into *out (resized). Fails on short read.
  Status Read(uint64_t offset, size_t n, std::string* out) const;

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }
  // Raw descriptor for batched reads through IoBackend (the descriptor stays
  // owned by this object; callers must not close it).
  int fd() const { return fd_; }

 private:
  RandomAccessFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  uint64_t size_;
};

// Positional I/O on a raw descriptor, the tree's one pread and one pwrite
// loop: each transfers exactly `n` bytes at `offset`, retrying EINTR and
// short transfers. A read that reaches end of file first fails.
Status PreadAll(int fd, char* data, size_t n, uint64_t offset);
Status PwriteAll(int fd, const char* data, size_t n, uint64_t offset);

// The tree's one fdatasync and one ftruncate on a raw descriptor. `path`
// names the file in the error, which carries the errno text.
Status SyncData(int fd, const std::string& path);
Status Truncate(int fd, uint64_t size, const std::string& path);

// Whole-file helpers.
Status WriteStringToFile(const std::string& path, std::string_view data, bool sync = false);
Status ReadFileToString(const std::string& path, std::string* out);

// Filesystem helpers (thin wrappers over std::filesystem with Status).
Status CreateDirIfMissing(const std::string& path);
Status RemoveDirRecursively(const std::string& path);
Status RenameFile(const std::string& from, const std::string& to);
Status RemoveFile(const std::string& path);
bool FileExists(const std::string& path);
StatusOr<std::vector<std::string>> ListDir(const std::string& path);

// fsyncs the directory itself, making the directory entries (renames, new
// files, unlinks) durable. POSIX only guarantees a rename or newly created
// file survives a crash once the *parent directory* has been fsynced; file
// fsync alone is not enough. Every durability-sensitive RenameFile or
// file-creation must be followed by SyncDir on the parent before the change
// is relied upon (see DESIGN.md "Durability contract").
Status SyncDir(const std::string& dir);

// Copies `from` to `to` (replacing `to`), optionally fdatasync-ing the copy.
// The parent directory of `to` is NOT synced; callers that need the new entry
// durable follow up with SyncDir.
Status CopyFile(const std::string& from, const std::string& to, bool sync = false);

// Hard-links `from` as `to` when possible (same filesystem), falling back to
// a byte copy. Used by checkpoints to capture immutable files (SSTables)
// without duplicating data. Sets *linked (may be null) to whether a hard link
// was made. Fails if `to` exists.
Status LinkOrCopyFile(const std::string& from, const std::string& to, bool* linked = nullptr);

// Returns the size of `path` in bytes.
StatusOr<uint64_t> FileSize(const std::string& path);

// Creates a unique directory under the system temp dir, removed on
// destruction. Used pervasively by tests and benches.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix = "gadget");
  ~ScopedTempDir();
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace gadget

#endif  // GADGET_COMMON_FILE_UTIL_H_
