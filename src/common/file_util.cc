#include "src/common/file_util.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace gadget {
namespace fs = std::filesystem;

namespace {
constexpr size_t kWriteBufferSize = 64 * 1024;

Status ErrnoStatus(const std::string& context) {
  return Status::IoError(context + ": " + std::strerror(errno));
}
}  // namespace

// ---------------------------------------------------------------- WritableFile

// status intentionally ignored: destructors cannot propagate errors; durable
// writers (the SSTable builder) call Close() explicitly and check.
WritableFile::~WritableFile() { (void)Close(); }

StatusOr<std::unique_ptr<WritableFile>> WritableFile::Create(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return ErrnoStatus("open " + path);
  }
  auto file = std::unique_ptr<WritableFile>(new WritableFile(path, fd));
  file->buffer_.reserve(kWriteBufferSize);
  return file;
}

Status WritableFile::Append(std::string_view data) {
  if (fd_ < 0) {
    return Status::IoError("append to closed file " + path_);
  }
  size_ += data.size();
  if (buffer_.size() + data.size() < kWriteBufferSize) {
    buffer_.append(data.data(), data.size());
    return Status::Ok();
  }
  GADGET_RETURN_IF_ERROR(FlushBuffer());
  if (data.size() >= kWriteBufferSize) {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return ErrnoStatus("write " + path_);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::Ok();
  }
  buffer_.append(data.data(), data.size());
  return Status::Ok();
}

Status WritableFile::FlushBuffer() {
  const char* p = buffer_.data();
  size_t left = buffer_.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("write " + path_);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  buffer_.clear();
  return Status::Ok();
}

Status WritableFile::Sync() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  GADGET_RETURN_IF_ERROR(FlushBuffer());
  return SyncData(fd_, path_);
}

Status WritableFile::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  Status s = FlushBuffer();
  if (::close(fd_) != 0 && s.ok()) {
    s = ErrnoStatus("close " + path_);
  }
  fd_ = -1;
  return s;
}

// --------------------------------------------------------------- MappedLogFile

// status intentionally ignored: destructors cannot propagate errors; the WAL
// calls Close() explicitly and checks.
MappedLogFile::~MappedLogFile() { (void)Close(); }

StatusOr<std::unique_ptr<MappedLogFile>> MappedLogFile::Create(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return ErrnoStatus("open " + path);
  }
  return std::unique_ptr<MappedLogFile>(new MappedLogFile(path, fd));
}

Status MappedLogFile::Append(std::string_view data) {
  if (fd_ < 0) {
    return Status::IoError("append to closed file " + path_);
  }
  const uint64_t end = size_ + data.size();
  if (end > reserved_) {
    const uint64_t reserve_end = (end + kWindowBytes - 1) / kWindowBytes * kWindowBytes;
    // posix_fallocate returns its error instead of setting errno.
    int rc = 0;
    do {
      rc = ::posix_fallocate(fd_, static_cast<off_t>(reserved_),
                             static_cast<off_t>(reserve_end - reserved_));
    } while (rc == EINTR);
    if (rc != 0) {
      errno = rc;
      return ErrnoStatus("posix_fallocate " + path_);
    }
    reserved_ = reserve_end;
  }
  while (!data.empty()) {
    if (size_ == window_end_) {
      // size_ is window-aligned here: windows are only left full.
      GADGET_RETURN_IF_ERROR(Unmap());
      void* p = ::mmap(nullptr, kWindowBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
                       static_cast<off_t>(size_));
      if (p == MAP_FAILED) {
        return ErrnoStatus("mmap " + path_);
      }
      window_ = static_cast<char*>(p);
      window_end_ = size_ + kWindowBytes;
    }
    const size_t n = static_cast<size_t>(std::min<uint64_t>(data.size(), window_end_ - size_));
    std::memcpy(window_ + (size_ + kWindowBytes - window_end_), data.data(), n);
    size_ += n;
    data.remove_prefix(n);
  }
  return Status::Ok();
}

Status MappedLogFile::Sync() { return fd_ < 0 ? Status::Ok() : SyncData(fd_, path_); }

Status MappedLogFile::Unmap() {
  if (window_ == nullptr) {
    return Status::Ok();
  }
  const int rc = ::munmap(window_, kWindowBytes);
  window_ = nullptr;
  return rc == 0 ? Status::Ok() : ErrnoStatus("munmap " + path_);
}

Status MappedLogFile::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  Status s = Unmap();
  if (const Status t = Truncate(fd_, size_, path_); s.ok()) {
    s = t;
  }
  if (::close(fd_) != 0 && s.ok()) {
    s = ErrnoStatus("close " + path_);
  }
  fd_ = -1;
  return s;
}

// ------------------------------------------------------------ RandomAccessFile

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

StatusOr<std::unique_ptr<RandomAccessFile>> RandomAccessFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return ErrnoStatus("open " + path);
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return ErrnoStatus("lseek " + path);
  }
  return std::unique_ptr<RandomAccessFile>(
      new RandomAccessFile(path, fd, static_cast<uint64_t>(end)));
}

Status RandomAccessFile::Read(uint64_t offset, size_t n, std::string* out) const {
  out->resize(n);
  const Status s = PreadAll(fd_, out->data(), n, offset);
  return s.ok() ? s : Status::IoError(s.message() + " in " + path_);
}

// ------------------------------------------------------------- free functions

Status PreadAll(int fd, char* data, size_t n, uint64_t offset) {
  const uint64_t start = offset;
  while (n > 0) {
    const ssize_t r = ::pread(fd, data, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("pread");
    }
    if (r == 0) {
      return Status::IoError("short read at offset " + std::to_string(start));
    }
    data += r;
    offset += static_cast<uint64_t>(r);
    n -= static_cast<size_t>(r);
  }
  return Status::Ok();
}

Status PwriteAll(int fd, const char* data, size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("pwrite");
    }
    data += w;
    offset += static_cast<uint64_t>(w);
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status SyncData(int fd, const std::string& path) {
  if (::fdatasync(fd) != 0) {
    return ErrnoStatus("fdatasync " + path);
  }
  return Status::Ok();
}

Status Truncate(int fd, uint64_t size, const std::string& path) {
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("ftruncate " + path);
  }
  return Status::Ok();
}

Status WriteStringToFile(const std::string& path, std::string_view data, bool sync) {
  auto file = WritableFile::Create(path);
  if (!file.ok()) {
    return file.status();
  }
  GADGET_RETURN_IF_ERROR((*file)->Append(data));
  if (sync) {
    GADGET_RETURN_IF_ERROR((*file)->Sync());
  }
  return (*file)->Close();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  auto file = RandomAccessFile::Open(path);
  if (!file.ok()) {
    return file.status();
  }
  return (*file)->Read(0, (*file)->size(), out);
}

Status CreateDirIfMissing(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IoError("mkdir " + path + ": " + ec.message());
  }
  return Status::Ok();
}

Status RemoveDirRecursively(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) {
    return Status::IoError("rm -r " + path + ": " + ec.message());
  }
  return Status::Ok();
}

Status RenameFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IoError("rename " + from + " -> " + to + ": " + ec.message());
  }
  return Status::Ok();
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) {
    return Status::IoError("rm " + path + (ec ? ": " + ec.message() : ": no such file"));
  }
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

StatusOr<std::vector<std::string>> ListDir(const std::string& path) {
  std::error_code ec;
  std::vector<std::string> names;
  for (auto it = fs::directory_iterator(path, ec); !ec && it != fs::directory_iterator(); ++it) {
    names.push_back(it->path().filename().string());
  }
  if (ec) {
    return Status::IoError("list " + path + ": " + ec.message());
  }
  return names;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return ErrnoStatus("open dir " + dir);
  }
  Status s = Status::Ok();
  if (::fsync(fd) != 0) {
    s = ErrnoStatus("fsync dir " + dir);
  }
  ::close(fd);
  return s;
}

Status CopyFile(const std::string& from, const std::string& to, bool sync) {
  std::string data;
  GADGET_RETURN_IF_ERROR(ReadFileToString(from, &data));
  return WriteStringToFile(to, data, sync);
}

Status LinkOrCopyFile(const std::string& from, const std::string& to, bool* linked) {
  if (linked != nullptr) {
    *linked = false;
  }
  if (FileExists(to)) {
    return Status::IoError("link target exists: " + to);
  }
  if (::link(from.c_str(), to.c_str()) == 0) {
    if (linked != nullptr) {
      *linked = true;
    }
    return Status::Ok();
  }
  if (errno != EXDEV && errno != EPERM && errno != EMLINK && errno != ENOSYS) {
    return ErrnoStatus("link " + from + " -> " + to);
  }
  return CopyFile(from, to, /*sync=*/true);
}

StatusOr<uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  if (ec) {
    return Status::IoError("stat " + path + ": " + ec.message());
  }
  return size;
}

// -------------------------------------------------------------- ScopedTempDir

ScopedTempDir::ScopedTempDir(const std::string& prefix) {
  std::string tmpl = (fs::temp_directory_path() / (prefix + ".XXXXXX")).string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* result = ::mkdtemp(buf.data());
  path_ = (result != nullptr) ? std::string(result) : tmpl;
}

ScopedTempDir::~ScopedTempDir() {
  if (!path_.empty()) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
}

}  // namespace gadget
