#include "src/stores/faster/faster_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/coding.h"

namespace gadget {
namespace {

constexpr uint8_t kRecordValue = 1;
constexpr uint8_t kRecordTombstone = 0;
constexpr size_t kRecordHeader = 4 + 1 + 4 + 4;  // total | type | klen | vlen

std::string LogPath(const std::string& dir) { return dir + "/hybrid.log"; }

}  // namespace

FasterStore::FasterStore(std::string dir, const FasterOptions& opts)
    : dir_(std::move(dir)), opts_(opts) {}

// status intentionally ignored: destructors cannot propagate errors; callers
// that care about durability call Close() explicitly and check.
FasterStore::~FasterStore() { (void)Close(); }

StatusOr<std::unique_ptr<KVStore>> FasterStore::Open(const std::string& dir,
                                                     const FasterOptions& opts) {
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<FasterStore> store(new FasterStore(dir, opts));
  GADGET_RETURN_IF_ERROR(store->Recover());
  return std::unique_ptr<KVStore>(std::move(store));
}

Status FasterStore::Recover() {
  MutexLock lock(&mu_);
  const std::string path = LogPath(dir_);
  log_fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (log_fd_ < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  off_t end = ::lseek(log_fd_, 0, SEEK_END);
  if (end < 0) {
    return Status::IoError("lseek " + path);
  }
  uint64_t file_size = static_cast<uint64_t>(end);

  // Sequential scan rebuilds the hash index: last record per key wins.
  uint64_t addr = 0;
  std::string header(kRecordHeader, '\0');
  std::string key;
  while (addr + kRecordHeader <= file_size) {
    GADGET_RETURN_IF_ERROR(PreadAll(log_fd_, header.data(), kRecordHeader, addr));
    uint32_t total = DecodeFixed32(header.data());
    uint8_t type = static_cast<uint8_t>(header[4]);
    uint32_t klen = DecodeFixed32(header.data() + 5);
    uint32_t vlen = DecodeFixed32(header.data() + 9);
    if (total != kRecordHeader + klen + vlen || addr + total > file_size ||
        (type != kRecordValue && type != kRecordTombstone)) {
      break;  // torn tail from a crash; truncate here
    }
    key.resize(klen);
    if (klen > 0) {
      GADGET_RETURN_IF_ERROR(PreadAll(log_fd_, key.data(), klen, addr + kRecordHeader));
    }
    if (type == kRecordTombstone) {
      index_.erase(key);
    } else {
      index_[key] = addr;
    }
    addr += total;
  }
  if (addr < file_size) {
    GADGET_RETURN_IF_ERROR(Truncate(log_fd_, addr, path));
  }
  head_ = tail_ = durable_ = addr;
  return Status::Ok();
}

bool FasterStore::InMutableRegionLocked(uint64_t addr) const {
  uint64_t mutable_bytes =
      static_cast<uint64_t>(static_cast<double>(opts_.log_memory_bytes) * opts_.mutable_fraction);
  uint64_t boundary = tail_ > mutable_bytes ? tail_ - mutable_bytes : 0;
  return addr >= boundary && addr >= head_;
}

StatusOr<uint64_t> FasterStore::AppendRecordLocked(uint8_t type, std::string_view key,
                                                   std::string_view value) {
  uint64_t addr = tail_;
  uint32_t total = static_cast<uint32_t>(kRecordHeader + key.size() + value.size());
  std::string rec;
  rec.reserve(total);
  PutFixed32(&rec, total);
  rec.push_back(static_cast<char>(type));
  PutFixed32(&rec, static_cast<uint32_t>(key.size()));
  PutFixed32(&rec, static_cast<uint32_t>(value.size()));
  rec.append(key.data(), key.size());
  rec.append(value.data(), value.size());
  buffer_ += rec;
  tail_ += total;
  stats_.io_bytes_written += total;
  stats_.wal_bytes += total;
  GADGET_RETURN_IF_ERROR(MaybeEvictLocked());
  return addr;
}

Status FasterStore::MaybeEvictLocked() {
  if (tail_ - head_ <= opts_.log_memory_bytes) {
    return Status::Ok();
  }
  // Evict whole records from the cold end until within budget (head advances
  // to a record boundary by construction).
  uint64_t target = tail_ - opts_.log_memory_bytes / 2;  // evict in bulk, half window
  uint64_t new_head = head_;
  while (new_head < target) {
    size_t off = static_cast<size_t>(new_head - head_);
    if (off + 4 > buffer_.size()) {
      break;
    }
    uint32_t total = DecodeFixed32(buffer_.data() + off);
    if (total < kRecordHeader) {
      return Status::Corruption("bad record during eviction");
    }
    new_head += total;
  }
  size_t evict_bytes = static_cast<size_t>(new_head - head_);
  GADGET_RETURN_IF_ERROR(PwriteAll(log_fd_, buffer_.data(), evict_bytes, head_));
  if (opts_.sync_writes) {
    ++stats_.wal_fsyncs;
    GADGET_RETURN_IF_ERROR(SyncData(log_fd_, LogPath(dir_)));
  }
  buffer_.erase(0, evict_bytes);
  head_ = new_head;
  durable_ = head_;
  ++stats_.flushes;
  ++stats_.cache_evictions;  // the in-memory log window spilled its cold half
  return Status::Ok();
}

Status FasterStore::ReadRecordLocked(uint64_t addr, uint8_t* type, std::string* key,
                                     std::string* value) {
  if (addr >= head_) {
    size_t off = static_cast<size_t>(addr - head_);
    if (off + kRecordHeader > buffer_.size()) {
      return Status::Corruption("record address beyond tail");
    }
    const char* p = buffer_.data() + off;
    uint32_t total = DecodeFixed32(p);
    *type = static_cast<uint8_t>(p[4]);
    uint32_t klen = DecodeFixed32(p + 5);
    uint32_t vlen = DecodeFixed32(p + 9);
    if (off + total > buffer_.size() || total != kRecordHeader + klen + vlen) {
      return Status::Corruption("bad in-memory record");
    }
    key->assign(p + kRecordHeader, klen);
    value->assign(p + kRecordHeader + klen, vlen);
    return Status::Ok();
  }
  std::string header(kRecordHeader, '\0');
  GADGET_RETURN_IF_ERROR(PreadAll(log_fd_, header.data(), kRecordHeader, addr));
  uint32_t total = DecodeFixed32(header.data());
  *type = static_cast<uint8_t>(header[4]);
  uint32_t klen = DecodeFixed32(header.data() + 5);
  uint32_t vlen = DecodeFixed32(header.data() + 9);
  if (total != kRecordHeader + klen + vlen) {
    return Status::Corruption("bad on-disk record");
  }
  std::string body(klen + vlen, '\0');
  if (!body.empty()) {
    GADGET_RETURN_IF_ERROR(PreadAll(log_fd_, body.data(), body.size(), addr + kRecordHeader));
  }
  stats_.io_bytes_read += total;
  key->assign(body, 0, klen);
  value->assign(body, klen, vlen);
  return Status::Ok();
}

Status FasterStore::PutLocked(std::string_view key, std::string_view value) {
  auto it = index_.find(std::string(key));
  if (it != index_.end() && InMutableRegionLocked(it->second)) {
    // In-place upsert when the new value fits exactly over the old one.
    size_t off = static_cast<size_t>(it->second - head_);
    const char* p = buffer_.data() + off;
    uint32_t vlen = DecodeFixed32(p + 9);
    uint32_t klen = DecodeFixed32(p + 5);
    if (vlen == value.size()) {
      std::memcpy(buffer_.data() + off + kRecordHeader + klen, value.data(), value.size());
      buffer_[off + 4] = static_cast<char>(kRecordValue);
      ++in_place_updates_;
      return Status::Ok();
    }
  }
  auto addr = AppendRecordLocked(kRecordValue, key, value);
  if (!addr.ok()) {
    return addr.status();
  }
  index_[std::string(key)] = *addr;
  return Status::Ok();
}

Status FasterStore::GetLocked(std::string_view key, std::string* value) {
  auto it = index_.find(std::string(key));
  if (it == index_.end()) {
    return Status::NotFound();
  }
  uint8_t type = 0;
  std::string stored_key;
  GADGET_RETURN_IF_ERROR(ReadRecordLocked(it->second, &type, &stored_key, value));
  if (type == kRecordTombstone) {
    return Status::NotFound();
  }
  return Status::Ok();
}

Status FasterStore::DeleteLocked(std::string_view key) {
  auto it = index_.find(std::string(key));
  if (it == index_.end()) {
    return Status::Ok();  // blind delete of a missing key is a no-op
  }
  // Tombstone so recovery sees the deletion, then drop the index entry.
  auto addr = AppendRecordLocked(kRecordTombstone, key, "");
  if (!addr.ok()) {
    return addr.status();
  }
  index_.erase(std::string(key));
  return Status::Ok();
}

Status FasterStore::RmwLocked(std::string_view key, std::string_view operand) {
  std::string value;
  auto it = index_.find(std::string(key));
  if (it != index_.end()) {
    uint8_t type = 0;
    std::string stored_key;
    GADGET_RETURN_IF_ERROR(ReadRecordLocked(it->second, &type, &stored_key, &value));
    if (type == kRecordTombstone) {
      value.clear();
    }
  }
  // The appended value has grown, so the RMW always copies to the tail
  // (FASTER's rmw copies unless the update fits in place; append never fits).
  value.append(operand.data(), operand.size());
  auto addr = AppendRecordLocked(kRecordValue, key, value);
  if (!addr.ok()) {
    return addr.status();
  }
  index_[std::string(key)] = *addr;
  return Status::Ok();
}

Status FasterStore::Put(std::string_view key, std::string_view value) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.puts;
  stats_.bytes_written += key.size() + value.size();
  return PutLocked(key, value);
}

Status FasterStore::Get(std::string_view key, std::string* value,
                        const ReadOptions& /*options*/) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.gets;
  Status s = GetLocked(key, value);
  if (s.ok()) {
    stats_.bytes_read += value->size();
  }
  return s;
}

Status FasterStore::Delete(std::string_view key) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.deletes;
  // Accounting contract (kvstore.h): a delete accepts its key bytes.
  stats_.bytes_written += key.size();
  return DeleteLocked(key);
}

Status FasterStore::ReadModifyWrite(std::string_view key, std::string_view operand) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.rmws;
  stats_.bytes_written += key.size() + operand.size();
  return RmwLocked(key, operand);
}

Status FasterStore::Write(const WriteBatch& batch) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const WriteBatch::Entry& e = batch.entry(i);
    Status s;
    switch (e.op) {
      case WriteBatch::Op::kPut:
        ++stats_.puts;
        stats_.bytes_written += e.key.size() + e.value.size();
        s = PutLocked(e.key, e.value);
        break;
      case WriteBatch::Op::kMerge:
        // No native merge on the hybrid log: a batched merge is an eager
        // RMW, same as the single-op fallback path and counted identically.
        ++stats_.rmws;
        stats_.bytes_written += e.key.size() + e.value.size();
        s = RmwLocked(e.key, e.value);
        break;
      case WriteBatch::Op::kDelete:
        ++stats_.deletes;
        stats_.bytes_written += e.key.size();
        s = DeleteLocked(e.key);
        break;
    }
    GADGET_RETURN_IF_ERROR(s);
  }
  NoteBatch(batch.size());
  return Status::Ok();
}

Status FasterStore::MultiGet(const std::vector<std::string>& keys,
                             std::vector<std::string>* values, std::vector<Status>* statuses,
                             const ReadOptions& /*options*/) {
  values->resize(keys.size());
  MutexLock lock(&mu_);
  if (closed_) {
    const Status closed = Status::Internal("store is closed");
    statuses->assign(keys.size(), closed);
    return closed;
  }
  statuses->assign(keys.size(), Status::Ok());
  Status first_error;
  for (size_t i = 0; i < keys.size(); ++i) {
    ++stats_.gets;
    Status s = GetLocked(keys[i], &(*values)[i]);
    if (s.ok()) {
      stats_.bytes_read += (*values)[i].size();
    } else if (!s.IsNotFound() && first_error.ok()) {
      first_error = s;
    }
    (*statuses)[i] = std::move(s);
  }
  NoteBatch(keys.size());
  return first_error;
}

Status FasterStore::Flush() {
  MutexLock lock(&mu_);
  if (closed_ || buffer_.empty()) {
    return Status::Ok();
  }
  GADGET_RETURN_IF_ERROR(PwriteAll(log_fd_, buffer_.data(), buffer_.size(), head_));
  ++stats_.wal_fsyncs;
  GADGET_RETURN_IF_ERROR(SyncData(log_fd_, LogPath(dir_)));
  durable_ = tail_;
  return Status::Ok();
}

StatusOr<CheckpointInfo> FasterStore::Checkpoint(const std::string& dir,
                                                 const CheckpointOptions& options) {
  (void)options;  // the log is appended in place: nothing to reuse
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  auto names = ListDir(dir);
  if (!names.ok()) {
    return names.status();
  }
  if (!names->empty()) {
    return Status::InvalidArgument("checkpoint dir not empty: " + dir);
  }
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  // Write the in-memory window [head_, tail_) through to the file (without
  // clearing it — the window stays resident), so the copy below contains
  // every acknowledged record up to the tail.
  if (!buffer_.empty()) {
    GADGET_RETURN_IF_ERROR(PwriteAll(log_fd_, buffer_.data(), buffer_.size(), head_));
    ++stats_.wal_fsyncs;
    GADGET_RETURN_IF_ERROR(SyncData(log_fd_, LogPath(dir_)));
    durable_ = tail_;
  }
  GADGET_RETURN_IF_ERROR(CopyFile(LogPath(dir_), LogPath(dir), /*sync=*/true));
  GADGET_RETURN_IF_ERROR(SyncDir(dir));
  auto size = FileSize(LogPath(dir));
  if (!size.ok()) {
    return size.status();
  }
  CheckpointInfo info;
  info.bytes = *size;
  info.files = 1;
  return info;
}

Status FasterStore::Close() {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Ok();
  }
  Status s = Status::Ok();
  if (!buffer_.empty()) {
    s = PwriteAll(log_fd_, buffer_.data(), buffer_.size(), head_);
    buffer_.clear();
  }
  if (log_fd_ >= 0) {
    ++stats_.wal_fsyncs;
    // The final sync's failure must not vanish: this is the last chance to
    // report that buffered log bytes may not have reached the platter.
    Status synced = SyncData(log_fd_, LogPath(dir_));
    if (s.ok()) {
      s = synced;
    }
    ::close(log_fd_);
    log_fd_ = -1;
  }
  closed_ = true;
  return s;
}

StoreStats FasterStore::stats() const {
  MutexLock lock(&mu_);
  StoreStats out = stats_;
  FoldBatchStats(&out);
  return out;
}

uint64_t FasterStore::tail_address() const {
  MutexLock lock(&mu_);
  return tail_;
}

uint64_t FasterStore::head_address() const {
  MutexLock lock(&mu_);
  return head_;
}

uint64_t FasterStore::in_place_updates() const {
  MutexLock lock(&mu_);
  return in_place_updates_;
}

}  // namespace gadget
