#include "src/stores/lsm/wal.h"

#include "src/common/coding.h"
#include "src/common/crc32c.h"

namespace gadget {
namespace {

void PutOp(std::string* payload, RecType type, std::string_view key, std::string_view value) {
  payload->push_back(static_cast<char>(type));
  PutVarint32(payload, static_cast<uint32_t>(key.size()));
  payload->append(key.data(), key.size());
  PutVarint32(payload, static_cast<uint32_t>(value.size()));
  payload->append(value.data(), value.size());
}

// Decodes `type | varint klen | key | varint vlen | value` from [*pp, limit).
// Advances *pp past the op on success.
bool GetOp(const char** pp, const char* limit, RecType* type, std::string_view* key,
           std::string_view* value) {
  const char* p = *pp;
  if (p >= limit) {
    return false;
  }
  uint8_t raw = static_cast<uint8_t>(*p++);
  if (raw > static_cast<uint8_t>(RecType::kMergeStack)) {
    return false;
  }
  *type = static_cast<RecType>(raw);
  uint32_t klen = 0;
  p = GetVarint32(p, limit, &klen);
  if (p == nullptr || static_cast<size_t>(limit - p) < klen) {
    return false;
  }
  *key = std::string_view(p, klen);
  p += klen;
  uint32_t vlen = 0;
  p = GetVarint32(p, limit, &vlen);
  if (p == nullptr || static_cast<size_t>(limit - p) < vlen) {
    return false;
  }
  *value = std::string_view(p, vlen);
  *pp = p + vlen;
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path) {
  auto file = MappedLogFile::Create(path);
  if (!file.ok()) {
    return file.status();
  }
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(*file)));
}

Status WalWriter::AppendGroup(const std::vector<GroupOp>& ops, bool sync) {
  if (ops.empty()) {
    return Status::Ok();
  }
  payload_.clear();
  if (ops.size() > 1) {
    // A group of one is a v1 record, without the v2 tag and count.
    payload_.push_back(static_cast<char>(kBatchRecordTag));
    PutVarint32(&payload_, static_cast<uint32_t>(ops.size()));
  }
  for (const GroupOp& op : ops) {
    PutOp(&payload_, op.type, op.key, op.value);
  }
  // At most 9 bytes, so the header stays in the string's inline buffer.
  std::string header;
  PutFixed32(&header, MaskCrc(Crc32c(0, payload_.data(), payload_.size())));
  PutVarint32(&header, static_cast<uint32_t>(payload_.size()));
  GADGET_RETURN_IF_ERROR(file_->Append(header));
  GADGET_RETURN_IF_ERROR(file_->Append(payload_));
  bytes_.fetch_add(header.size() + payload_.size(), std::memory_order_relaxed);
  if (sync) {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    return file_->Sync();
  }
  return Status::Ok();
}

Status WalWriter::Close() { return file_->Close(); }

StatusOr<uint64_t> ReplayWal(
    const std::string& path,
    const std::function<void(RecType, std::string_view, std::string_view)>& fn) {
  std::string data;
  GADGET_RETURN_IF_ERROR(ReadFileToString(path, &data));
  const char* p = data.data();
  const char* end = p + data.size();
  uint64_t applied = 0;
  while (p + 5 <= end) {
    uint32_t stored_crc = UnmaskCrc(DecodeFixed32(p));
    const char* q = p + 4;
    uint32_t len = 0;
    q = GetVarint32(q, end, &len);
    if (q == nullptr || static_cast<size_t>(end - q) < len) {
      break;  // torn tail
    }
    if (Crc32c(0, q, len) != stored_crc) {
      break;  // torn/corrupt record; stop replay
    }
    const char* payload = q;
    const char* plimit = q + len;
    if (payload < plimit && static_cast<uint8_t>(*payload) == kBatchRecordTag) {
      // v2 group-commit record: the crc already vouched for the whole batch,
      // so inner decode failures mean a writer bug, not a torn write — stop.
      ++payload;
      uint32_t count = 0;
      payload = GetVarint32(payload, plimit, &count);
      if (payload == nullptr) {
        break;
      }
      bool bad = false;
      for (uint32_t i = 0; i < count; ++i) {
        RecType type;
        std::string_view key, value;
        if (!GetOp(&payload, plimit, &type, &key, &value)) {
          bad = true;
          break;
        }
        fn(type, key, value);
        ++applied;
      }
      if (bad) {
        break;
      }
    } else {
      RecType type;
      std::string_view key, value;
      if (!GetOp(&payload, plimit, &type, &key, &value)) {
        break;
      }
      fn(type, key, value);
      ++applied;
    }
    p = plimit;
  }
  return applied;
}

}  // namespace gadget
