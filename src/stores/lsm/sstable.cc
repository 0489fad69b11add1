#include "src/stores/lsm/sstable.h"

#include <algorithm>

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/stores/lsm/bloom.h"

namespace gadget {
namespace {

constexpr uint64_t kTableMagic = 0x67616467657453ULL;  // "gadgetS"
constexpr size_t kFooterSize = 8 + 4 + 8 + 4 + 8 + 8;  // 40 bytes

void AppendBlockWithCrc(std::string* out, std::string_view block) {
  out->append(block.data(), block.size());
  PutFixed32(out, MaskCrc(Crc32c(0, block.data(), block.size())));
}

// The one decoder of a data-block entry: varint klen | key | type | varint
// vlen | value. Returns the position after the entry, or nullptr when the
// entry runs past `end` or carries a record type no writer emits.
const char* DecodeEntry(const char* p, const char* end, std::string_view* key, RecType* type,
                        std::string_view* value) {
  uint32_t klen = 0;
  p = GetVarint32(p, end, &klen);
  // 64-bit math: `klen + 1` wraps in uint32 for klen = UINT32_MAX and would
  // pass the bounds check with a huge out-of-bounds read to follow.
  if (p == nullptr || static_cast<uint64_t>(end - p) < static_cast<uint64_t>(klen) + 1) {
    return nullptr;
  }
  *key = std::string_view(p, klen);
  p += klen;
  const auto t = static_cast<uint8_t>(*p++);
  if (t > static_cast<uint8_t>(RecType::kMergeStack)) {
    return nullptr;
  }
  *type = static_cast<RecType>(t);
  uint32_t vlen = 0;
  p = GetVarint32(p, end, &vlen);
  if (p == nullptr || static_cast<size_t>(end - p) < vlen) {
    return nullptr;
  }
  *value = std::string_view(p, vlen);
  return p + vlen;
}

}  // namespace

// -------------------------------------------------------------- SSTableBuilder

SSTableBuilder::SSTableBuilder(std::string path, uint32_t block_size, int bloom_bits_per_key)
    : path_(std::move(path)), block_size_(block_size) {
  auto file = WritableFile::Create(path_);
  if (!file.ok()) {
    open_status_ = file.status();
  } else {
    file_ = std::move(*file);
  }
  bloom_ = std::make_unique<BloomFilterBuilder>(bloom_bits_per_key);
}

Status SSTableBuilder::Add(std::string_view key, RecType type, std::string_view value) {
  if (!open_status_.ok()) {
    return open_status_;
  }
  if (finished_) {
    return Status::Internal("Add after Finish");
  }
  if (num_entries_ == 0) {
    smallest_.assign(key.data(), key.size());
  } else if (key <= largest_) {
    return Status::Internal("keys not strictly increasing in SSTable");
  }
  largest_.assign(key.data(), key.size());

  PutVarint32(&data_block_, static_cast<uint32_t>(key.size()));
  data_block_.append(key.data(), key.size());
  data_block_.push_back(static_cast<char>(type));
  PutVarint32(&data_block_, static_cast<uint32_t>(value.size()));
  data_block_.append(value.data(), value.size());
  last_key_in_block_.assign(key.data(), key.size());

  bloom_->AddKey(key);
  ++num_entries_;
  if (type == RecType::kTombstone) {
    ++num_tombstones_;
  }
  if (data_block_.size() >= block_size_) {
    return FlushDataBlock();
  }
  return Status::Ok();
}

Status SSTableBuilder::FlushDataBlock() {
  if (data_block_.empty()) {
    return Status::Ok();
  }
  // Index entry: last key of the block -> (offset, size incl. crc).
  uint32_t size_with_crc = static_cast<uint32_t>(data_block_.size() + 4);
  PutVarint32(&index_block_, static_cast<uint32_t>(last_key_in_block_.size()));
  index_block_.append(last_key_in_block_);
  PutFixed64(&index_block_, offset_);
  PutFixed32(&index_block_, size_with_crc);

  std::string out;
  out.reserve(size_with_crc);
  AppendBlockWithCrc(&out, data_block_);
  GADGET_RETURN_IF_ERROR(file_->Append(out));
  offset_ += out.size();
  data_block_.clear();
  return Status::Ok();
}

Status SSTableBuilder::Finish() {
  if (!open_status_.ok()) {
    return open_status_;
  }
  if (finished_) {
    return Status::Ok();
  }
  finished_ = true;
  GADGET_RETURN_IF_ERROR(FlushDataBlock());

  std::string tail;
  uint64_t bloom_off = offset_;
  std::string bloom = bloom_->Finish();
  AppendBlockWithCrc(&tail, bloom);
  uint32_t bloom_sz = static_cast<uint32_t>(bloom.size() + 4);

  uint64_t index_off = bloom_off + bloom_sz;
  AppendBlockWithCrc(&tail, index_block_);
  uint32_t index_sz = static_cast<uint32_t>(index_block_.size() + 4);

  PutFixed64(&tail, index_off);
  PutFixed32(&tail, index_sz);
  PutFixed64(&tail, bloom_off);
  PutFixed32(&tail, bloom_sz);
  PutFixed64(&tail, num_entries_);
  PutFixed64(&tail, kTableMagic);

  GADGET_RETURN_IF_ERROR(file_->Append(tail));
  GADGET_RETURN_IF_ERROR(file_->Sync());
  file_size_ = file_->size();
  return file_->Close();
}

// --------------------------------------------------------------- SSTableReader

SSTableReader::SSTableReader(std::unique_ptr<RandomAccessFile> file, uint64_t file_number,
                             BufferPool* pool)
    : file_(std::move(file)), file_number_(file_number), pool_(pool) {
  if (pool_ != nullptr) {
    pool_file_id_ = pool_->NewFileId();
  }
}

SSTableReader::~SSTableReader() {
  // The reader is the table's handle on the pool: when it goes (table
  // obsoleted by compaction, or the store closed), its blocks go too.
  if (pool_ != nullptr) {
    pool_->EraseFile(pool_file_id_);
  }
}

StatusOr<std::shared_ptr<SSTableReader>> SSTableReader::Open(const std::string& path,
                                                             uint64_t file_number,
                                                             BufferPool* pool) {
  auto file = RandomAccessFile::Open(path);
  if (!file.ok()) {
    return file.status();
  }
  auto reader = std::shared_ptr<SSTableReader>(
      new SSTableReader(std::move(*file), file_number, pool));

  uint64_t fsize = reader->file_->size();
  if (fsize < kFooterSize) {
    return Status::Corruption("table too small: " + path);
  }
  std::string footer;
  GADGET_RETURN_IF_ERROR(reader->file_->Read(fsize - kFooterSize, kFooterSize, &footer));
  const char* p = footer.data();
  uint64_t index_off = DecodeFixed64(p);
  uint32_t index_sz = DecodeFixed32(p + 8);
  uint64_t bloom_off = DecodeFixed64(p + 12);
  uint32_t bloom_sz = DecodeFixed32(p + 20);
  reader->num_entries_ = DecodeFixed64(p + 24);
  if (DecodeFixed64(p + 32) != kTableMagic) {
    return Status::Corruption("bad table magic: " + path);
  }
  // An adversarial footer can claim multi-gigabyte index/bloom regions; bound
  // both against the actual file before allocating anything.
  const uint64_t body = fsize - kFooterSize;
  if (index_sz > body || index_off > body - index_sz || bloom_sz > body ||
      bloom_off > body - bloom_sz) {
    return Status::Corruption("footer region out of bounds: " + path);
  }

  GADGET_RETURN_IF_ERROR(reader->ReadBlockRaw(bloom_off, bloom_sz, &reader->bloom_));

  std::string index;
  GADGET_RETURN_IF_ERROR(reader->ReadBlockRaw(index_off, index_sz, &index));
  const char* ip = index.data();
  const char* iend = ip + index.size();
  while (ip < iend) {
    uint32_t klen = 0;
    ip = GetVarint32(ip, iend, &klen);
    // 64-bit math: `klen + 12` wraps in uint32 for klen near UINT32_MAX and
    // would pass the bounds check with a huge out-of-bounds read to follow.
    if (ip == nullptr || static_cast<uint64_t>(iend - ip) < static_cast<uint64_t>(klen) + 12) {
      return Status::Corruption("bad index entry: " + path);
    }
    IndexEntry e;
    e.last_key.assign(ip, klen);
    ip += klen;
    e.offset = DecodeFixed64(ip);
    e.size = DecodeFixed32(ip + 8);
    ip += 12;
    reader->index_.push_back(std::move(e));
  }
  return reader;
}

Status SSTableReader::ReadBlockRaw(uint64_t offset, uint32_t size, std::string* out) const {
  std::string raw;
  GADGET_RETURN_IF_ERROR(file_->Read(offset, size, &raw));
  GADGET_RETURN_IF_ERROR(VerifyAndStripChecksum(&raw, /*verify=*/true, file_->path()));
  *out = std::move(raw);
  return Status::Ok();
}

Status SSTableReader::VerifyAndStripChecksum(std::string* block, bool verify,
                                             const std::string& path) {
  if (block->size() < 4) {
    return Status::Corruption("block too small in " + path);
  }
  if (verify) {
    uint32_t stored = UnmaskCrc(DecodeFixed32(block->data() + block->size() - 4));
    uint32_t actual = Crc32c(0, block->data(), block->size() - 4);
    if (stored != actual) {
      return Status::Corruption("block checksum mismatch in " + path);
    }
  }
  block->resize(block->size() - 4);
  return Status::Ok();
}

bool SSTableReader::FindDataBlock(std::string_view key, uint64_t* offset, uint32_t* size) const {
  if (!BloomFilterMayContain(bloom_, key)) {
    return false;
  }
  // First block whose last key >= key.
  auto it = std::lower_bound(index_.begin(), index_.end(), key,
                             [](const IndexEntry& e, std::string_view k) {
                               return std::string_view(e.last_key) < k;
                             });
  if (it == index_.end()) {
    return false;
  }
  *offset = it->offset;
  *size = it->size;
  return true;
}

PinnedBlock SSTableReader::CacheLookup(uint64_t offset) {
  return pool_ != nullptr ? pool_->Lookup(pool_file_id_, offset) : PinnedBlock();
}

PinnedBlock SSTableReader::CacheInsert(uint64_t offset, std::string block) {
  return pool_ != nullptr ? pool_->InsertBlock(pool_file_id_, offset, std::move(block))
                          : PinnedBlock();
}

StatusOr<LookupState> SSTableReader::SearchBlock(std::string_view block, std::string_view key,
                                                 std::string* value, Operands* operands,
                                                 const std::string& path) {
  const char* p = block.data();
  const char* end = p + block.size();
  while (p < end) {
    std::string_view k;
    RecType type = RecType::kValue;
    std::string_view v;
    p = DecodeEntry(p, end, &k, &type, &v);
    if (p == nullptr) {
      return Status::Corruption("bad data entry in " + path);
    }
    if (k == key) {
      switch (type) {
        case RecType::kTombstone:
          return LookupState::kDeleted;
        case RecType::kValue:
          value->assign(v.data(), v.size());
          return LookupState::kFound;
        case RecType::kMergeStack:
          if (!DecodeMergeStack(v, operands)) {
            return Status::Corruption("bad merge stack in " + path);
          }
          return LookupState::kMergePartial;
      }
    }
    if (k > key) {
      return LookupState::kNotFound;
    }
  }
  return LookupState::kNotFound;
}

StatusOr<LookupState> SSTableReader::Get(std::string_view key, std::string* value,
                                         Operands* operands) const {
  uint64_t offset = 0;
  uint32_t size = 0;
  if (!FindDataBlock(key, &offset, &size)) {
    return LookupState::kNotFound;
  }
  std::string block;
  GADGET_RETURN_IF_ERROR(ReadBlockRaw(offset, size, &block));
  return SearchBlock(block, key, value, operands, file_->path());
}

// -------------------------------------------------------------- SSTableIterator

SSTableIterator::SSTableIterator(std::shared_ptr<SSTableReader> reader)
    : reader_(std::move(reader)) {
  LoadBlock();
  ParseEntry();
}

void SSTableIterator::LoadBlock() {
  valid_ = false;
  while (block_index_ < reader_->index_.size()) {
    const auto& ie = reader_->index_[block_index_];
    Status s = reader_->ReadBlockRaw(ie.offset, ie.size, &block_);
    if (!s.ok()) {
      status_ = s;
      return;
    }
    ++block_index_;
    if (!block_.empty()) {
      pos_ = block_.data();
      end_ = block_.data() + block_.size();
      valid_ = true;
      return;
    }
  }
  pos_ = end_ = nullptr;
}

void SSTableIterator::ParseEntry() {
  if (!valid_ || pos_ == nullptr) {
    valid_ = false;
    return;
  }
  pos_ = DecodeEntry(pos_, end_, &key_, &type_, &value_);
  if (pos_ == nullptr) {
    status_ = Status::Corruption("bad data entry in " + reader_->path());
    valid_ = false;
  }
}

void SSTableIterator::Next() {
  if (!valid_) {
    return;
  }
  if (pos_ >= end_) {
    LoadBlock();
  }
  ParseEntry();
}

}  // namespace gadget
