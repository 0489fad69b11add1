// Block-based sorted table format.
//
// Layout:
//   [data block + crc32]*      entries: varint klen | key | type | varint vlen | value
//   [bloom block + crc32]      BloomFilterBuilder output over all user keys
//   [index block + crc32]      per data block: varint klen | last_key | fixed64 off | fixed32 sz
//   [footer, 40 bytes]         index_off/sz, bloom_off/sz, entry count, magic
//
// Keys appear at most once per table (flush/compaction collapse per key), in
// strictly increasing order. The index and bloom blocks are pinned in memory
// by the reader; LsmStore caches data blocks in the shared BufferPool.
#ifndef GADGET_STORES_LSM_SSTABLE_H_
#define GADGET_STORES_LSM_SSTABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/status.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/lsm/bloom.h"
#include "src/stores/lsm/format.h"

namespace gadget {

class SSTableBuilder {
 public:
  // file_number names the file: <dir>/<number>.sst
  SSTableBuilder(std::string path, uint32_t block_size, int bloom_bits_per_key);

  // Keys must be added in strictly increasing order.
  Status Add(std::string_view key, RecType type, std::string_view value);

  // Writes filter/index/footer and syncs. No Add after Finish.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_tombstones() const { return num_tombstones_; }
  uint64_t file_size() const { return file_size_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }

 private:
  Status FlushDataBlock();

  std::string path_;
  uint32_t block_size_;
  std::unique_ptr<WritableFile> file_;
  Status open_status_;

  std::string data_block_;
  std::string index_block_;
  std::string last_key_in_block_;
  std::unique_ptr<BloomFilterBuilder> bloom_;

  uint64_t num_entries_ = 0;
  uint64_t num_tombstones_ = 0;
  uint64_t offset_ = 0;
  uint64_t file_size_ = 0;
  std::string smallest_;
  std::string largest_;
  bool finished_ = false;
};

class SSTableReader {
 public:
  // pool may be nullptr (standalone tooling/tests). With a pool, the reader
  // claims a pool-global file id at Open for CacheLookup/CacheInsert and
  // drops its blocks again on destruction.
  static StatusOr<std::shared_ptr<SSTableReader>> Open(const std::string& path,
                                                       uint64_t file_number, BufferPool* pool);
  ~SSTableReader();
  SSTableReader(const SSTableReader&) = delete;
  SSTableReader& operator=(const SSTableReader&) = delete;

  // Uncached point lookup in this table alone (format tests, fuzzing):
  // bloom, index, one block read with its CRC checked. kNotFound: not in this
  // table. kFound: *value is the record's value. kDeleted: terminal.
  // kMergePartial: the table's operands went in front of *operands (they are
  // older than every operand already there). LsmStore reads through its own
  // walk and the pool.
  StatusOr<LookupState> Get(std::string_view key, std::string* value,
                            Operands* operands) const;

  // --- LsmStore's read walk ---

  // Locates the data block that may hold `key`. False when the bloom filter
  // or index proves the key absent (no I/O either way).
  bool FindDataBlock(std::string_view key, uint64_t* offset, uint32_t* size) const;

  // Pool access for externally fetched blocks. Empty handle when poolless.
  PinnedBlock CacheLookup(uint64_t offset);
  PinnedBlock CacheInsert(uint64_t offset, std::string block);

  // Checks and strips the 4-byte CRC trailer in place (`verify` = false
  // strips without checking).
  static Status VerifyAndStripChecksum(std::string* block, bool verify, const std::string& path);

  // Scans one decoded (CRC-stripped) data block for `key`; same contract as
  // Get. A malformed entry or an unknown record type on the way is
  // Corruption. `path` is only for error messages.
  static StatusOr<LookupState> SearchBlock(std::string_view block, std::string_view key,
                                           std::string* value, Operands* operands,
                                           const std::string& path);

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_number() const { return file_number_; }
  int fd() const { return file_->fd(); }
  const std::string& path() const { return file_->path(); }

  friend class SSTableIterator;

 private:
  SSTableReader(std::unique_ptr<RandomAccessFile> file, uint64_t file_number, BufferPool* pool);

  Status ReadBlockRaw(uint64_t offset, uint32_t size, std::string* out) const;

  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_;
  BufferPool* pool_;
  uint64_t pool_file_id_ = 0;

  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint32_t size;
  };
  std::vector<IndexEntry> index_;
  std::string bloom_;
  uint64_t num_entries_ = 0;
};

// Pull-style sequential iterator over one table (compaction input). Reads
// block-by-block bypassing the cache; O(block) memory.
class SSTableIterator {
 public:
  explicit SSTableIterator(std::shared_ptr<SSTableReader> reader);

  bool Valid() const { return valid_; }
  std::string_view key() const { return key_; }
  RecType type() const { return type_; }
  std::string_view value() const { return value_; }

  // Advances; sets !Valid() at end. Corruption surfaces via status().
  void Next();
  const Status& status() const { return status_; }

 private:
  void LoadBlock();
  void ParseEntry();

  std::shared_ptr<SSTableReader> reader_;
  size_t block_index_ = 0;
  std::string block_;
  const char* pos_ = nullptr;
  const char* end_ = nullptr;
  bool valid_ = false;
  std::string_view key_;
  RecType type_ = RecType::kValue;
  std::string_view value_;
  Status status_;
};

}  // namespace gadget

#endif  // GADGET_STORES_LSM_SSTABLE_H_
