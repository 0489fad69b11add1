// Write-ahead log. One log file per memtable generation; replayed on open,
// deleted after the corresponding memtable flushes.
//
// Record framing: fixed32 masked-crc(payload) | varint32 len | payload
//
// Two payload formats share the framing, distinguished by the first byte:
//   v1 (single op):  type byte (RecType 0..2) | varint32 klen | key |
//                    varint32 vlen | value
//   v2 (group commit, kBatchRecordTag): tag byte | varint32 count |
//                    count x (type byte | varint32 klen | key |
//                             varint32 vlen | value)
// A v2 record carries an entire WriteBatch — or a whole group of concurrent
// writers' operations (cross-writer group commit) — under ONE crc and (when
// syncing) ONE fsync. Because the crc covers the whole payload, a partially
// synced batch record fails verification and replay stops cleanly before
// applying any of its entries: batches/groups are all-or-nothing on recovery,
// which is safe because no writer in the group has been acknowledged until
// the record is durable. Pre-v2 log files contain only v1 records and replay
// unchanged (backward compatible).
//
// A torn tail (partial final record after a crash) stops replay cleanly, and
// so does the zero-filled reserved tail of a log that was never closed
// (MappedLogFile): an all-zero header fails the crc check.
#ifndef GADGET_STORES_LSM_WAL_H_
#define GADGET_STORES_LSM_WAL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/status.h"
#include "src/stores/lsm/format.h"

namespace gadget {

// First payload byte of a v2 group-commit record. RecType occupies 0..2, so
// any value outside that range works; 3 is the next code point.
inline constexpr uint8_t kBatchRecordTag = 3;

class WalWriter {
 public:
  static StatusOr<std::unique_ptr<WalWriter>> Create(const std::string& path);

  // One logical operation inside a commit group. Views point into the
  // enqueued writers' storage, which stays alive until the group leader
  // signals completion. A batch's ops map kPut -> kValue, kMerge ->
  // kMergeStack (a single raw operand) and kDelete -> kTombstone.
  struct GroupOp {
    RecType type;
    std::string_view key;
    std::string_view value;
  };
  // The only append: one record, one crc, one copy into the mapped log and
  // one fdatasync when `sync` for the whole group. A group of one is a v1
  // record; a larger group (a WriteBatch, or several writers' ops) is one v2
  // record. An empty group writes nothing. On return the record is in the
  // page cache, which a process crash keeps; only `sync` survives a power
  // loss.
  Status AppendGroup(const std::vector<GroupOp>& ops, bool sync);

  Status Close();

  // Counters are atomics so StoreStats snapshots can read them while the
  // group-commit leader appends with the store mutex released.
  uint64_t size() const { return bytes_.load(std::memory_order_relaxed); }
  // fdatasync calls issued by this log generation (observability counters;
  // the store folds them into StoreStats::wal_fsyncs across rotations).
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }

 private:
  explicit WalWriter(std::unique_ptr<MappedLogFile> file) : file_(std::move(file)) {}

  std::unique_ptr<MappedLogFile> file_;
  std::string payload_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
};

// Replays records until EOF or the first corrupt/torn record, invoking `fn`
// once per logical operation (v2 batch records fan out to one call per
// entry). Returns the number of operations applied.
StatusOr<uint64_t> ReplayWal(
    const std::string& path,
    const std::function<void(RecType type, std::string_view key, std::string_view value)>& fn);

}  // namespace gadget

#endif  // GADGET_STORES_LSM_WAL_H_
