// Abstract KV store interface shared by all four engines.
//
// §5.5: state access streams contain get/put/merge/delete; engines that do
// not support lazy merge (FASTER, BerkeleyDB) expose ReadModifyWrite instead
// and the performance evaluator translates. Merge semantics throughout this
// project are *operand append* (RocksDB list-append merge operator), which is
// what holistic window buckets need.
//
// Batched execution: real streaming runtimes amortize store crossings (Flink
// batches state writes per checkpoint; RocksDB's high-throughput path is
// WriteBatch/MultiGet). The interface therefore exposes
//   * Write(WriteBatch)  — an ordered sequence of put/merge/delete entries
//     applied under ONE synchronization epoch (one lock acquisition, one WAL
//     group-commit record where the engine has a WAL);
//   * MultiGet           — vector point lookup with per-key statuses.
// Both have correct-by-construction defaults (loop over the single-op
// methods), and every engine overrides them with an amortized
// implementation. Entries within a batch apply in insertion order, so a batch
// that puts then deletes one key leaves it deleted.
//
// Stats accounting contract (identical across engines AND across the batched
// and single-op paths — asserted by tests/batch_test.cc):
//   * gets/puts/merges/deletes/rmws count one per logical operation, whether
//     issued singly or inside a batch;
//   * bytes_written  += key+value for put/merge/rmw, += key for delete;
//   * bytes_read     += returned value bytes for each successful get;
//   * batches        += 1 per Write()/MultiGet() call,
//     batched_ops    += operations carried by those calls — these two are the
//     only counters allowed to differ between batch sizes.
//
// Thread-safety: all engines are internally synchronized (Fig. 14 shares one
// store instance across concurrently running operators).
#ifndef GADGET_STORES_KVSTORE_H_
#define GADGET_STORES_KVSTORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/read_options.h"

namespace gadget {

struct StoreStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t merges = 0;
  uint64_t deletes = 0;
  uint64_t rmws = 0;
  uint64_t bytes_written = 0;   // user bytes accepted
  uint64_t bytes_read = 0;      // user bytes returned
  uint64_t io_bytes_written = 0;  // device bytes (write amplification)
  uint64_t io_bytes_read = 0;
  uint64_t flushes = 0;        // memtable/page-cache flushes
  uint64_t compactions = 0;    // LSM compactions / btree merges
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t batches = 0;        // Write()/MultiGet() calls
  uint64_t batched_ops = 0;    // operations carried inside those calls

  // Internal engine counters surfaced for run reports (DESIGN.md §5d).
  // Engines without the mechanism leave the counter at zero.
  uint64_t wal_fsyncs = 0;        // LSM WAL / FASTER log fdatasync calls
  uint64_t wal_bytes = 0;         // bytes appended to the WAL / durability log
  uint64_t flush_micros = 0;      // time spent flushing memtable -> L0
  uint64_t stall_micros = 0;      // writer time hard-blocked on backpressure
                                  // (L0 stall tier, full immutable queue)
  uint64_t slowdown_micros = 0;   // writer time in the graduated slowdown
                                  // tier (brief sleeps before a hard stall)
  uint64_t compaction_micros = 0;  // background compaction work time
  uint64_t cache_evictions = 0;   // block/page-cache evictions, log-window
                                  // spills (FASTER)
  // Cross-writer WAL group commit: appends whose record committed two or more
  // concurrent writers at once, and (a gauge, like level_files) the widest
  // group observed so far in logical operations.
  uint64_t wal_group_commits = 0;
  uint64_t wal_group_size_max = 0;
  // Shared buffer pool / async read path (engines on the pool report the
  // POOL's totals — one resource, one set of numbers; others leave zero):
  uint64_t cache_pins = 0;         // successful pin acquisitions (hit+insert)
  uint64_t io_batches = 0;         // batched-read waves through the IoBackend
  // Widest single I/O wave (reads in flight at once). A gauge, like
  // wal_group_size_max: DeltaSince keeps the later snapshot's value.
  uint64_t io_in_flight_max = 0;
  // LSM only: SSTable count per level at observation time. A gauge, not a
  // counter — DeltaSince copies the later snapshot's value verbatim.
  std::vector<uint64_t> level_files;

  // Counter delta over an interval: every counter subtracts `start`'s value
  // (saturating at 0 so a racy snapshot never wraps); gauges (level_files,
  // wal_group_size_max) take this (the later) snapshot's value. Timeline
  // samples are built from this (src/gadget/evaluator.h).
  StoreStats DeltaSince(const StoreStats& start) const;

  // Element-wise sum. Used to aggregate DISTINCT store instances (the server
  // merges N shards' stats into one fleet view): counters add; gauges
  // (wal_group_size_max, io_in_flight_max) take the max of the instances,
  // and level_files sums per level since each shard owns its own files.
  void MergeSum(const StoreStats& other);

  // Element-wise max. Used when merging concurrent instances' timeline
  // samples: every instance observes the SAME shared store, so summing their
  // per-interval deltas would multiply store activity by the thread count;
  // max keeps the widest single observation instead.
  void MergeMax(const StoreStats& other);
};

// An ordered sequence of put/merge/delete entries applied atomically with
// respect to other writers (one synchronization epoch). Cleared batches keep
// their entry storage, so a reused batch allocates nothing in steady state —
// replay loops rebuild one batch per flush without per-op heap traffic.
class WriteBatch {
 public:
  enum class Op : uint8_t { kPut = 0, kMerge = 1, kDelete = 2 };

  struct Entry {
    Op op = Op::kPut;
    std::string key;
    std::string value;  // operand for kMerge, empty for kDelete
  };

  void Put(std::string_view key, std::string_view value) {
    Append(Op::kPut, key, value);
  }
  // Operand-append merge. Engines without native merge apply it as an eager
  // read-modify-write (same observable semantics, counted as an rmw).
  void Merge(std::string_view key, std::string_view operand) {
    Append(Op::kMerge, key, operand);
  }
  void Delete(std::string_view key) { Append(Op::kDelete, key, {}); }
  // Put, Merge or Delete by `op`; a delete drops `value`.
  void Add(Op op, std::string_view key, std::string_view value) {
    Append(op, key, op == Op::kDelete ? std::string_view() : value);
  }

  // Keeps entry capacity (keys/values reuse their buffers on the next fill).
  void Clear() { size_ = 0; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Entry& entry(size_t i) const { return entries_[i]; }

 private:
  void Append(Op op, std::string_view key, std::string_view value) {
    if (size_ == entries_.size()) {
      entries_.emplace_back();
    }
    Entry& e = entries_[size_++];
    e.op = op;
    e.key.assign(key.data(), key.size());
    e.value.assign(value.data(), value.size());
  }

  std::vector<Entry> entries_;  // [0, size_) live; tail retained for reuse
  size_t size_ = 0;
};

// Options for KVStore::Checkpoint.
struct CheckpointOptions {
  // Path of a previous checkpoint of the SAME store instance. Engines with
  // immutable file sets (LSM/Lethe) hard-link unchanged files from the base
  // instead of re-capturing them (incremental checkpoint); other engines
  // ignore it. Empty means a full checkpoint.
  std::string base_dir;
};

// What a Checkpoint call produced, for run reports and tests.
struct CheckpointInfo {
  uint64_t bytes = 0;       // total size of the checkpoint image
  uint64_t files = 0;       // files written into the checkpoint dir
  uint64_t hard_links = 0;  // files captured by hard link (no bytes copied)
  uint64_t reused = 0;      // files linked from options.base_dir (incremental)
};

class KVStore {
 public:
  virtual ~KVStore() = default;

  virtual Status Put(std::string_view key, std::string_view value) = 0;

  // NotFound when the key is absent or deleted. `options` tunes the read
  // (cache admission, checksum verification — see
  // src/stores/read_options.h); engines without the mechanism ignore it.
  // Overriders must re-surface the convenience overload with
  // `using KVStore::Get;`.
  virtual Status Get(std::string_view key, std::string* value, const ReadOptions& options) = 0;

  // Convenience overload: default ReadOptions.
  Status Get(std::string_view key, std::string* value) { return Get(key, value, ReadOptions()); }

  // Lazy append of `operand` to the key's value (RocksDB-style merge).
  // Engines without native merge return Unsupported; callers should consult
  // supports_merge() once up front and fall back to ReadModifyWrite (the
  // evaluator and the batch paths do this automatically).
  virtual Status Merge(std::string_view key, std::string_view operand) {
    // Short message stays within SSO: no allocation on this per-op path.
    return Status::Unsupported("no merge");
  }

  virtual Status Delete(std::string_view key) = 0;

  // Eager read-modify-write: append `operand` to the stored value (missing
  // key treated as empty). Default implementation is Get+concat+Put; engines
  // override when they can do better (FASTER in-place RMW).
  virtual Status ReadModifyWrite(std::string_view key, std::string_view operand);

  // Applies every entry of `batch` in order under one synchronization epoch.
  // Default loops over the single-op methods (merge entries fall back to
  // ReadModifyWrite when the engine lacks merge); engines override to take
  // their locks once, group-commit their WAL, and batch at their native
  // granularity. On error, a prefix of the batch may have been applied — the
  // store itself stays consistent.
  virtual Status Write(const WriteBatch& batch);

  // Vector point lookup. Resizes *values and *statuses to keys.size();
  // (*statuses)[i] is Ok, NotFound or that key's error. Duplicate keys are
  // looked up independently. Returns the first non-NotFound error, else Ok.
  // An error that fails the whole call (a closed store, a background error)
  // is also every key's status, so the statuses alone tell every outcome.
  // Engines with a block-structured read path (LSM/Lethe) resolve all cache
  // misses as ONE batched I/O wave instead of N serial reads.
  virtual Status MultiGet(const std::vector<std::string>& keys,
                          std::vector<std::string>* values, std::vector<Status>* statuses,
                          const ReadOptions& options);

  // Convenience overload: default ReadOptions.
  Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses) {
    return MultiGet(keys, values, statuses, ReadOptions());
  }

  virtual bool supports_merge() const { return false; }

  // Persists all buffered state (memtables, dirty pages, log tail).
  virtual Status Flush() { return Status::Ok(); }

  // Writes a crash-consistent, self-contained image of the store into `dir`
  // (created if missing; must be empty). The image captures one atomic point
  // in the operation sequence: every acknowledged write before that point is
  // in the image, none after. RestoreStore() materializes the image as a
  // fresh store with identical contents. Safe to call concurrently with
  // reads and writes. The image is durable (file data and directory entries
  // synced) when the call returns.
  virtual StatusOr<CheckpointInfo> Checkpoint(const std::string& dir,
                                              const CheckpointOptions& options = {});

  virtual Status Close() { return Status::Ok(); }

  virtual StoreStats stats() const = 0;

  virtual std::string name() const = 0;

 protected:
  // Batch-visibility accounting shared by all engines: overrides of
  // Write/MultiGet call NoteBatch(ops) once per call, and every stats()
  // implementation folds the counters in via FoldBatchStats.
  void NoteBatch(uint64_t ops) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_ops_.fetch_add(ops, std::memory_order_relaxed);
  }
  void FoldBatchStats(StoreStats* out) const {
    out->batches = batches_.load(std::memory_order_relaxed);
    out->batched_ops = batched_ops_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_ops_{0};
};

// Open-time configuration shared by every engine. Field semantics per engine:
//   buffer_pool      — sizing/policy for the block/page pool the store
//                      creates (LSM/Lethe data blocks, B+tree pages); see
//                      src/stores/bufferpool/buffer_pool.h;
//   shared_pool      — attach to an EXISTING pool instead of creating one:
//                      every store opened with the same pointer shares one
//                      frame budget and one IoBackend (buffer_pool sizing is
//                      then ignored);
//   log_memory_bytes — FASTER in-memory log window (0 = engine default);
//   mem_stripes      — MemStore lock-stripe count (0 = MemStore default);
//   sync_writes      — fsync the WAL / log on every commit (group commit
//                      makes this per-batch rather than per-op); btree has
//                      no log, so OpenStore rejects it there with
//                      InvalidArgument (its pages are durable only after
//                      Flush/Checkpoint/Close); mem ignores it;
//   batch_size       — default operation-coalescing width replays should use
//                      (consumed by the harness / ReplayOptions, not the
//                      engine).
struct StoreOptions {
  std::string engine = "lsm";  // mem | lsm | lethe | faster | btree
  std::string dir;             // created if missing; ignored by mem
  BufferPoolOptions buffer_pool;
  std::shared_ptr<BufferPool> shared_pool;
  uint64_t log_memory_bytes = 0;
  size_t mem_stripes = 0;
  bool sync_writes = false;
  uint64_t batch_size = 1;
};

// Engine factory.
StatusOr<std::unique_ptr<KVStore>> OpenStore(const StoreOptions& options);

// Materializes the checkpoint image at `checkpoint_dir` into options.dir and
// opens it as a fresh store (normal recovery runs, so for the LSM engines the
// WAL tail captured by the checkpoint is replayed). options.engine must match
// the engine that produced the checkpoint. options.dir must be empty or
// missing (ignored for mem, which loads the snapshot directly). Immutable
// files (SSTables) are hard-linked when possible; mutating engines (btree,
// faster) get byte copies so the checkpoint stays pristine.
StatusOr<std::unique_ptr<KVStore>> RestoreStore(const StoreOptions& options,
                                                const std::string& checkpoint_dir);

}  // namespace gadget

#endif  // GADGET_STORES_KVSTORE_H_
