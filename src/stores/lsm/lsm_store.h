// LSM-tree key-value store (the project's RocksDB stand-in) with optional
// delete-aware compaction (the Lethe stand-in, enabled via
// LsmOptions::delete_aware).
//
// Architecture (DESIGN.md §5e):
//  * the write path is a pipeline: concurrent writers enqueue on a leveldb-
//    style writer queue and one leader appends the whole group to the WAL as
//    a single record (one crc, one fdatasync — cross-writer group commit),
//    then applies it to the active memtable;
//  * a full memtable is sealed onto a bounded queue of immutables together
//    with its WAL generation number and the writer returns immediately; a
//    dedicated flusher thread drains the queue (oldest first) into L0
//    SSTables, so writers never perform SSTable I/O inline;
//  * a dedicated compaction thread runs leveled compaction (L0->L1 by file
//    count, Ln->Ln+1 by level size; delete-aware force-compaction in Lethe
//    mode), partitioning each job's key range into up to
//    LsmOptions::compaction_threads disjoint sub-ranges merged in parallel
//    and installed as one version edit — a long compaction never blocks a
//    flush;
//  * backpressure is graduated: above l0_slowdown_limit L0 files writers
//    sleep briefly (slowdown tier, slowdown_micros); above l0_stall_limit or
//    with the immutable queue full they block (stall tier, stall_micros);
//  * readers take the store mutex only to probe the memtables (active, then
//    immutables newest-first) and snapshot the Version, then search SSTables
//    lock-free, accumulating lazy merge operands until a base value or
//    tombstone resolves the lookup;
//  * everything on disk is CRC-protected; the manifest is atomically
//    rewritten after every flush/compaction and records the live (unflushed)
//    WAL generations, so recovery replays exactly those, oldest first; a
//    torn WAL tail is tolerated.
#ifndef GADGET_STORES_LSM_LSM_STORE_H_
#define GADGET_STORES_LSM_LSM_STORE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/kvstore.h"
#include "src/stores/lsm/memtable.h"
#include "src/stores/lsm/options.h"
#include "src/stores/lsm/version.h"
#include "src/stores/lsm/wal.h"

namespace gadget {

class LsmStore : public KVStore {
 public:
  // `pool` is the shared buffer pool data blocks live in; nullptr makes the
  // store create a private default-sized pool (standalone tests/tools).
  static StatusOr<std::unique_ptr<KVStore>> Open(const std::string& dir, const LsmOptions& opts,
                                                 std::shared_ptr<BufferPool> pool = nullptr);
  ~LsmStore() override;

  using KVStore::Get;
  using KVStore::MultiGet;

  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value, const ReadOptions& options) override;
  Status Merge(std::string_view key, std::string_view operand) override;
  Status Delete(std::string_view key) override;

  // Batched paths. Write enqueues the whole batch as ONE writer on the
  // group-commit queue (the leader may coalesce it with other writers into a
  // single WAL record); MultiGet probes the memtable layers for every key and
  // snapshots the Version once, then resolves the misses against SSTables
  // asynchronously: every key's block miss joins one batched I/O wave through
  // the pool's IoBackend instead of N serial preads. Get runs the same walk
  // for its one key.
  Status Write(const WriteBatch& batch) override;
  Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses, const ReadOptions& options) override;

  bool supports_merge() const override { return true; }
  // Synchronously persists all buffered writes: drains the immutable queue,
  // then flushes the active memtable inline. Must not be called while the
  // flusher is paused via TEST_PauseFlusher.
  Status Flush() override;
  Status Close() override;

  // Checkpoint: copies the live WAL generations and hard-links the current
  // Version's SSTable set into `dir`, then writes a manifest snapshot.
  // Opening the image runs normal recovery, so the WAL tail captured by the
  // copy is replayed — restore == checkpoint + WAL tail. With
  // options.base_dir set to the previous checkpoint of this store, unchanged
  // SSTables are linked from there instead (incremental; counted in
  // CheckpointInfo::reused).
  StatusOr<CheckpointInfo> Checkpoint(const std::string& dir,
                                      const CheckpointOptions& options) override;

  StoreStats stats() const override;
  std::string name() const override { return opts_.delete_aware ? "lethe" : "lsm"; }

  // Introspection for tests.
  int NumFilesAtLevel(int level) const;
  uint64_t TotalSstBytes() const;
  size_t TEST_NumImmutables() const;
  // Holds the flusher so sealed memtables accumulate deterministically (the
  // crash-recovery tests build multi-generation immutable queues this way).
  // Ignored once Close() begins: close always drains.
  void TEST_PauseFlusher(bool paused);

 private:
  LsmStore(std::string dir, const LsmOptions& opts, std::shared_ptr<BufferPool> pool);

  Status Recover();

  // ------------------------------------------------------------ write path
  // One enqueued write: either a single operation (batch == nullptr; the
  // views alias the caller's arguments, alive until `done`) or a WriteBatch.
  // Fields are written by the committing leader and read by the owning
  // writer, both under mu_ (per-instance annotation is not expressible: the
  // guarding mutex belongs to the store, not the struct).
  struct Writer {
    explicit Writer(Mutex* mu) : cv(mu) {}
    const WriteBatch* batch = nullptr;
    RecType type = RecType::kValue;
    std::string_view key;
    std::string_view value;
    Status status;
    bool done = false;
    CondVar cv;
  };
  // Common Put/Merge/Delete/Write path: enqueue, then either wait for a
  // leader to commit us or become the leader and commit a group.
  Status EnqueueWriter(Writer* w) EXCLUDES(mu_);
  // Leader duties: make room, collect a group, group-commit the WAL (mu_
  // released around the append+sync), apply to the memtable, signal the
  // group. Requires w == writers_.front().
  void CommitGroupLocked(Writer* w) REQUIRES(mu_);
  // Ensures the active memtable can absorb the next group: applies the
  // graduated backpressure tiers (mu_ released around the slowdown sleep)
  // and seals a full memtable onto imm_.
  Status MakeRoomForWriteLocked() REQUIRES(mu_);
  // Seals mem_ (with its WAL generation) onto imm_ and starts a fresh
  // memtable + WAL generation. Requires mem_ non-empty.
  Status RotateMemTableLocked() REQUIRES(mu_);
  void ApplyOpLocked(RecType type, std::string_view key, std::string_view value)
      REQUIRES(mu_);

  // ------------------------------------------------------------- read path
  // Probes active memtable then immutables newest-first. kFound/kDeleted are
  // terminal (*value set for kFound); kNotFound/kMergePartial mean the caller
  // must continue into the SSTables with the accumulated operands in *acc.
  // Copies out of the memtables: no view into them outlives mu_.
  LookupState LookupMemLayersLocked(std::string_view key, std::string* value,
                                    Operands* acc) const REQUIRES(mu_);
  // One key on its way through the SSTables: where its answer lands, the
  // merge operands the newer layers stacked (oldest first, as one byte
  // string), and a cursor over its candidate tables.
  struct KeyRead {
    std::string_view key;
    std::string* value = nullptr;
    Status* status = nullptr;
    Operands acc;
    // Next slot of the shadowing order: L0 newest first, then one slot per
    // lower level.
    size_t next_table = 0;
    bool done = false;
  };
  // The SSTable half of Get (n = 1) and MultiGet: resolves every read
  // against the snapshot. Each round walks every unresolved key through the
  // pool until it resolves or misses; the round's misses, deduplicated per
  // block, form one batched IoBackend wave. Must be called with no locks
  // held: it does block I/O.
  void SearchTablesUnlocked(const Version& version, KeyRead* reads, size_t n,
                            const ReadOptions& options) EXCLUDES(mu_);

  // ------------------------------------------------------------ flush path
  struct ImmutableMem {
    std::unique_ptr<MemTable> mem;
    uint64_t wal_number = 0;  // the generation whose records this memtable holds
  };
  void FlusherThread();
  // Builds an L0 SSTable from `mem` as file `number` (allocated by the caller
  // under mu_). Takes no locks itself: the flusher builds with mu_ released
  // (sealed memtables are immutable, so concurrent reader probes are safe);
  // the synchronous paths build with mu_ held (why this is not EXCLUDES).
  StatusOr<std::shared_ptr<FileMeta>> BuildTableFromMem(const MemTable& mem, uint64_t number);
  // Synchronous flush of the active memtable (recovery, Flush, Close): build
  // + install inline, rotate the WAL generation. Requires the immutable
  // queue empty (older data must reach L0 first).
  Status FlushActiveMemLocked() REQUIRES(mu_);
  // Installs a built L0 file, moves the flushed memtable out of imm_ into
  // *retired (for the caller to free with mu_ released) and persists the
  // manifest.
  Status InstallFlushLocked(std::shared_ptr<FileMeta> meta, std::unique_ptr<MemTable>* retired)
      REQUIRES(mu_);

  // Persists the current version + live WAL generations.
  Status PersistManifestLocked() REQUIRES(mu_);

  // ------------------------------------------------------- compaction path
  void CompactionThread();
  struct CompactionJob {
    // Inputs ordered newest-first (L0 newest..oldest, then level-n file(s),
    // then level-n+1 overlaps).
    std::vector<std::shared_ptr<FileMeta>> inputs;
    int output_level = 1;
    bool bottommost = false;
  };
  // Returns false if no compaction is needed.
  bool PickCompactionLocked(CompactionJob* job) REQUIRES(mu_);
  // Merges the job's inputs into output files. Partitions the key range into
  // up to opts_.compaction_threads disjoint sub-ranges (split at input-file
  // smallest-key boundaries) and runs them in parallel; outputs are returned
  // in key order across the whole range. Runs with mu_ released.
  Status DoCompaction(const CompactionJob& job, std::vector<std::shared_ptr<FileMeta>>* outputs)
      EXCLUDES(mu_);
  // One subcompaction: merges keys in [begin, end) — an empty `begin` means
  // unbounded below, has_end == false unbounded above.
  Status RunSubcompaction(const CompactionJob& job, std::string_view begin, bool has_end,
                          std::string_view end,
                          std::vector<std::shared_ptr<FileMeta>>* outputs) EXCLUDES(mu_);
  void InstallCompactionLocked(const CompactionJob& job,
                               std::vector<std::shared_ptr<FileMeta>> outputs) REQUIRES(mu_);

  uint64_t MaxBytesForLevel(int level) const;
  static uint64_t NowMs();

  const std::string dir_;
  const LsmOptions opts_;
  // Shared (or private when Open got nullptr) block residency; SSTable
  // readers pin data blocks here and issue batched misses through its
  // IoBackend. Never null after construction.
  const std::shared_ptr<BufferPool> pool_;

  mutable Mutex mu_;
  CondVar work_cv_;   // signals the compaction thread
  CondVar flush_cv_;  // signals the flusher thread
  CondVar stall_cv_;  // wakes stalled writers / drain waiters
  std::unique_ptr<MemTable> mem_ GUARDED_BY(mu_);
  // Sealed memtables, oldest first. The queue (and each entry's unique_ptr)
  // is guarded; the pointed-to memtables are immutable, so the flusher reads
  // them with mu_ released.
  std::deque<ImmutableMem> imm_ GUARDED_BY(mu_);
  // Commit queue; front is the group leader.
  std::deque<Writer*> writers_ GUARDED_BY(mu_);
  // The pointer is guarded; the leader appends to the pointed-to log with mu_
  // released (safe: followers are parked, so exactly one thread writes it).
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mu_);
  uint64_t wal_number_ GUARDED_BY(mu_) = 0;
  uint64_t next_file_number_ GUARDED_BY(mu_) = 1;
  std::shared_ptr<const Version> current_ GUARDED_BY(mu_);
  // Round-robin pick position per level.
  std::vector<size_t> compact_cursor_ GUARDED_BY(mu_);
  StoreStats stats_ GUARDED_BY(mu_);
  // Bytes returned by gets. Kept outside mu_ so the read path never
  // re-acquires the store lock after it has dropped it to do block I/O.
  mutable std::atomic<uint64_t> read_bytes_{0};
  Status bg_error_ GUARDED_BY(mu_);
  bool closing_ GUARDED_BY(mu_) = false;
  bool flusher_paused_ GUARDED_BY(mu_) = false;  // test hook; see TEST_PauseFlusher
  // Started by Open, joined by Close; never touched concurrently.
  std::thread flusher_thread_;
  std::thread compaction_thread_;
};

}  // namespace gadget

#endif  // GADGET_STORES_LSM_LSM_STORE_H_
