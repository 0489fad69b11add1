// Persistent B+tree key-value store (the project's BerkeleyDB stand-in).
//
// Fixed-size slotted pages in a single file (page.h): a node's buffer-pool
// frame holds the page's own bytes, which searches read and edits write in
// place, so a pool miss is one pread plus CheckBTreePage and a write-back is
// one pwrite of the frame. Values are overwritten in place when the new one
// fits the old record; a full page compacts once, then splits; values larger
// than a quarter page live in overflow-page chains (holistic window buckets
// grow far beyond a page). Deletes remove entries without rebalancing: an
// emptied leaf stays linked and later inserts in its key range refill it.
// Node pages never return to the free list, and never come from it: only
// overflow pages do. This matches BerkeleyDB's lazy reclamation behaviour
// closely enough for benchmarking.
//
// Keys are at most MaxKeyBytes(page_size) bytes (page.h: 2,026 at the default
// 4 KiB pages, the largest for which every split leaves its pages within a
// page); Put, Write and ReadModifyWrite refuse a longer key with
// InvalidArgument and leave the store unchanged.
//
// Write-back model: the pool is a write-back cache whose budget bounds the
// store's pages, as BerkeleyDB's own cache does. A mutated page keeps the
// pin on its pool frame until it is written back, so it is charged to the
// pool and cannot be evicted: the pool always holds the page's current
// bytes. The dirty set is a table indexed by page id that holds each dirty
// page's bytes and pin, and a descent reads it before the pool: a page the
// store already pins costs no shard lock. The table itself sits outside the
// pool budget (see dirty_): a 640-byte chunk per 16 page ids that hold a
// dirty page, freed at write-back, and an 8-byte slot per 16 page ids of
// the file. Dirty pages are written back in page order, and unpinned, on
// Flush(), Checkpoint() and Close(), and when the pool is under pressure:
// the first call after the pool had to admit a frame over budget because
// every frame in a shard was pinned (BufferPool::overshoots()) writes back
// this store's whole dirty set. A tree that fits the pool writes nothing
// until it is flushed.
//
// Crash contract (DESIGN.md §5g): a write-back is a commit. It writes the
// dirty pages, then the meta page last, which names the root, height and
// page count of exactly the tree just written; a root split writes nothing
// by itself. So a process crash between calls recovers to the last
// write-back. A power loss recovers to the last Flush(), Checkpoint() or
// Close(), the only ones that sync, only if no write-back has run since: a
// pool-pressure write-back overwrites the synced tree's pages in place
// without a sync, and the device may persist any subset of them, so it can
// tear the synced tree. Not covered: a crash inside a write-back, which
// overwrites pages in place, and overflow values: chain pages and free-list
// links are written in place at once, so overwriting or deleting an
// overflowed value can break the committed tree's copy of it.
#ifndef GADGET_STORES_BTREE_BTREE_STORE_H_
#define GADGET_STORES_BTREE_BTREE_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/stores/btree/page.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/kvstore.h"

namespace gadget {

// The tree has no log: its pages are durable only after Flush(),
// Checkpoint() or Close(), so OpenStore refuses StoreOptions::sync_writes
// for it.
struct BTreeOptions {
  // kMinPageSize to kMaxPageSize (page.h); Open refuses other sizes, and a
  // page file opened with a size other than its own.
  uint32_t page_size = 4096;
  // Page residency, dirty pages included, is bounded by the BufferPool
  // passed to Open (sized by StoreOptions::buffer_pool), not per-store. The
  // store's dirty-page table is not charged to it (see the header comment).
};

class BTreeStore : public KVStore {
 public:
  // `pool` bounds page residency; nullptr makes the store create a private
  // default-sized pool (standalone tests/tools).
  static StatusOr<std::unique_ptr<KVStore>> Open(const std::string& dir,
                                                 const BTreeOptions& opts,
                                                 std::shared_ptr<BufferPool> pool = nullptr);
  ~BTreeStore() override;

  using KVStore::Get;
  using KVStore::MultiGet;

  Status Put(std::string_view key, std::string_view value) override;
  // Honors options.fill_cache (a miss read with fill_cache=false is not
  // admitted to the pool); checksums do not apply to the page file.
  Status Get(std::string_view key, std::string* value, const ReadOptions& options) override;
  Status Delete(std::string_view key) override;
  Status ReadModifyWrite(std::string_view key, std::string_view operand) override;

  // Batched paths: one mu_ acquisition and one pool-pressure check per batch
  // instead of one per operation (page granularity — consecutive entries
  // hitting the same leaf reuse the cached page without re-locking).
  Status Write(const WriteBatch& batch) override;
  Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses, const ReadOptions& options) override;

  Status Flush() override;
  Status Close() override;
  // Flushes dirty pages + meta under mu_, then byte-copies the page file
  // into `dir`. The copy happens with mu_ held after the flush, so it is a
  // point-in-time image; the file mutates in place, so there is nothing to
  // reuse incrementally (options.base_dir is ignored).
  StatusOr<CheckpointInfo> Checkpoint(const std::string& dir,
                                      const CheckpointOptions& options) override;
  StoreStats stats() const override;
  std::string name() const override { return "btree"; }
  size_t max_key_bytes() const override { return MaxKeyBytes(opts_.page_size); }

  // Introspection for tests.
  uint32_t height() const;
  uint64_t num_pages() const;
  // Walks the whole tree checking each page's layout (CheckBTreePage),
  // separator bounds, uniform leaf depth and that no page is reached twice.
  Status CheckInvariants();

 private:
  // A page fetched for one operation. `pin` holds its pool frame, which
  // keeps `page` (the frame's bytes) alive and resident. `pin` is empty for
  // a dirty page, whose pin stays in dirty_, and for a fill_cache=false
  // miss, which is never admitted: its bytes are uncached_.
  struct PageRef {
    uint32_t page_id = 0;
    char* page = nullptr;
    PinnedBlock pin;
  };
  // An internal page a writer's descent passed, and the child it took.
  struct PathEntry {
    uint32_t page_id;
    size_t child_index;
  };
  // A dirty page: its frame's bytes, and the pin that keeps the frame. An
  // empty entry (page null, no pin) is a page id that is not dirty.
  struct DirtyPage {
    char* page = nullptr;
    PinnedBlock pin;
  };
  // dirty_ holds page ids in chunks of kDirtyChunkPages (640 bytes).
  static constexpr uint32_t kDirtyChunkShift = 4;
  static constexpr uint32_t kDirtyChunkPages = 1u << kDirtyChunkShift;
  using DirtyChunk = std::array<DirtyPage, kDirtyChunkPages>;

  BTreeStore(std::string dir, const BTreeOptions& opts, std::shared_ptr<BufferPool> pool);

  Status Recover();
  BTreePage View(char* page) const { return BTreePage(page, opts_.page_size); }
  // InvalidArgument for a key longer than the pages take.
  Status CheckKeySize(std::string_view key) const;

  // --- page cache (mu_ held) ---
  // dirty_, then the pool, then disk. A dirty page is two loads from
  // dirty_: no shard lock, no pin. A miss is one pread plus CheckBTreePage.
  // `fill_cache` = false skips pool admission on a miss.
  StatusOr<PageRef> FetchPage(uint32_t page_id, bool fill_cache = true) REQUIRES(mu_);
  // The dirty page `page_id`, or null when it is not dirty.
  char* DirtyPageOrNull(uint32_t page_id) const REQUIRES(mu_) {
    const size_t chunk = page_id >> kDirtyChunkShift;
    return chunk < dirty_.size() && dirty_[chunk] != nullptr
               ? (*dirty_[chunk])[page_id & (kDirtyChunkPages - 1)].page
               : nullptr;
  }
  // Registers a page about to be mutated in dirty_, which keeps its pin
  // (idempotent: a page already dirty keeps its first pin).
  void MarkDirty(PageRef* ref) REQUIRES(mu_);
  // Admits a new page to the pool, pinned and dirty (splits, new roots), and
  // returns its bytes for the caller to format.
  char* InstallPage(uint32_t page_id) REQUIRES(mu_);
  // The commit: writes every dirty page to the page file in page order,
  // unpins it and frees its chunk of dirty_, then writes the meta page
  // (no sync).
  Status WriteBackDirtyLocked() REQUIRES(mu_);
  // Full write-back once the pool has overshot its budget since this store
  // last looked: the dirty set's pins are what keep the pool over budget.
  Status MaybeWriteBackLocked() REQUIRES(mu_);
  // Pops the free list, or grows the file. Corruption when the free list
  // links to a page outside the file, to itself or to a dirty page: free
  // pages are overflow pages, which never enter the pool. Node pages always
  // grow the file (next_page_++), so a split never reads the free list and
  // cannot fail half done.
  StatusOr<uint32_t> AllocOverflowPage() REQUIRES(mu_);
  Status FreePage(uint32_t page_id) REQUIRES(mu_);
  Status PersistMeta() REQUIRES(mu_);
  // Flush body shared by Flush() and Checkpoint(): a write-back, then
  // fdatasync.
  Status FlushLocked() REQUIRES(mu_);

  // --- tree ops (mu_ held) ---
  Status GetLocked(std::string_view key, std::string* value, bool fill_cache = true)
      REQUIRES(mu_);
  Status PutLocked(std::string_view key, std::string_view value) REQUIRES(mu_);
  Status DeleteLocked(std::string_view key) REQUIRES(mu_);
  Status RmwLocked(std::string_view key, std::string_view operand) REQUIRES(mu_);
  // Descends to the leaf for `key` and returns it. Writers pass `path`, which
  // receives the internal pages passed (page ids + child indices) for split
  // propagation; readers pass nullptr. The meta page's height bounds the
  // walk: a page that is a leaf above it, or internal at it, is corruption.
  StatusOr<PageRef> DescendToLeaf(std::string_view key, std::vector<PathEntry>* path,
                                  bool fill_cache = true) REQUIRES(mu_);
  // Inserts `e` at slot `i` of the dirty leaf `page`, which path_ leads to,
  // splitting it when it does not fit. False when no split could put `e`
  // beside either half: the leaf was split at slot `i`, and the caller
  // descends again to place `e` at the end of the left half.
  StatusOr<bool> InsertLeafEntry(BTreePage page, size_t i, const PageEntry& e) REQUIRES(mu_);
  // Adds `separator` and the new page `right_id` beside the page just split
  // to its parent, the last entry of path_, splitting ancestors in turn and
  // growing a new root when the root split. Writes nothing: the new root
  // reaches the file with the next write-back's meta page.
  Status InsertIntoParent(std::string separator, uint32_t right_id) REQUIRES(mu_);

  // --- overflow values (mu_ held) ---
  // Writes `value` to a new overflow chain and returns its head.
  StatusOr<uint32_t> StoreOverflow(std::string_view value) REQUIRES(mu_);
  // Leaf slot i's value, inline or from its chain.
  Status LoadValue(const BTreePage& leaf, size_t i, std::string* out) REQUIRES(mu_);
  // Reads overflowed slot i's chain into `value` and its page ids into
  // `pages` (either may be null). Corruption when a link leaves the file,
  // reaches a dirty page or outruns the value's length (so no page is
  // listed twice), or when the chunks do not add up to it. Reads only: a
  // failure changes nothing.
  Status WalkChain(const BTreePage& leaf, size_t i, std::string* value,
                   std::vector<uint32_t>* pages) REQUIRES(mu_);
  // Returns to the free list the chain of an overwritten or deleted value,
  // which `walk` (WalkChain's status) listed in `pages`. Callers free a
  // chain only after its slot stops naming it, so a failure part-way leaks
  // the rest and leaves the tree whole. A chain whose walk failed is left
  // to leak, and the walk's error is returned: the write took effect, and
  // the corruption is reported.
  Status FreeChain(const Status& walk, const std::vector<uint32_t>& pages) REQUIRES(mu_);
  // The most pages a chain holding `length` bytes may have.
  uint64_t ChainPages(uint32_t length) const { return length / (opts_.page_size - 8) + 1; }

  // --- raw page I/O of page_size bytes (mu_ held: they use fd_) ---
  Status ReadPageRaw(uint32_t page_id, char* out) REQUIRES(mu_);
  Status WritePageRaw(uint32_t page_id, const char* data) REQUIRES(mu_);

  const std::string dir_;
  const BTreeOptions opts_;
  // Shared (or private when Open got nullptr) page residency: each frame
  // holds one page's bytes and is charged one page. Never null.
  const std::shared_ptr<BufferPool> pool_;
  uint64_t pool_file_id_ = 0;  // this store's namespace within the pool

  mutable Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  uint32_t root_ GUARDED_BY(mu_) = 0;
  uint32_t next_page_ GUARDED_BY(mu_) = 1;  // page 0 is the meta page
  // Singly-linked free list threaded through pages.
  uint32_t free_head_ GUARDED_BY(mu_) = 0;
  uint32_t height_ GUARDED_BY(mu_) = 1;

  // Mutated pages not yet written back, each holding its frame's pin:
  // exactly the dirty set. Page id p is entry p % kDirtyChunkPages of chunk
  // p / kDirtyChunkPages. A chunk is allocated when one of its pages is
  // first dirtied and freed at write-back, so chunks follow the dirty set
  // (at most 640 bytes per dirty page, 40 when whole runs of neighbours are
  // dirty, as a tree built in the pool's budget is); the vector of chunk
  // pointers keeps its length, 8 bytes per 16 page ids up to the highest
  // page ever dirtied.
  std::vector<std::unique_ptr<DirtyChunk>> dirty_ GUARDED_BY(mu_);
  // Fetches dirty_ served: pool hits the pool never saw, which stats()
  // adds to its cache_hits.
  uint64_t dirty_hits_ GUARDED_BY(mu_) = 0;
  // pool_->overshoots() when this store last checked it.
  uint64_t overshoots_seen_ GUARDED_BY(mu_) = 0;
  // The current writer's descent, reused across operations.
  std::vector<PathEntry> path_ GUARDED_BY(mu_);
  // A page-sized copy that compactions and splits rebuild pages from.
  std::string scratch_ GUARDED_BY(mu_);
  // The page the last fill_cache=false miss read, valid until the next one:
  // a reader's descent is done with a page once it has its child's id. Not
  // a PageRef member: every fetch builds, moves and destroys a PageRef, and
  // a std::string there costs a copy and a branch each time.
  std::string uncached_ GUARDED_BY(mu_);

  StoreStats stats_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace gadget

#endif  // GADGET_STORES_BTREE_BTREE_STORE_H_
