// Persistent B+tree key-value store (the project's BerkeleyDB stand-in).
//
// Fixed-size pages in a single file, parsed nodes cached in the SHARED
// BufferPool (as decoded objects, charged one page each), in-place value
// updates when the new value fits, leaf splits on overflow, and
// overflow-page chains for values larger than a quarter page (holistic
// window buckets grow far beyond a page). Deletes remove entries without
// rebalancing: an emptied leaf stays linked and later inserts in its key
// range refill it. Node pages never return to the free list; only overflow
// pages do. This matches BerkeleyDB's lazy reclamation behaviour closely
// enough for benchmarking.
//
// Write-back model: the pool is a write-back cache whose budget is the
// store's only memory bound, as BerkeleyDB's own cache is. A mutated node
// keeps the pin on its pool frame until it is written back, so it is
// charged to the pool and cannot be evicted: the pool always holds the
// page's current bytes. Dirty pages are written back, and unpinned, on
// Flush(), Checkpoint() and Close(), and when the pool is under pressure:
// the first call after the pool had to admit a frame over budget because
// every frame in a shard was pinned (BufferPool::overshoots()) writes back
// this store's whole dirty set. A tree that fits the pool writes nothing
// until it is flushed.
// Crash-consistency (journaling) is out of scope — the paper benchmarks the
// storage engine data path, not transactional recovery (DESIGN.md §2).
#ifndef GADGET_STORES_BTREE_BTREE_STORE_H_
#define GADGET_STORES_BTREE_BTREE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/kvstore.h"

namespace gadget {

// The tree has no log: its pages are durable only after Flush(),
// Checkpoint() or Close(), so OpenStore refuses StoreOptions::sync_writes
// for it.
struct BTreeOptions {
  uint32_t page_size = 4096;
  // Page residency, dirty pages included, is bounded by the BufferPool
  // passed to Open (sized by StoreOptions::buffer_pool), not per-store.
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
  // admitted to the pool); readahead/checksums do not apply to the page file.
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

  // Introspection for tests.
  uint32_t height() const;
  uint64_t num_pages() const;
  // Walks the whole tree checking ordering + structure invariants.
  Status CheckInvariants();

 private:
  // In-memory (parsed) page representation.
  struct ValueRef {
    std::string inline_data;     // used when overflow_head == 0
    uint32_t overflow_head = 0;  // first overflow page, 0 = inline
    uint32_t total_len = 0;      // full value length when overflowed
  };
  struct Node {
    bool leaf = true;
    std::vector<std::string> keys;
    std::vector<ValueRef> values;     // leaf: parallel to keys
    std::vector<uint32_t> children;   // internal: keys.size() + 1 entries
    uint32_t next_leaf = 0;
    // Serialized size, kept current by every insert, replace, erase and
    // split so the overflow check never rescans the node.
    size_t bytes = 0;
    // Serialized size of entry i: keys[i] with its value (leaf) or its right
    // child (internal).
    size_t EntryBytes(size_t i) const;
    // Recomputes the serialized size from scratch.
    size_t SerializedSize() const;
  };
  // A node fetched for one operation. `pin` holds its pool frame, which
  // keeps `node` alive and resident; a fill_cache=false miss is never
  // admitted, so `uncached` owns that node instead and `pin` is empty.
  struct NodeRef {
    uint32_t page_id = 0;
    Node* node = nullptr;
    PinnedBlock pin;
    std::unique_ptr<Node> uncached;
  };

  BTreeStore(std::string dir, const BTreeOptions& opts, std::shared_ptr<BufferPool> pool);

  Status Recover();

  // --- page cache (mu_ held) ---
  // The pool, then disk. A dirty page is pinned, so the pool always has it.
  // `fill_cache` = false skips pool admission on a miss.
  StatusOr<NodeRef> FetchNode(uint32_t page_id, bool fill_cache = true) REQUIRES(mu_);
  // Registers a mutated node in dirty_, which keeps the node's pin
  // (idempotent: a page already dirty keeps its first pin).
  void MarkDirty(NodeRef* ref) REQUIRES(mu_);
  // Admits a freshly created page to the pool, pinned and dirty (splits,
  // new roots).
  void InstallNode(uint32_t page_id, std::shared_ptr<Node> node) REQUIRES(mu_);
  // Writes every dirty node to the page file and unpins it (no sync).
  Status WriteBackDirtyLocked() REQUIRES(mu_);
  // Full write-back once the pool has overshot its budget since this store
  // last looked: the dirty set's pins are what keep the pool over budget.
  Status MaybeWriteBackLocked() REQUIRES(mu_);
  Status WriteNode(uint32_t page_id, const Node& node) REQUIRES(mu_);
  StatusOr<Node> ReadNode(uint32_t page_id) REQUIRES(mu_);
  uint32_t AllocPage() REQUIRES(mu_);
  void FreePage(uint32_t page_id) REQUIRES(mu_);
  Status PersistMeta() REQUIRES(mu_);
  // Flush body shared by Flush() and Checkpoint(): write-back every dirty
  // page, persist the meta page, fdatasync the file.
  Status FlushLocked() REQUIRES(mu_);

  // --- tree ops (mu_ held) ---
  Status GetLocked(std::string_view key, std::string* value, bool fill_cache = true)
      REQUIRES(mu_);
  Status PutLocked(std::string_view key, std::string_view value) REQUIRES(mu_);
  Status DeleteLocked(std::string_view key) REQUIRES(mu_);
  Status RmwLocked(std::string_view key, std::string_view operand) REQUIRES(mu_);
  // Descends to the leaf for `key` and returns it. Writers pass `path`, which
  // receives the internal nodes passed (page ids + child indices) for split
  // propagation; readers pass nullptr.
  struct PathEntry {
    uint32_t page_id;
    size_t child_index;
  };
  StatusOr<NodeRef> DescendToLeaf(std::string_view key, std::vector<PathEntry>* path,
                                  bool fill_cache = true) REQUIRES(mu_);
  // Splits `node` (dirty, so its pin in dirty_ keeps it alive) while it
  // overflows its page, carrying separators up the path DescendToLeaf left
  // in path_.
  Status SplitAndInsert(uint32_t page_id, Node* node) REQUIRES(mu_);

  // --- overflow values (mu_ held) ---
  StatusOr<ValueRef> StoreValue(std::string_view value) REQUIRES(mu_);
  Status LoadValue(const ValueRef& ref, std::string* out) REQUIRES(mu_);
  void ReleaseValue(const ValueRef& ref) REQUIRES(mu_);

  // --- raw page I/O (mu_ held: they use fd_) ---
  Status ReadPageRaw(uint32_t page_id, std::string* out) REQUIRES(mu_);
  Status WritePageRaw(uint32_t page_id, std::string_view data) REQUIRES(mu_);

  std::string SerializeNode(const Node& node) const;
  StatusOr<Node> DeserializeNode(std::string_view data) const;

  const std::string dir_;
  const BTreeOptions opts_;
  // Shared (or private when Open got nullptr) page residency: parsed nodes
  // are cached as decoded objects, one page of charge each. Never null.
  const std::shared_ptr<BufferPool> pool_;
  uint64_t pool_file_id_ = 0;  // this store's namespace within the pool

  mutable Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  uint32_t root_ GUARDED_BY(mu_) = 0;
  uint32_t next_page_ GUARDED_BY(mu_) = 1;  // page 0 is the meta page
  // Singly-linked free list threaded through pages.
  uint32_t free_head_ GUARDED_BY(mu_) = 0;
  uint32_t height_ GUARDED_BY(mu_) = 1;

  // Mutated nodes not yet written back, each holding its frame's pin.
  std::unordered_map<uint32_t, PinnedBlock> dirty_ GUARDED_BY(mu_);
  // pool_->overshoots() when this store last checked it.
  uint64_t overshoots_seen_ GUARDED_BY(mu_) = 0;
  // The current writer's descent, reused across operations.
  std::vector<PathEntry> path_ GUARDED_BY(mu_);

  StoreStats stats_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace gadget

#endif  // GADGET_STORES_BTREE_BTREE_STORE_H_
