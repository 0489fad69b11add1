// Process-wide sharded buffer pool with pin/unpin frames (DESIGN.md §5h).
//
// Frames are keyed by (file_id, offset) where file ids come from the pool's
// own NewFileId() counter, so any number of stores — LSM tables and btree
// pages alike — can share one pool without colliding. A frame carries either
// raw immutable bytes (SSTable blocks), a type-erased object its owner may
// mutate (a btree page's own bytes, edited in place), or both; `charge` is
// what it counts against capacity.
//
// Pin lifetime rules:
//   - Lookup/Insert return a PinnedBlock; the frame cannot be evicted while
//     any pin is outstanding. Pins are released by the handle's destructor.
//   - Erase/EraseFile on a pinned frame *dooms* it: the frame leaves the
//     table (no new lookups find it, capacity is credited back) but its
//     storage stays alive until the last pin drops. Readers never dangle.
//   - Insert may transiently overshoot capacity when every frame is pinned;
//     eviction only ever removes unpinned frames. Each such admission bumps
//     overshoots(), the signal for owners of long-lived pins (the B+tree's
//     dirty pages) to release them, and the shard gives the excess back as
//     those pins drop.
//
// Eviction is per shard, by clock (second chance).
#ifndef GADGET_STORES_BUFFERPOOL_BUFFER_POOL_H_
#define GADGET_STORES_BUFFERPOOL_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/stores/bufferpool/io_backend.h"

namespace gadget {

struct BufferPoolOptions {
  uint64_t capacity_bytes = 32ull << 20;
  // Number of independently locked shards (rounded up to a power of two).
  int shards = 8;
};

class BufferPool;

namespace bufferpool_internal {
// One cached block/page. All fields are guarded by the owning shard's mutex;
// the struct cannot name it, so the invariant is documented rather than
// annotated (PinnedBlock only touches fields through BufferPool methods).
struct Frame {
  uint64_t file = 0;
  uint64_t offset = 0;
  std::shared_ptr<const std::string> data;  // raw bytes (may be null)
  std::shared_ptr<void> object;             // owner-typed form (may be null)
  size_t charge = 0;
  uint32_t pins = 0;
  bool referenced = false;  // clock second-chance bit
  bool doomed = false;      // erased while pinned; already off the table
  std::list<std::shared_ptr<Frame>>::iterator pos;  // position in the clock ring
};
}  // namespace bufferpool_internal

// Movable RAII pin. While alive, the underlying frame (and its data/object)
// stays valid even if the frame is erased or its file deleted.
class PinnedBlock {
 public:
  PinnedBlock() = default;
  PinnedBlock(PinnedBlock&& other) noexcept;
  PinnedBlock& operator=(PinnedBlock&& other) noexcept;
  PinnedBlock(const PinnedBlock&) = delete;
  PinnedBlock& operator=(const PinnedBlock&) = delete;
  ~PinnedBlock();

  explicit operator bool() const { return frame_ != nullptr; }

  // Raw bytes. Valid only when the frame was inserted with data.
  const std::string& data() const { return *frame_->data; }
  std::shared_ptr<const std::string> data_ptr() const { return frame_->data; }
  bool has_data() const { return frame_ != nullptr && frame_->data != nullptr; }

  // Object slot (callers cast back to the concrete type).
  const std::shared_ptr<void>& object() const { return frame_->object; }

  // Drops the pin early (idempotent).
  void Release();

 private:
  friend class BufferPool;
  PinnedBlock(BufferPool* pool, size_t shard,
              std::shared_ptr<bufferpool_internal::Frame> frame)
      : pool_(pool), shard_(shard), frame_(std::move(frame)) {}

  BufferPool* pool_ = nullptr;
  size_t shard_ = 0;
  std::shared_ptr<bufferpool_internal::Frame> frame_;
};

class BufferPool {
 public:
  explicit BufferPool(const BufferPoolOptions& options = BufferPoolOptions());
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Allocates a pool-unique file id. Every store attaching a file (SSTable,
  // btree page file) claims one, which is what makes the pool shareable.
  uint64_t NewFileId() { return next_file_id_.fetch_add(1, std::memory_order_relaxed); }

  // Returns a pinned handle on hit, an empty handle on miss.
  PinnedBlock Lookup(uint64_t file_id, uint64_t offset);

  // Inserts (or repins an existing frame, refreshing data/object when the
  // frame lacks them) and returns a pinned handle. Evicts unpinned frames as
  // needed to make room; `charge` counts against capacity.
  PinnedBlock Insert(uint64_t file_id, uint64_t offset,
                     std::shared_ptr<const std::string> data, std::shared_ptr<void> object,
                     size_t charge);

  // Raw-bytes convenience: charge = block size.
  PinnedBlock InsertBlock(uint64_t file_id, uint64_t offset, std::string block);

  // Removes one frame / every frame of a file. Pinned frames are doomed (see
  // header comment); unpinned ones are freed immediately.
  void Erase(uint64_t file_id, uint64_t offset);
  void EraseFile(uint64_t file_id);

  IoBackend& io() { return io_; }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t usage_bytes() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  uint64_t pins() const { return pins_.load(std::memory_order_relaxed); }
  // Inserts admitted over budget because every frame in their shard was
  // pinned.
  uint64_t overshoots() const { return overshoots_.load(std::memory_order_relaxed); }

 private:
  friend class PinnedBlock;
  using Frame = bufferpool_internal::Frame;

  struct Key {
    uint64_t file;
    uint64_t offset;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.file * 0x9e3779b97f4a7c15ULL ^ (k.offset + 0x517cc1b7));
    }
  };

  struct Shard {
    mutable Mutex mu;
    std::unordered_map<Key, std::shared_ptr<Frame>, KeyHash> map GUARDED_BY(mu);
    std::list<std::shared_ptr<Frame>> ring GUARDED_BY(mu);  // the clock
    std::list<std::shared_ptr<Frame>>::iterator hand GUARDED_BY(mu);
    uint64_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t file_id, uint64_t offset) {
    return shards_[KeyHash{}(Key{file_id, offset}) & shard_mask_];
  }
  // Evicts unpinned frames until `incoming_charge` fits; false when every
  // remaining frame is pinned and it does not.
  bool EvictForLocked(Shard& s, size_t incoming_charge) REQUIRES(s.mu);
  void RemoveFrameLocked(Shard& s, const std::shared_ptr<Frame>& f) REQUIRES(s.mu);
  void Unpin(size_t shard_index, Frame* frame);

  const uint64_t capacity_;
  uint64_t capacity_per_shard_;
  size_t shard_mask_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> next_file_id_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> pins_{0};
  std::atomic<uint64_t> overshoots_{0};
  IoBackend io_;
};

}  // namespace gadget

#endif  // GADGET_STORES_BUFFERPOOL_BUFFER_POOL_H_
