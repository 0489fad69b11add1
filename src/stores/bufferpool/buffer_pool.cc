#include "src/stores/bufferpool/buffer_pool.h"

#include <utility>

namespace gadget {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

// --- PinnedBlock ------------------------------------------------------------

PinnedBlock::PinnedBlock(PinnedBlock&& other) noexcept
    : pool_(other.pool_), shard_(other.shard_), frame_(std::move(other.frame_)) {
  other.pool_ = nullptr;
  other.frame_.reset();
}

PinnedBlock& PinnedBlock::operator=(PinnedBlock&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = std::move(other.frame_);
    other.pool_ = nullptr;
    other.frame_.reset();
  }
  return *this;
}

PinnedBlock::~PinnedBlock() { Release(); }

void PinnedBlock::Release() {
  if (frame_ != nullptr) {
    pool_->Unpin(shard_, frame_.get());
    frame_.reset();
    pool_ = nullptr;
  }
}

// --- BufferPool -------------------------------------------------------------

BufferPool::BufferPool(const BufferPoolOptions& options)
    : options_(options),
      capacity_(options.capacity_bytes),
      shards_(RoundUpPow2(options.shards < 1 ? 1 : static_cast<size_t>(options.shards))),
      io_(options.io_threads, options.use_io_uring) {
  shard_mask_ = shards_.size() - 1;
  capacity_per_shard_ = capacity_ / shards_.size();
  for (Shard& s : shards_) {
    MutexLock lock(&s.mu);
    s.hand = s.cold.end();
  }
}

BufferPool::~BufferPool() = default;

PinnedBlock BufferPool::Lookup(uint64_t file_id, uint64_t offset) {
  Shard& s = ShardFor(file_id, offset);
  size_t shard_index = static_cast<size_t>(&s - shards_.data());
  MutexLock lock(&s.mu);
  auto it = s.map.find(Key{file_id, offset});
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return PinnedBlock();
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  pins_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<Frame> f = it->second;
  ++f->pins;
  TouchLocked(s, f);
  return PinnedBlock(this, shard_index, std::move(f));
}

PinnedBlock BufferPool::Insert(uint64_t file_id, uint64_t offset,
                               std::shared_ptr<const std::string> data,
                               std::shared_ptr<void> object, size_t charge) {
  Shard& s = ShardFor(file_id, offset);
  size_t shard_index = static_cast<size_t>(&s - shards_.data());
  MutexLock lock(&s.mu);
  auto it = s.map.find(Key{file_id, offset});
  if (it != s.map.end()) {
    // Repin the existing frame; fill in whichever representation it lacks
    // (a raw block can gain its decoded object and vice versa).
    std::shared_ptr<Frame> f = it->second;
    if (f->data == nullptr && data != nullptr) {
      f->data = std::move(data);
    }
    if (f->object == nullptr && object != nullptr) {
      f->object = std::move(object);
    }
    pins_.fetch_add(1, std::memory_order_relaxed);
    ++f->pins;
    TouchLocked(s, f);
    return PinnedBlock(this, shard_index, std::move(f));
  }
  if (!EvictForLocked(s, charge)) {
    overshoots_.fetch_add(1, std::memory_order_relaxed);
  }
  auto f = std::make_shared<Frame>();
  f->file = file_id;
  f->offset = offset;
  f->data = std::move(data);
  f->object = std::move(object);
  f->charge = charge;
  f->pins = 1;
  s.cold.push_back(f);
  f->pos = std::prev(s.cold.end());
  if (s.hand == s.cold.end()) {
    s.hand = f->pos;
  }
  s.map.emplace(Key{file_id, offset}, f);
  s.bytes += charge;
  pins_.fetch_add(1, std::memory_order_relaxed);
  return PinnedBlock(this, shard_index, std::move(f));
}

PinnedBlock BufferPool::InsertBlock(uint64_t file_id, uint64_t offset, std::string block) {
  size_t charge = block.size();
  auto data = std::make_shared<const std::string>(std::move(block));
  return Insert(file_id, offset, std::move(data), nullptr, charge);
}

void BufferPool::TouchLocked(Shard& s, const std::shared_ptr<Frame>& f) {
  if (options_.eviction == BufferPoolOptions::Eviction::kClock) {
    f->referenced = true;
    return;
  }
  // 2Q: first re-reference promotes out of probation; later ones refresh LRU.
  if (!f->hot) {
    if (s.hand == f->pos) {
      s.hand = std::next(s.hand);
    }
    s.hot.splice(s.hot.begin(), s.cold, f->pos);
    f->hot = true;
  } else {
    s.hot.splice(s.hot.begin(), s.hot, f->pos);
  }
  f->pos = s.hot.begin();
}

void BufferPool::RemoveFrameLocked(Shard& s, const std::shared_ptr<Frame>& f) {
  s.map.erase(Key{f->file, f->offset});
  s.bytes -= f->charge;
  if (f->hot) {
    s.hot.erase(f->pos);
  } else {
    if (s.hand == f->pos) {
      s.hand = std::next(s.hand);
    }
    s.cold.erase(f->pos);
  }
}

bool BufferPool::EvictForLocked(Shard& s, size_t incoming_charge) {
  while (s.bytes + incoming_charge > capacity_per_shard_ && s.bytes > 0) {
    Frame* victim = nullptr;
    if (options_.eviction == BufferPoolOptions::Eviction::kClock) {
      // Second-chance sweep: clear referenced bits, skip pinned frames, give
      // up after two full revolutions (everything pinned or referenced by a
      // racing pin).
      size_t steps = 2 * s.cold.size();
      while (steps-- > 0) {
        if (s.hand == s.cold.end()) {
          s.hand = s.cold.begin();
          if (s.hand == s.cold.end()) {
            break;
          }
        }
        Frame* f = s.hand->get();
        if (f->pins > 0) {
          ++s.hand;
        } else if (f->referenced) {
          f->referenced = false;
          ++s.hand;
        } else {
          victim = f;
          break;
        }
      }
    } else {
      // 2Q: drain probation FIFO first, then the protected LRU tail.
      for (auto it = s.cold.begin(); it != s.cold.end(); ++it) {
        if ((*it)->pins == 0) {
          victim = it->get();
          break;
        }
      }
      if (victim == nullptr) {
        for (auto it = s.hot.rbegin(); it != s.hot.rend(); ++it) {
          if ((*it)->pins == 0) {
            victim = it->get();
            break;
          }
        }
      }
    }
    if (victim == nullptr) {
      return false;  // all pinned: allow the transient capacity overshoot
    }
    // Keep a reference across removal so `victim` stays valid to the end.
    std::shared_ptr<Frame> keep = s.map.at(Key{victim->file, victim->offset});
    RemoveFrameLocked(s, keep);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void BufferPool::Erase(uint64_t file_id, uint64_t offset) {
  Shard& s = ShardFor(file_id, offset);
  MutexLock lock(&s.mu);
  auto it = s.map.find(Key{file_id, offset});
  if (it == s.map.end()) {
    return;
  }
  std::shared_ptr<Frame> f = it->second;
  RemoveFrameLocked(s, f);
  f->doomed = true;  // outstanding pins keep the storage alive
}

void BufferPool::EraseFile(uint64_t file_id) {
  for (Shard& s : shards_) {
    MutexLock lock(&s.mu);
    std::vector<std::shared_ptr<Frame>> doomed;
    for (const auto& [key, frame] : s.map) {
      if (key.file == file_id) {
        doomed.push_back(frame);
      }
    }
    for (const std::shared_ptr<Frame>& f : doomed) {
      RemoveFrameLocked(s, f);
      f->doomed = true;
    }
  }
}

void BufferPool::Unpin(size_t shard_index, Frame* frame) {
  Shard& s = shards_[shard_index];
  MutexLock lock(&s.mu);
  --frame->pins;
  // The last pin on a frame of an overshot shard: give the excess back now
  // rather than at the shard's next Insert. Frames still pinned keep what
  // they hold over budget.
  if (frame->pins == 0 && s.bytes > capacity_per_shard_) {
    EvictForLocked(s, 0);
  }
}

uint64_t BufferPool::usage_bytes() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    MutexLock lock(&s.mu);
    total += s.bytes;
  }
  return total;
}

}  // namespace gadget
