#include "src/stores/btree/btree_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_set>

#include "src/common/coding.h"
#include "src/common/file_util.h"

namespace gadget {
namespace {

// Meta page (page 0): magic, root, next page, free-list head, height, page
// format, page size. Format 2 is the slotted page (page.h); the decoded-node
// files before it have 0 where the format goes.
constexpr uint32_t kMetaMagic = 0x42545245;  // "BTRE"
constexpr uint32_t kPageFormat = 2;

std::string TreePath(const std::string& dir) { return dir + "/btree.db"; }

}  // namespace

// -------------------------------------------------------------------- admin

BTreeStore::BTreeStore(std::string dir, const BTreeOptions& opts,
                       std::shared_ptr<BufferPool> pool)
    : dir_(std::move(dir)),
      opts_(opts),
      pool_(pool != nullptr ? std::move(pool) : std::make_shared<BufferPool>()) {
  pool_file_id_ = pool_->NewFileId();
}

// status intentionally ignored: destructors cannot propagate errors; callers
// that care about durability call Close() explicitly and check.
BTreeStore::~BTreeStore() { (void)Close(); }

StatusOr<std::unique_ptr<KVStore>> BTreeStore::Open(const std::string& dir,
                                                    const BTreeOptions& opts,
                                                    std::shared_ptr<BufferPool> pool) {
  if (opts.page_size < kMinPageSize || opts.page_size > kMaxPageSize) {
    return Status::InvalidArgument("btree page_size " + std::to_string(opts.page_size) +
                                   " outside [" + std::to_string(kMinPageSize) + ", " +
                                   std::to_string(kMaxPageSize) + "]");
  }
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<BTreeStore> store(new BTreeStore(dir, opts, std::move(pool)));
  GADGET_RETURN_IF_ERROR(store->Recover());
  return std::unique_ptr<KVStore>(std::move(store));
}

Status BTreeStore::Recover() {
  MutexLock lock(&mu_);
  overshoots_seen_ = pool_->overshoots();
  scratch_.assign(opts_.page_size, '\0');
  const std::string path = TreePath(dir_);
  bool fresh = !FileExists(path);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  if (fresh) {
    root_ = 1;
    next_page_ = 2;
    free_head_ = 0;
    height_ = 1;
    std::string root(opts_.page_size, '\0');
    View(root.data()).Init(kLeafPage, 0);
    GADGET_RETURN_IF_ERROR(WritePageRaw(root_, root.data()));
    return PersistMeta();
  }
  auto file_size = FileSize(path);
  if (!file_size.ok()) {
    return file_size.status();
  }
  if (*file_size < opts_.page_size) {
    return Status::Corruption(path + ": shorter than its meta page");
  }
  // The meta page's I/O is not counted in io_bytes_*, which count pages.
  std::string meta(opts_.page_size, '\0');
  GADGET_RETURN_IF_ERROR(PreadAll(fd_, meta.data(), meta.size(), 0));
  const uint32_t format = DecodeFixed32(meta.data() + 20);
  if (DecodeFixed32(meta.data()) != kMetaMagic || format != kPageFormat) {
    return Status::Corruption(path + ": not a btree page file of format " +
                              std::to_string(kPageFormat) + " (format " + std::to_string(format) +
                              ")");
  }
  const uint32_t page_size = DecodeFixed32(meta.data() + 24);
  if (page_size != opts_.page_size) {
    return Status::InvalidArgument(path + ": pages of " + std::to_string(page_size) +
                                   " bytes, opened with " + std::to_string(opts_.page_size));
  }
  root_ = DecodeFixed32(meta.data() + 4);
  next_page_ = DecodeFixed32(meta.data() + 8);
  free_head_ = DecodeFixed32(meta.data() + 12);
  height_ = DecodeFixed32(meta.data() + 16);
  // Every page below next_page_ was written before the meta page was, and a
  // tree of height h has at least h pages.
  if (static_cast<uint64_t>(next_page_) * opts_.page_size > *file_size || root_ == 0 ||
      root_ >= next_page_ || free_head_ >= next_page_ || height_ == 0 || height_ >= next_page_) {
    return Status::Corruption(path + ": meta page out of range of the file");
  }
  return Status::Ok();
}

Status BTreeStore::PersistMeta() {
  std::string meta;
  PutFixed32(&meta, kMetaMagic);
  PutFixed32(&meta, root_);
  PutFixed32(&meta, next_page_);
  PutFixed32(&meta, free_head_);
  PutFixed32(&meta, height_);
  PutFixed32(&meta, kPageFormat);
  PutFixed32(&meta, opts_.page_size);
  meta.resize(opts_.page_size, '\0');
  return PwriteAll(fd_, meta.data(), meta.size(), 0);
}

Status BTreeStore::CheckKeySize(std::string_view key) const {
  if (key.size() > max_key_bytes()) {
    return Status::InvalidArgument("btree key of " + std::to_string(key.size()) +
                                   " bytes; pages of " + std::to_string(opts_.page_size) +
                                   " bytes take at most " + std::to_string(max_key_bytes()));
  }
  return Status::Ok();
}

// --------------------------------------------------------------- page cache

Status BTreeStore::ReadPageRaw(uint32_t page_id, char* out) {
  stats_.io_bytes_read += opts_.page_size;
  return PreadAll(fd_, out, opts_.page_size, static_cast<uint64_t>(page_id) * opts_.page_size);
}

Status BTreeStore::WritePageRaw(uint32_t page_id, const char* data) {
  stats_.io_bytes_written += opts_.page_size;
  return PwriteAll(fd_, data, opts_.page_size, static_cast<uint64_t>(page_id) * opts_.page_size);
}

StatusOr<BTreeStore::PageRef> BTreeStore::FetchPage(uint32_t page_id, bool fill_cache) {
  PageRef ref;
  ref.page_id = page_id;
  ref.page = DirtyPageOrNull(page_id);
  if (ref.page != nullptr) {
    ++dirty_hits_;
    return ref;
  }
  ref.pin = pool_->Lookup(pool_file_id_, page_id);
  if (ref.pin && ref.pin.object() != nullptr) {
    ref.page = static_cast<char*>(ref.pin.object().get());
    return ref;
  }
  if (page_id == 0 || page_id >= next_page_) {
    return Status::Corruption(TreePath(dir_) + ": page id " + std::to_string(page_id) +
                              " outside the tree's " + std::to_string(next_page_) + " pages");
  }
  auto bytes = std::make_shared<char[]>(opts_.page_size);
  GADGET_RETURN_IF_ERROR(ReadPageRaw(page_id, bytes.get()));
  const Status check = CheckBTreePage({bytes.get(), opts_.page_size});
  if (!check.ok()) {
    return Status::Corruption(TreePath(dir_) + ": page " + std::to_string(page_id) + ": " +
                              check.message());
  }
  if (fill_cache) {
    ref.pin = pool_->Insert(pool_file_id_, page_id, nullptr, std::move(bytes), opts_.page_size);
    ref.page = static_cast<char*>(ref.pin.object().get());
  } else {
    ref.page = bytes.get();
    ref.uncached = std::move(bytes);
  }
  return ref;
}

void BTreeStore::MarkDirty(PageRef* ref) {
  const size_t chunk = ref->page_id >> kDirtyChunkShift;
  if (chunk >= dirty_.size()) {
    dirty_.resize(chunk + 1);
  }
  if (dirty_[chunk] == nullptr) {
    dirty_[chunk] = std::make_unique<DirtyChunk>();
  }
  DirtyPage& dirty = (*dirty_[chunk])[ref->page_id & (kDirtyChunkPages - 1)];
  if (dirty.page == nullptr) {
    // Writers fetch with fill_cache, so a page not yet dirty comes with a
    // pin to keep.
    dirty.page = ref->page;
    dirty.pin = std::move(ref->pin);
  }
}

char* BTreeStore::InstallPage(uint32_t page_id) {
  PageRef ref;
  ref.page_id = page_id;
  ref.pin = pool_->Insert(pool_file_id_, page_id, nullptr,
                          std::make_shared<char[]>(opts_.page_size), opts_.page_size);
  ref.page = static_cast<char*>(ref.pin.object().get());
  MarkDirty(&ref);
  return ref.page;
}

Status BTreeStore::WriteBackDirtyLocked() {
  for (size_t chunk = 0; chunk < dirty_.size(); ++chunk) {
    if (dirty_[chunk] == nullptr) {
      continue;
    }
    for (uint32_t i = 0; i < kDirtyChunkPages; ++i) {
      DirtyPage& dirty = (*dirty_[chunk])[i];
      if (dirty.page == nullptr) {
        continue;
      }
      const auto page_id = static_cast<uint32_t>(chunk << kDirtyChunkShift | i);
      GADGET_RETURN_IF_ERROR(WritePageRaw(page_id, dirty.page));
      ++stats_.flushes;
      dirty.page = nullptr;
      dirty.pin.Release();
    }
    dirty_[chunk].reset();
  }
  return Status::Ok();
}

Status BTreeStore::MaybeWriteBackLocked() {
  const uint64_t overshoots = pool_->overshoots();
  if (overshoots == overshoots_seen_) {
    return Status::Ok();
  }
  overshoots_seen_ = overshoots;
  return WriteBackDirtyLocked();
}

StatusOr<uint32_t> BTreeStore::AllocOverflowPage() {
  if (free_head_ == 0) {
    return next_page_++;
  }
  // Pop from the free list: the page's first 4 bytes hold the next id.
  const uint32_t page = free_head_;
  std::string raw(opts_.page_size, '\0');
  GADGET_RETURN_IF_ERROR(ReadPageRaw(page, raw.data()));
  const uint32_t next = DecodeFixed32(raw.data());
  if (next >= next_page_ || next == page || DirtyPageOrNull(page) != nullptr ||
      DirtyPageOrNull(next) != nullptr) {
    return Status::Corruption(TreePath(dir_) + ": free page " + std::to_string(page) +
                              " links to page " + std::to_string(next) + " of " +
                              std::to_string(next_page_));
  }
  free_head_ = next;
  return page;
}

Status BTreeStore::FreePage(uint32_t page_id) {
  // Thread onto the free list. Only overflow pages are freed, and they never
  // enter the pool.
  std::string raw;
  PutFixed32(&raw, free_head_);
  raw.resize(opts_.page_size, '\0');
  GADGET_RETURN_IF_ERROR(WritePageRaw(page_id, raw.data()));
  free_head_ = page_id;
  return Status::Ok();
}

// ---------------------------------------------------------- overflow values

StatusOr<uint32_t> BTreeStore::StoreOverflow(std::string_view value) {
  // Chain of overflow pages: u32 next | u32 chunk_len | bytes.
  const size_t chunk_cap = opts_.page_size - 8;
  uint32_t head = 0;
  uint32_t prev_page = 0;
  std::string page;
  for (size_t offset = 0; offset < value.size();) {
    size_t chunk = std::min(chunk_cap, value.size() - offset);
    auto alloc = AllocOverflowPage();
    if (!alloc.ok()) {
      return alloc.status();
    }
    const uint32_t page_id = *alloc;
    page.clear();
    PutFixed32(&page, 0);  // next; patched by the following iteration
    PutFixed32(&page, static_cast<uint32_t>(chunk));
    page.append(value.data() + offset, chunk);
    page.resize(opts_.page_size, '\0');
    GADGET_RETURN_IF_ERROR(WritePageRaw(page_id, page.data()));
    if (prev_page == 0) {
      head = page_id;
    } else {
      // Patch the previous page's next pointer.
      std::string next_bytes;
      PutFixed32(&next_bytes, page_id);
      GADGET_RETURN_IF_ERROR(PwriteAll(fd_, next_bytes.data(), 4,
                                       static_cast<uint64_t>(prev_page) * opts_.page_size));
    }
    prev_page = page_id;
    offset += chunk;
  }
  return head;
}

Status BTreeStore::LoadValue(const BTreePage& leaf, size_t i, std::string* out) {
  if (!leaf.overflowed(i)) {
    out->assign(leaf.inline_value(i));
    return Status::Ok();
  }
  return WalkChain(leaf, i, out, nullptr);
}

Status BTreeStore::WalkChain(const BTreePage& leaf, size_t i, std::string* value,
                             std::vector<uint32_t>* pages) {
  const uint32_t length = leaf.overflow_length(i);
  const uint64_t max_pages = ChainPages(length);
  if (max_pages > next_page_) {
    return Status::Corruption(TreePath(dir_) + ": overflow value longer than the page file");
  }
  if (value != nullptr) {
    value->clear();
    value->reserve(length);
  }
  if (pages != nullptr) {
    pages->reserve(max_pages);
  }
  std::string raw(opts_.page_size, '\0');
  uint64_t total = 0;
  uint32_t page_id = leaf.overflow_head(i);
  // A chain that reaches a page twice loops and never ends, so the page
  // bound also keeps a page from being listed twice.
  for (uint64_t n = 0; page_id != 0; ++n) {
    // Overflow pages never enter the pool, so a dirty page is a node page.
    if (n == max_pages || page_id >= next_page_ || DirtyPageOrNull(page_id) != nullptr) {
      return Status::Corruption(TreePath(dir_) + ": overflow chain links to page " +
                                std::to_string(page_id) + " of " + std::to_string(next_page_));
    }
    GADGET_RETURN_IF_ERROR(ReadPageRaw(page_id, raw.data()));
    const uint32_t chunk = DecodeFixed32(raw.data() + 4);
    if (chunk > opts_.page_size - 8) {
      return Status::Corruption(TreePath(dir_) + ": bad overflow chunk in page " +
                                std::to_string(page_id));
    }
    if (value != nullptr) {
      value->append(raw.data() + 8, chunk);
    }
    if (pages != nullptr) {
      pages->push_back(page_id);
    }
    total += chunk;
    page_id = DecodeFixed32(raw.data());
  }
  if (total != length) {
    return Status::Corruption(TreePath(dir_) + ": overflow chain length mismatch");
  }
  return Status::Ok();
}

Status BTreeStore::FreeChain(const Status& walk, const std::vector<uint32_t>& pages) {
  GADGET_RETURN_IF_ERROR(walk);
  for (const uint32_t page_id : pages) {
    GADGET_RETURN_IF_ERROR(FreePage(page_id));
  }
  return Status::Ok();
}

// ----------------------------------------------------------------- tree ops

StatusOr<BTreeStore::PageRef> BTreeStore::DescendToLeaf(std::string_view key,
                                                        std::vector<PathEntry>* path,
                                                        bool fill_cache) {
  if (path != nullptr) {
    path->clear();
  }
  auto ref = FetchPage(root_, fill_cache);
  for (uint32_t depth = 1; ref.ok(); ++depth) {
    const BTreePage page = View(ref->page);
    if (page.leaf() != (depth == height_)) {
      return Status::Corruption(TreePath(dir_) + ": page " + std::to_string(ref->page_id) +
                                " at depth " + std::to_string(depth) + " of a tree of height " +
                                std::to_string(height_) +
                                (page.leaf() ? " is a leaf" : " is internal"));
    }
    if (page.leaf()) {
      break;
    }
    const size_t idx = page.UpperBound(key);
    if (path != nullptr) {
      path->push_back(PathEntry{ref->page_id, idx});
    }
    // Unpin the parent before fetching the child: under pool pressure a
    // clean parent is an eviction victim, where a pinned one would make the
    // pool overshoot and force a write-back.
    const uint32_t child = page.child(idx);
    ref->pin.Release();
    ref = FetchPage(child, fill_cache);
  }
  return ref;
}

Status BTreeStore::GetLocked(std::string_view key, std::string* value, bool fill_cache) {
  auto leaf = DescendToLeaf(key, nullptr, fill_cache);
  if (!leaf.ok()) {
    return leaf.status();
  }
  const BTreePage page = View(leaf->page);
  const size_t i = page.Find(key);
  if (i == page.count()) {
    return Status::NotFound();
  }
  return LoadValue(page, i, value);
}

Status BTreeStore::PutLocked(std::string_view key, std::string_view value) {
  // The record after the key: a tag and the value, or the overflow tag and
  // a chain reference.
  char head[10];
  size_t head_size = 2;
  std::string_view body;
  if (value.size() <= MaxInlineValue(opts_.page_size)) {
    const auto tag = static_cast<uint16_t>(value.size());
    std::memcpy(head, &tag, 2);
    body = value;
  } else {
    auto chain = StoreOverflow(value);
    if (!chain.ok()) {
      return chain.status();
    }
    const uint16_t tag = kOverflowTag;
    const uint32_t length = static_cast<uint32_t>(value.size());
    std::memcpy(head, &tag, 2);
    std::memcpy(head + 2, &*chain, 4);
    std::memcpy(head + 6, &length, 4);
    head_size = 10;
  }
  const PageEntry entry{key, {head, head_size}, body};
  // The chain of the value this Put replaces, walked before its slot
  // changes and freed once the slot no longer names it.
  std::vector<uint32_t> old_chain;
  Status old_walk;
  // A leaf split that cannot put the entry beside either half splits at its
  // slot, which leaves room at the end of the left half: the second
  // descent places it.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto leaf = DescendToLeaf(key, &path_);
    if (!leaf.ok()) {
      return leaf.status();
    }
    MarkDirty(&*leaf);
    BTreePage page = View(leaf->page);
    const size_t i = page.LowerBound(key);
    if (i < page.count() && page.key(i) == key) {
      if (page.overflowed(i)) {
        old_walk = WalkChain(page, i, nullptr, &old_chain);
      }
      if (page.Overwrite(i, entry.head, entry.body)) {
        return FreeChain(old_walk, old_chain);
      }
      page.Erase(i);
    }
    auto placed = InsertLeafEntry(page, i, entry);
    if (!placed.ok()) {
      return placed.status();
    }
    if (*placed) {
      return FreeChain(old_walk, old_chain);
    }
  }
  return Status::Corruption(TreePath(dir_) + ": no leaf takes a key of " +
                            std::to_string(key.size()) + " bytes");
}

StatusOr<bool> BTreeStore::InsertLeafEntry(BTreePage page, size_t i, const PageEntry& e) {
  if (page.Insert(i, e, &scratch_)) {
    return true;
  }
  // k == 0: no split puts `e` beside either half; split at its slot instead.
  const size_t k = page.SplitPoint(i, kSlotSize + e.record_size(), /*promote=*/false);
  const size_t j = k == 0 ? i : (k <= i ? k : k - 1);
  const uint32_t right_id = next_page_++;
  BTreePage right = View(InstallPage(right_id));
  page.MoveTail(j, /*promote=*/false, &right, nullptr, &scratch_);
  right.set_link(page.link());
  page.set_link(right_id);
  if (k != 0 && !(k <= i ? right.Insert(i - j, e, &scratch_) : page.Insert(i, e, &scratch_))) {
    return Status::Corruption(TreePath(dir_) + ": leaf split left no room");
  }
  if (right.count() == 0) {
    return Status::Corruption(TreePath(dir_) + ": leaf split left an empty page");
  }
  GADGET_RETURN_IF_ERROR(InsertIntoParent(std::string(right.key(0)), right_id));
  return k != 0;
}

Status BTreeStore::InsertIntoParent(std::string separator, uint32_t right_id) {
  std::string promoted;
  char child[4];
  for (;;) {
    std::memcpy(child, &right_id, 4);
    const PageEntry e{separator, {child, 4}, {}};
    if (path_.empty()) {
      // The root split: grow a new root above the two halves.
      const uint32_t root_id = next_page_++;
      BTreePage root = View(InstallPage(root_id));
      root.Init(kInternalPage, root_);
      if (!root.Insert(0, e, &scratch_)) {
        return Status::Corruption(TreePath(dir_) + ": separator does not fit a new root");
      }
      root_ = root_id;
      ++height_;
      return PersistMeta();
    }
    const PathEntry parent = path_.back();
    path_.pop_back();
    auto parent_ref = FetchPage(parent.page_id);
    if (!parent_ref.ok()) {
      return parent_ref.status();
    }
    MarkDirty(&*parent_ref);
    BTreePage page = View(parent_ref->page);
    const size_t i = parent.child_index;
    // Only a free list that hands out a live page (a corrupt file) can have
    // rewritten the parent since the descent.
    if (page.leaf() || i > page.count()) {
      return Status::Corruption(TreePath(dir_) + ": parent page " +
                                std::to_string(parent.page_id) + " changed under a split");
    }
    if (page.Insert(i, e, &scratch_)) {
      return Status::Ok();
    }
    // The parent splits in turn around a promoted key: the new separator
    // itself (k == i) or one of the parent's.
    const size_t k = page.SplitPoint(i, kSlotSize + e.record_size(), /*promote=*/true);
    if (k == 0) {
      return Status::Corruption(TreePath(dir_) + ": internal page " +
                                std::to_string(parent.page_id) + " cannot split");
    }
    const uint32_t new_right = next_page_++;
    BTreePage right = View(InstallPage(new_right));
    bool placed = true;
    if (k == i) {
      page.MoveTail(i, /*promote=*/false, &right, nullptr, &scratch_);
      right.set_link(right_id);
    } else {
      page.MoveTail(k < i ? k : k - 1, /*promote=*/true, &right, &promoted, &scratch_);
      placed = k < i ? right.Insert(i - k - 1, e, &scratch_) : page.Insert(i, e, &scratch_);
      separator.swap(promoted);
    }
    if (!placed || page.count() == 0 || right.count() == 0) {
      return Status::Corruption(TreePath(dir_) + ": internal split left a page without room");
    }
    right_id = new_right;
  }
}

Status BTreeStore::DeleteLocked(std::string_view key) {
  auto leaf = DescendToLeaf(key, nullptr);
  if (!leaf.ok()) {
    return leaf.status();
  }
  BTreePage page = View(leaf->page);
  const size_t i = page.Find(key);
  if (i == page.count()) {
    return Status::Ok();  // blind delete of a missing key is a no-op
  }
  std::vector<uint32_t> chain;
  Status walk;
  if (page.overflowed(i)) {
    walk = WalkChain(page, i, nullptr, &chain);
  }
  page.Erase(i);
  MarkDirty(&*leaf);
  // No rebalancing: an emptied leaf stays linked and later inserts in its
  // key range refill it; its page never returns to the free list (see the
  // header).
  return FreeChain(walk, chain);
}

Status BTreeStore::RmwLocked(std::string_view key, std::string_view operand) {
  std::string value;
  Status s = GetLocked(key, &value);
  if (!s.ok() && !s.IsNotFound()) {
    return s;
  }
  value.append(operand.data(), operand.size());
  return PutLocked(key, value);
}

// ------------------------------------------------------------ public facade

Status BTreeStore::Put(std::string_view key, std::string_view value) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  GADGET_RETURN_IF_ERROR(CheckKeySize(key));
  ++stats_.puts;
  stats_.bytes_written += key.size() + value.size();
  GADGET_RETURN_IF_ERROR(PutLocked(key, value));
  return MaybeWriteBackLocked();
}

Status BTreeStore::Get(std::string_view key, std::string* value, const ReadOptions& options) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.gets;
  Status s = GetLocked(key, value, options.fill_cache);
  if (s.ok()) {
    stats_.bytes_read += value->size();
  }
  // A read can overshoot the pool too: release the dirty pages that fill it.
  GADGET_RETURN_IF_ERROR(MaybeWriteBackLocked());
  return s;
}

Status BTreeStore::Delete(std::string_view key) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.deletes;
  // Accounting contract (kvstore.h): a delete accepts its key bytes.
  stats_.bytes_written += key.size();
  GADGET_RETURN_IF_ERROR(DeleteLocked(key));
  return MaybeWriteBackLocked();
}

Status BTreeStore::ReadModifyWrite(std::string_view key, std::string_view operand) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  GADGET_RETURN_IF_ERROR(CheckKeySize(key));
  ++stats_.rmws;
  stats_.bytes_written += key.size() + operand.size();
  GADGET_RETURN_IF_ERROR(RmwLocked(key, operand));
  return MaybeWriteBackLocked();
}

Status BTreeStore::Write(const WriteBatch& batch) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  // Refuse the whole batch before applying any of it. A delete needs no
  // check: a key too long to store is never there.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch.entry(i).op != WriteBatch::Op::kDelete) {
      GADGET_RETURN_IF_ERROR(CheckKeySize(batch.entry(i).key));
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const WriteBatch::Entry& e = batch.entry(i);
    Status s;
    switch (e.op) {
      case WriteBatch::Op::kPut:
        ++stats_.puts;
        stats_.bytes_written += e.key.size() + e.value.size();
        s = PutLocked(e.key, e.value);
        break;
      case WriteBatch::Op::kMerge:
        // No native merge: a batched merge is an eager RMW, same as the
        // single-op fallback path and counted identically.
        ++stats_.rmws;
        stats_.bytes_written += e.key.size() + e.value.size();
        s = RmwLocked(e.key, e.value);
        break;
      case WriteBatch::Op::kDelete:
        ++stats_.deletes;
        stats_.bytes_written += e.key.size();
        s = DeleteLocked(e.key);
        break;
    }
    GADGET_RETURN_IF_ERROR(s);
  }
  NoteBatch(batch.size());
  return MaybeWriteBackLocked();
}

Status BTreeStore::MultiGet(const std::vector<std::string>& keys,
                            std::vector<std::string>* values, std::vector<Status>* statuses,
                            const ReadOptions& options) {
  values->resize(keys.size());
  MutexLock lock(&mu_);
  if (closed_) {
    const Status closed = Status::Internal("store is closed");
    statuses->assign(keys.size(), closed);
    return closed;
  }
  statuses->assign(keys.size(), Status::Ok());
  Status first_error;
  for (size_t i = 0; i < keys.size(); ++i) {
    ++stats_.gets;
    Status s = GetLocked(keys[i], &(*values)[i], options.fill_cache);
    if (s.ok()) {
      stats_.bytes_read += (*values)[i].size();
    } else if (!s.IsNotFound() && first_error.ok()) {
      first_error = s;
    }
    (*statuses)[i] = std::move(s);
  }
  NoteBatch(keys.size());
  GADGET_RETURN_IF_ERROR(MaybeWriteBackLocked());
  return first_error;
}

Status BTreeStore::FlushLocked() {
  GADGET_RETURN_IF_ERROR(WriteBackDirtyLocked());
  GADGET_RETURN_IF_ERROR(PersistMeta());
  return SyncData(fd_, TreePath(dir_));
}

Status BTreeStore::Flush() {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Ok();
  }
  return FlushLocked();
}

StatusOr<CheckpointInfo> BTreeStore::Checkpoint(const std::string& dir,
                                                const CheckpointOptions& options) {
  (void)options;  // the page file mutates in place: nothing to reuse
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  auto names = ListDir(dir);
  if (!names.ok()) {
    return names.status();
  }
  if (!names->empty()) {
    return Status::InvalidArgument("checkpoint dir not empty: " + dir);
  }
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  GADGET_RETURN_IF_ERROR(FlushLocked());
  GADGET_RETURN_IF_ERROR(CopyFile(TreePath(dir_), TreePath(dir), /*sync=*/true));
  GADGET_RETURN_IF_ERROR(SyncDir(dir));
  auto size = FileSize(TreePath(dir));
  if (!size.ok()) {
    return size.status();
  }
  CheckpointInfo info;
  info.bytes = *size;
  info.files = 1;
  return info;
}

Status BTreeStore::Close() {
  {
    MutexLock lock(&mu_);
    if (closed_) {
      return Status::Ok();
    }
  }
  Status s = Flush();
  MutexLock lock(&mu_);
  closed_ = true;
  // Drop this store's pages from the shared pool so a long-lived pool does
  // not pin budget for a closed store.
  pool_->EraseFile(pool_file_id_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return s;
}

StoreStats BTreeStore::stats() const {
  MutexLock lock(&mu_);
  StoreStats out = stats_;
  FoldBatchStats(&out);
  // Pool-wide totals (the pool may be shared across stores; see kvstore.h),
  // plus the fetches this store's dirty pages served without the pool.
  out.cache_hits = pool_->hits() + dirty_hits_;
  out.cache_misses = pool_->misses();
  out.cache_evictions = pool_->evictions();
  out.cache_pins = pool_->pins();
  out.io_batches = pool_->io().batches();
  out.io_in_flight_max = pool_->io().in_flight_max();
  return out;
}

uint32_t BTreeStore::height() const {
  MutexLock lock(&mu_);
  return height_;
}

uint64_t BTreeStore::num_pages() const {
  MutexLock lock(&mu_);
  return next_page_;
}

Status BTreeStore::CheckInvariants() {
  MutexLock lock(&mu_);
  // Depth-first walk verifying (a) each page's layout, (b) separator bounds,
  // (c) leaves exactly at depth height_, (d) no page reached twice, which
  // also ends the walk on a child cycle.
  struct Item {
    uint32_t page_id;
    uint32_t depth;
    std::string low;
    std::string high;  // empty = unbounded
    bool has_high;
  };
  std::vector<Item> stack{{root_, 1, "", "", false}};
  std::unordered_set<uint32_t> seen;
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    const std::string where = TreePath(dir_) + ": page " + std::to_string(item.page_id);
    if (!seen.insert(item.page_id).second) {
      return Status::Corruption(where + " reached twice");
    }
    auto ref = FetchPage(item.page_id);
    if (!ref.ok()) {
      return ref.status();
    }
    // A miss checked the page as it was read; a hit may hold edits since.
    const Status layout = CheckBTreePage({ref->page, opts_.page_size});
    if (!layout.ok()) {
      return Status::Corruption(where + ": " + layout.message());
    }
    const BTreePage page = View(ref->page);
    if (page.leaf() != (item.depth == height_)) {
      return Status::Corruption(where + " at depth " + std::to_string(item.depth) +
                                " of a tree of height " + std::to_string(height_));
    }
    const size_t n = page.count();
    // Keys are in order (the page check), so the extremes bound them all.
    if (n > 0 && (page.key(0) < item.low || (item.has_high && page.key(n - 1) >= item.high))) {
      return Status::Corruption(where + ": key outside separator bounds");
    }
    if (page.leaf()) {
      continue;
    }
    for (size_t c = 0; c <= n; ++c) {
      Item child;
      child.page_id = page.child(c);
      child.depth = item.depth + 1;
      child.low = c == 0 ? item.low : std::string(page.key(c - 1));
      if (c < n) {
        child.high = std::string(page.key(c));
        child.has_high = true;
      } else {
        child.high = item.high;
        child.has_high = item.has_high;
      }
      stack.push_back(std::move(child));
    }
  }
  return Status::Ok();
}

}  // namespace gadget
