#include "src/stores/btree/btree_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/coding.h"
#include "src/common/file_util.h"

namespace gadget {
namespace {

constexpr uint32_t kMetaMagic = 0x42545245;  // "BTRE"
constexpr uint8_t kLeafType = 1;
constexpr uint8_t kInternalType = 2;

std::string TreePath(const std::string& dir) { return dir + "/btree.db"; }

Status PwriteAll(int fd, const char* data, size_t n, uint64_t offset) {
  while (n > 0) {
    ssize_t w = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    data += w;
    offset += static_cast<uint64_t>(w);
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status PreadAll(int fd, char* data, size_t n, uint64_t offset) {
  while (n > 0) {
    ssize_t r = ::pread(fd, data, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IoError("short pread from btree file");
    }
    data += r;
    offset += static_cast<uint64_t>(r);
    n -= static_cast<size_t>(r);
  }
  return Status::Ok();
}

}  // namespace

size_t BTreeStore::Node::EntryBytes(size_t i) const {
  if (!leaf) {
    return 2 + keys[i].size() + 4;  // klen + key + right child
  }
  const ValueRef& v = values[i];
  // klen + key + flag + (vlen + bytes | overflow head + total length)
  return 2 + keys[i].size() + 1 + (v.overflow_head == 0 ? 4 + v.inline_data.size() : 8);
}

size_t BTreeStore::Node::SerializedSize() const {
  size_t size = 1 + 2 + 4;  // type + nkeys + next_leaf
  if (!leaf) {
    size += 4;  // child0
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    size += EntryBytes(i);
  }
  return size;
}

std::string BTreeStore::SerializeNode(const Node& node) const {
  std::string out;
  out.reserve(opts_.page_size);
  out.push_back(static_cast<char>(node.leaf ? kLeafType : kInternalType));
  uint16_t nkeys = static_cast<uint16_t>(node.keys.size());
  out.push_back(static_cast<char>(nkeys & 0xff));
  out.push_back(static_cast<char>(nkeys >> 8));
  PutFixed32(&out, node.next_leaf);
  if (node.leaf) {
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint16_t klen = static_cast<uint16_t>(node.keys[i].size());
      out.push_back(static_cast<char>(klen & 0xff));
      out.push_back(static_cast<char>(klen >> 8));
      out += node.keys[i];
      const ValueRef& v = node.values[i];
      if (v.overflow_head == 0) {
        out.push_back(0);
        PutFixed32(&out, static_cast<uint32_t>(v.inline_data.size()));
        out += v.inline_data;
      } else {
        out.push_back(1);
        PutFixed32(&out, v.overflow_head);
        PutFixed32(&out, v.total_len);
      }
    }
  } else {
    PutFixed32(&out, node.children[0]);
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint16_t klen = static_cast<uint16_t>(node.keys[i].size());
      out.push_back(static_cast<char>(klen & 0xff));
      out.push_back(static_cast<char>(klen >> 8));
      out += node.keys[i];
      PutFixed32(&out, node.children[i + 1]);
    }
  }
  out.resize(opts_.page_size, '\0');
  return out;
}

StatusOr<BTreeStore::Node> BTreeStore::DeserializeNode(std::string_view data) const {
  if (data.size() < 7) {
    return Status::Corruption("btree page too small");
  }
  Node node;
  const char* p = data.data();
  const char* end = p + data.size();
  uint8_t type = static_cast<uint8_t>(*p++);
  if (type != kLeafType && type != kInternalType) {
    return Status::Corruption("bad btree page type");
  }
  node.leaf = type == kLeafType;
  uint16_t nkeys = static_cast<uint8_t>(p[0]) | (static_cast<uint8_t>(p[1]) << 8);
  p += 2;
  node.next_leaf = DecodeFixed32(p);
  p += 4;
  auto need = [&](size_t n) { return static_cast<size_t>(end - p) >= n; };
  if (node.leaf) {
    node.keys.reserve(nkeys);
    node.values.reserve(nkeys);
    for (uint16_t i = 0; i < nkeys; ++i) {
      if (!need(2)) {
        return Status::Corruption("truncated leaf entry");
      }
      uint16_t klen = static_cast<uint8_t>(p[0]) | (static_cast<uint8_t>(p[1]) << 8);
      p += 2;
      if (!need(klen + 1)) {
        return Status::Corruption("truncated leaf key");
      }
      node.keys.emplace_back(p, klen);
      p += klen;
      uint8_t flag = static_cast<uint8_t>(*p++);
      ValueRef v;
      if (flag == 0) {
        if (!need(4)) {
          return Status::Corruption("truncated leaf value len");
        }
        uint32_t vlen = DecodeFixed32(p);
        p += 4;
        if (!need(vlen)) {
          return Status::Corruption("truncated leaf value");
        }
        v.inline_data.assign(p, vlen);
        p += vlen;
      } else {
        if (!need(8)) {
          return Status::Corruption("truncated overflow ref");
        }
        v.overflow_head = DecodeFixed32(p);
        v.total_len = DecodeFixed32(p + 4);
        p += 8;
      }
      node.values.push_back(std::move(v));
    }
  } else {
    if (!need(4)) {
      return Status::Corruption("truncated internal node");
    }
    node.children.push_back(DecodeFixed32(p));
    p += 4;
    node.keys.reserve(nkeys);
    for (uint16_t i = 0; i < nkeys; ++i) {
      if (!need(2)) {
        return Status::Corruption("truncated internal entry");
      }
      uint16_t klen = static_cast<uint8_t>(p[0]) | (static_cast<uint8_t>(p[1]) << 8);
      p += 2;
      if (!need(klen + 4)) {
        return Status::Corruption("truncated internal key");
      }
      node.keys.emplace_back(p, klen);
      p += klen;
      node.children.push_back(DecodeFixed32(p));
      p += 4;
    }
  }
  node.bytes = static_cast<size_t>(p - data.data());  // the parsed prefix is the node
  return node;
}

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
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<BTreeStore> store(new BTreeStore(dir, opts, std::move(pool)));
  GADGET_RETURN_IF_ERROR(store->Recover());
  return std::unique_ptr<KVStore>(std::move(store));
}

Status BTreeStore::Recover() {
  MutexLock lock(&mu_);
  overshoots_seen_ = pool_->overshoots();
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
    Node empty_root;
    empty_root.leaf = true;
    GADGET_RETURN_IF_ERROR(WriteNode(root_, empty_root));
    return PersistMeta();
  }
  std::string meta(opts_.page_size, '\0');
  GADGET_RETURN_IF_ERROR(PreadAll(fd_, meta.data(), meta.size(), 0));
  if (DecodeFixed32(meta.data()) != kMetaMagic) {
    return Status::Corruption("bad btree meta page");
  }
  root_ = DecodeFixed32(meta.data() + 4);
  next_page_ = DecodeFixed32(meta.data() + 8);
  free_head_ = DecodeFixed32(meta.data() + 12);
  height_ = DecodeFixed32(meta.data() + 16);
  return Status::Ok();
}

Status BTreeStore::PersistMeta() {
  std::string meta;
  PutFixed32(&meta, kMetaMagic);
  PutFixed32(&meta, root_);
  PutFixed32(&meta, next_page_);
  PutFixed32(&meta, free_head_);
  PutFixed32(&meta, height_);
  meta.resize(opts_.page_size, '\0');
  return PwriteAll(fd_, meta.data(), meta.size(), 0);
}

// --------------------------------------------------------------- page cache

Status BTreeStore::ReadPageRaw(uint32_t page_id, std::string* out) {
  out->resize(opts_.page_size);
  stats_.io_bytes_read += opts_.page_size;
  return PreadAll(fd_, out->data(), out->size(),
                  static_cast<uint64_t>(page_id) * opts_.page_size);
}

Status BTreeStore::WritePageRaw(uint32_t page_id, std::string_view data) {
  stats_.io_bytes_written += opts_.page_size;
  return PwriteAll(fd_, data.data(), data.size(),
                   static_cast<uint64_t>(page_id) * opts_.page_size);
}

Status BTreeStore::WriteNode(uint32_t page_id, const Node& node) {
  return WritePageRaw(page_id, SerializeNode(node));
}

StatusOr<BTreeStore::Node> BTreeStore::ReadNode(uint32_t page_id) {
  std::string raw;
  GADGET_RETURN_IF_ERROR(ReadPageRaw(page_id, &raw));
  return DeserializeNode(raw);
}

StatusOr<BTreeStore::NodeRef> BTreeStore::FetchNode(uint32_t page_id, bool fill_cache) {
  NodeRef ref;
  ref.page_id = page_id;
  ref.pin = pool_->Lookup(pool_file_id_, page_id);
  if (ref.pin && ref.pin.object() != nullptr) {
    ref.node = static_cast<Node*>(ref.pin.object().get());
    return ref;
  }
  auto node = ReadNode(page_id);
  if (!node.ok()) {
    return node.status();
  }
  if (fill_cache) {
    auto object = std::make_shared<Node>(std::move(*node));
    ref.node = object.get();
    ref.pin = pool_->Insert(pool_file_id_, page_id, nullptr, std::move(object), opts_.page_size);
  } else {
    ref.uncached = std::make_unique<Node>(std::move(*node));
    ref.node = ref.uncached.get();
  }
  return ref;
}

void BTreeStore::MarkDirty(NodeRef* ref) {
  // Writers fetch with fill_cache, so `ref` always holds a pin to keep.
  dirty_.try_emplace(ref->page_id, std::move(ref->pin));
}

void BTreeStore::InstallNode(uint32_t page_id, std::shared_ptr<Node> node) {
  dirty_.try_emplace(page_id, pool_->Insert(pool_file_id_, page_id, nullptr, std::move(node),
                                            opts_.page_size));
}

Status BTreeStore::WriteBackDirtyLocked() {
  for (const auto& [page_id, pin] : dirty_) {
    GADGET_RETURN_IF_ERROR(WriteNode(page_id, *static_cast<const Node*>(pin.object().get())));
    ++stats_.flushes;
  }
  dirty_.clear();
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

uint32_t BTreeStore::AllocPage() {
  if (free_head_ != 0) {
    // Pop from the free list: the page's first 4 bytes hold the next id.
    std::string raw;
    if (ReadPageRaw(free_head_, &raw).ok()) {
      uint32_t page = free_head_;
      free_head_ = DecodeFixed32(raw.data());
      return page;
    }
  }
  return next_page_++;
}

void BTreeStore::FreePage(uint32_t page_id) {
  // Thread onto the free list. Only overflow pages are freed, and they never
  // enter the pool.
  std::string raw;
  PutFixed32(&raw, free_head_);
  raw.resize(opts_.page_size, '\0');
  if (WritePageRaw(page_id, raw).ok()) {
    free_head_ = page_id;
  }
}

// ---------------------------------------------------------- overflow values

StatusOr<BTreeStore::ValueRef> BTreeStore::StoreValue(std::string_view value) {
  ValueRef ref;
  if (value.size() <= opts_.page_size / 4) {
    ref.inline_data.assign(value.data(), value.size());
    return ref;
  }
  // Chain of overflow pages: u32 next | u32 chunk_len | bytes.
  ref.total_len = static_cast<uint32_t>(value.size());
  const size_t chunk_cap = opts_.page_size - 8;
  size_t offset = 0;
  uint32_t prev_page = 0;
  std::string page;
  while (offset < value.size()) {
    size_t chunk = std::min(chunk_cap, value.size() - offset);
    uint32_t page_id = AllocPage();
    page.clear();
    PutFixed32(&page, 0);  // next; patched by the following iteration
    PutFixed32(&page, static_cast<uint32_t>(chunk));
    page.append(value.data() + offset, chunk);
    page.resize(opts_.page_size, '\0');
    GADGET_RETURN_IF_ERROR(WritePageRaw(page_id, page));
    if (prev_page == 0) {
      ref.overflow_head = page_id;
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
  return ref;
}

Status BTreeStore::LoadValue(const ValueRef& ref, std::string* out) {
  if (ref.overflow_head == 0) {
    *out = ref.inline_data;
    return Status::Ok();
  }
  out->clear();
  out->reserve(ref.total_len);
  uint32_t page_id = ref.overflow_head;
  std::string raw;
  while (page_id != 0) {
    GADGET_RETURN_IF_ERROR(ReadPageRaw(page_id, &raw));
    uint32_t next = DecodeFixed32(raw.data());
    uint32_t chunk = DecodeFixed32(raw.data() + 4);
    if (chunk > opts_.page_size - 8) {
      return Status::Corruption("bad overflow chunk");
    }
    out->append(raw.data() + 8, chunk);
    page_id = next;
  }
  if (out->size() != ref.total_len) {
    return Status::Corruption("overflow chain length mismatch");
  }
  return Status::Ok();
}

void BTreeStore::ReleaseValue(const ValueRef& ref) {
  uint32_t page_id = ref.overflow_head;
  std::string raw;
  while (page_id != 0) {
    if (!ReadPageRaw(page_id, &raw).ok()) {
      return;
    }
    uint32_t next = DecodeFixed32(raw.data());
    FreePage(page_id);
    page_id = next;
  }
}

// ----------------------------------------------------------------- tree ops

StatusOr<BTreeStore::NodeRef> BTreeStore::DescendToLeaf(std::string_view key,
                                                        std::vector<PathEntry>* path,
                                                        bool fill_cache) {
  if (path != nullptr) {
    path->clear();
  }
  auto ref = FetchNode(root_, fill_cache);
  while (ref.ok() && !ref->node->leaf) {
    const auto& keys = ref->node->keys;
    size_t idx = static_cast<size_t>(
        std::upper_bound(keys.begin(), keys.end(), key,
                         [](std::string_view k, const std::string& sep) { return k < sep; }) -
        keys.begin());
    if (path != nullptr) {
      path->push_back(PathEntry{ref->page_id, idx});
    }
    // Unpin the parent before fetching the child: under pool pressure a
    // clean parent is an eviction victim, where a pinned one would make the
    // pool overshoot and force a write-back.
    const uint32_t child = ref->node->children[idx];
    ref->pin.Release();
    ref = FetchNode(child, fill_cache);
  }
  return ref;
}

Status BTreeStore::GetLocked(std::string_view key, std::string* value, bool fill_cache) {
  auto leaf = DescendToLeaf(key, nullptr, fill_cache);
  if (!leaf.ok()) {
    return leaf.status();
  }
  const auto& keys = leaf->node->keys;
  auto it = std::lower_bound(keys.begin(), keys.end(), key,
                             [](const std::string& k, std::string_view q) { return k < q; });
  if (it == keys.end() || std::string_view(*it) != key) {
    return Status::NotFound();
  }
  size_t idx = static_cast<size_t>(it - keys.begin());
  return LoadValue(leaf->node->values[idx], value);
}

Status BTreeStore::PutLocked(std::string_view key, std::string_view value) {
  auto leaf = DescendToLeaf(key, &path_);
  if (!leaf.ok()) {
    return leaf.status();
  }
  Node& node = *leaf->node;
  auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key,
                             [](const std::string& k, std::string_view q) { return k < q; });
  size_t idx = static_cast<size_t>(it - node.keys.begin());
  auto new_ref = StoreValue(value);
  if (!new_ref.ok()) {
    return new_ref.status();
  }
  if (it != node.keys.end() && std::string_view(*it) == key) {
    ReleaseValue(node.values[idx]);
    node.bytes -= node.EntryBytes(idx);
    node.values[idx] = std::move(*new_ref);
  } else {
    node.keys.insert(node.keys.begin() + static_cast<long>(idx), std::string(key));
    node.values.insert(node.values.begin() + static_cast<long>(idx), std::move(*new_ref));
  }
  node.bytes += node.EntryBytes(idx);
  MarkDirty(&*leaf);
  if (node.bytes > opts_.page_size) {
    return SplitAndInsert(leaf->page_id, &node);
  }
  return Status::Ok();
}

Status BTreeStore::SplitAndInsert(uint32_t page_id, Node* node) {
  while (node->bytes > opts_.page_size) {
    // Split `node` into itself (left) and a new right sibling at the size
    // midpoint; `separator` goes up to the parent.
    auto right = std::make_shared<Node>();
    right->leaf = node->leaf;
    const size_t total = node->bytes;
    const size_t n = node->keys.size();
    size_t acc = 0;
    size_t split_idx = 0;
    std::string separator;
    if (node->leaf) {
      for (size_t i = 0; i < n; ++i) {
        acc += node->EntryBytes(i);
        if (acc >= total / 2) {
          split_idx = i + 1;
          break;
        }
      }
      split_idx = std::clamp<size_t>(split_idx, 1, n - 1);
      right->keys.assign(node->keys.begin() + static_cast<long>(split_idx), node->keys.end());
      right->values.assign(node->values.begin() + static_cast<long>(split_idx),
                           node->values.end());
      node->keys.resize(split_idx);
      node->values.resize(split_idx);
      separator = right->keys.front();
    } else {
      // Internal node: promote the key at the midpoint.
      split_idx = n / 2;
      for (size_t i = 0; i < n; ++i) {
        acc += node->EntryBytes(i);
        if (acc >= total / 2) {
          split_idx = i;
          break;
        }
      }
      split_idx = std::clamp<size_t>(split_idx, 1, n > 2 ? n - 2 : 1);
      separator = std::move(node->keys[split_idx]);
      right->keys.assign(node->keys.begin() + static_cast<long>(split_idx) + 1,
                         node->keys.end());
      right->children.assign(node->children.begin() + static_cast<long>(split_idx) + 1,
                             node->children.end());
      node->keys.resize(split_idx);
      node->children.resize(split_idx + 1);
    }
    node->bytes = node->SerializedSize();
    right->bytes = right->SerializedSize();
    const uint32_t right_id = AllocPage();
    if (node->leaf) {
      right->next_leaf = node->next_leaf;
      node->next_leaf = right_id;
    }
    InstallNode(right_id, std::move(right));

    if (path_.empty()) {
      // The root split: grow a new root above the two halves.
      auto new_root = std::make_shared<Node>();
      new_root->leaf = false;
      new_root->keys.push_back(std::move(separator));
      new_root->children = {page_id, right_id};
      new_root->bytes = new_root->SerializedSize();
      const uint32_t new_root_id = AllocPage();
      InstallNode(new_root_id, std::move(new_root));
      root_ = new_root_id;
      ++height_;
      return PersistMeta();
    }
    const PathEntry parent = path_.back();
    path_.pop_back();
    auto parent_ref = FetchNode(parent.page_id);
    if (!parent_ref.ok()) {
      return parent_ref.status();
    }
    Node& pn = *parent_ref->node;
    pn.keys.insert(pn.keys.begin() + static_cast<long>(parent.child_index),
                   std::move(separator));
    pn.children.insert(pn.children.begin() + static_cast<long>(parent.child_index) + 1,
                       right_id);
    pn.bytes += pn.EntryBytes(parent.child_index);
    MarkDirty(&*parent_ref);
    page_id = parent.page_id;  // the parent may now overflow in turn
    node = &pn;
  }
  return Status::Ok();
}

Status BTreeStore::DeleteLocked(std::string_view key) {
  auto leaf = DescendToLeaf(key, nullptr);
  if (!leaf.ok()) {
    return leaf.status();
  }
  Node& node = *leaf->node;
  auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key,
                             [](const std::string& k, std::string_view q) { return k < q; });
  if (it == node.keys.end() || std::string_view(*it) != key) {
    return Status::Ok();  // blind delete of a missing key is a no-op
  }
  size_t idx = static_cast<size_t>(it - node.keys.begin());
  ReleaseValue(node.values[idx]);
  node.bytes -= node.EntryBytes(idx);
  node.keys.erase(it);
  node.values.erase(node.values.begin() + static_cast<long>(idx));
  MarkDirty(&*leaf);
  // No rebalancing: an emptied leaf stays linked and later inserts in its
  // key range refill it; its page never returns to the free list (see the
  // header).
  return Status::Ok();
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
  statuses->assign(keys.size(), Status::Ok());
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
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
  if (::fdatasync(fd_) != 0) {
    return Status::IoError("fdatasync btree");
  }
  return Status::Ok();
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
  // Pool-wide totals (the pool may be shared across stores; see kvstore.h).
  out.cache_hits = pool_->hits();
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
  // Iterative BFS verifying (a) key ordering within nodes, (b) separator
  // bounds, (c) uniform leaf depth, (d) each node's cached size.
  struct Item {
    uint32_t page_id;
    uint32_t depth;
    std::string low;
    std::string high;  // empty = unbounded
    bool has_high;
  };
  std::vector<Item> queue{{root_, 0, "", "", false}};
  int leaf_depth = -1;
  while (!queue.empty()) {
    Item item = std::move(queue.back());
    queue.pop_back();
    auto node = FetchNode(item.page_id);
    if (!node.ok()) {
      return node.status();
    }
    const Node& n = *node->node;
    if (n.bytes != n.SerializedSize() || n.bytes > opts_.page_size) {
      return Status::Corruption("bad cached size in page " + std::to_string(item.page_id));
    }
    for (size_t i = 1; i < n.keys.size(); ++i) {
      if (n.keys[i - 1] >= n.keys[i]) {
        return Status::Corruption("keys out of order in page " + std::to_string(item.page_id));
      }
    }
    for (const std::string& k : n.keys) {
      if (k < item.low || (item.has_high && k >= item.high)) {
        return Status::Corruption("key outside separator bounds in page " +
                                  std::to_string(item.page_id));
      }
    }
    if (n.leaf) {
      if (leaf_depth == -1) {
        leaf_depth = static_cast<int>(item.depth);
      } else if (leaf_depth != static_cast<int>(item.depth)) {
        return Status::Corruption("non-uniform leaf depth");
      }
      if (n.keys.size() != n.values.size()) {
        return Status::Corruption("leaf keys/values mismatch");
      }
    } else {
      if (n.children.size() != n.keys.size() + 1) {
        return Status::Corruption("internal children count mismatch");
      }
      for (size_t i = 0; i < n.children.size(); ++i) {
        Item child;
        child.page_id = n.children[i];
        child.depth = item.depth + 1;
        child.low = i == 0 ? item.low : n.keys[i - 1];
        if (i < n.keys.size()) {
          child.high = n.keys[i];
          child.has_high = true;
        } else {
          child.high = item.high;
          child.has_high = item.has_high;
        }
        queue.push_back(std::move(child));
      }
    }
  }
  return Status::Ok();
}

}  // namespace gadget
