#include "src/stores/btree/page.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

namespace gadget {
namespace {

uint16_t Load16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

// memcpy with an empty source allowed (a default string_view's data() is
// null, which memcpy may not be passed).
void CopyBytes(char* dst, std::string_view src) {
  if (!src.empty()) {
    std::memcpy(dst, src.data(), src.size());
  }
}

// A key's first 8 bytes, zero-padded, in the slot's byte order.
void PrefixBytes(std::string_view key, char out[8]) {
  std::memset(out, 0, 8);
  CopyBytes(out, key.substr(0, 8));
}

uint64_t PrefixValue(const char bytes[8]) {
  uint64_t v;
  std::memcpy(&v, bytes, 8);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

uint64_t KeyPrefix(std::string_view key) {
  char bytes[8];
  PrefixBytes(key, bytes);
  return PrefixValue(bytes);
}

}  // namespace

void BTreePage::Init(uint8_t type, uint32_t link) {
  std::memset(p_, 0, kPageHeaderSize);
  p_[0] = static_cast<char>(type);
  Put32(4, link);
  Put16(8, size_);
}

size_t BTreePage::record_size(size_t i) const {
  const size_t k = key_size(i);
  if (!leaf()) {
    return k + 4;
  }
  const uint16_t tag = Tag(i);
  return k + 2 + (tag == kOverflowTag ? 8 : tag);
}

int BTreePage::Compare(size_t i, std::string_view key, uint64_t prefix) const {
  const uint64_t mine = PrefixValue(p_ + kPageHeaderSize + i * kSlotSize);
  if (mine != prefix) {
    return mine < prefix ? -1 : 1;
  }
  return this->key(i).compare(key);
}

size_t BTreePage::LowerBound(std::string_view key) const {
  const uint64_t prefix = KeyPrefix(key);
  size_t lo = 0;
  size_t hi = count();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Compare(mid, key, prefix) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t BTreePage::UpperBound(std::string_view key) const {
  const uint64_t prefix = KeyPrefix(key);
  size_t lo = 0;
  size_t hi = count();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Compare(mid, key, prefix) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t BTreePage::Find(std::string_view key) const {
  const size_t i = LowerBound(key);
  return i < count() && this->key(i) == key ? i : count();
}

void BTreePage::Place(size_t i, const PageEntry& e) {
  const size_t n = count();
  const size_t at = heap() - e.record_size();
  char* slot = p_ + kPageHeaderSize + i * kSlotSize;
  std::memmove(slot + kSlotSize, slot, (n - i) * kSlotSize);
  CopyBytes(p_ + at, e.key);
  CopyBytes(p_ + at + e.key.size(), e.head);
  CopyBytes(p_ + at + e.key.size() + e.head.size(), e.body);
  PrefixBytes(e.key, slot);
  Put16(kPageHeaderSize + i * kSlotSize + 8, at);
  Put16(kPageHeaderSize + i * kSlotSize + 10, e.key.size());
  Put16(2, n + 1);
  Put16(8, at);
}

bool BTreePage::Insert(size_t i, const PageEntry& e, std::string* scratch) {
  const size_t need = kSlotSize + e.record_size();
  if (i > count()) {
    return false;
  }
  if (free_bytes() < need) {
    if (free_bytes() + frag() < need) {
      return false;
    }
    Compact(scratch);
  }
  Place(i, e);
  return true;
}

bool BTreePage::Overwrite(size_t i, std::string_view head, std::string_view body) {
  const size_t had = record_size(i) - key_size(i);
  const size_t now = head.size() + body.size();
  if (now > had) {
    return false;
  }
  char* at = p_ + offset(i) + key_size(i);
  CopyBytes(at, head);
  CopyBytes(at + head.size(), body);
  Put16(10, frag() + had - now);
  return true;
}

void BTreePage::Erase(size_t i) {
  const size_t n = count();
  const size_t at = offset(i);
  const size_t bytes = record_size(i);
  char* slot = p_ + kPageHeaderSize + i * kSlotSize;
  std::memmove(slot, slot + kSlotSize, (n - i - 1) * kSlotSize);
  Put16(2, n - 1);
  if (at == heap()) {
    Put16(8, at + bytes);
  } else {
    Put16(10, frag() + bytes);
  }
}

void BTreePage::Compact(std::string* scratch) {
  scratch->assign(p_, size_);
  const BTreePage src(scratch->data(), size_);
  size_t at = size_;
  for (size_t i = 0; i < count(); ++i) {
    const size_t bytes = src.record_size(i);
    at -= bytes;
    std::memcpy(p_ + at, src.p_ + src.offset(i), bytes);
    Put16(kPageHeaderSize + i * kSlotSize + 8, at);
  }
  Put16(8, at);
  Put16(10, 0);
}

size_t BTreePage::SplitPoint(size_t i, size_t entry_bytes, bool promote) const {
  const size_t n = count();
  const size_t room = size_ - kPageHeaderSize;
  // Bytes of sequence entry v: the new entry at i, this page's around it.
  auto bytes = [&](size_t v) {
    return v == i ? entry_bytes : kSlotSize + record_size(v < i ? v : v - 1);
  };
  size_t total = 0;
  for (size_t v = 0; v <= n; ++v) {
    total += bytes(v);
  }
  size_t best = 0;
  size_t best_gap = std::numeric_limits<size_t>::max();
  size_t left = 0;
  for (size_t k = 1; k + (promote ? 1 : 0) <= n; ++k) {
    left += bytes(k - 1);
    const size_t right = total - left - (promote ? bytes(k) : 0);
    const size_t gap = left > right ? left - right : right - left;
    if (left <= room && right <= room && gap < best_gap) {
      best = k;
      best_gap = gap;
    }
  }
  return best;
}

void BTreePage::MoveTail(size_t j, bool promote, BTreePage* right, std::string* separator,
                         std::string* scratch) {
  scratch->assign(p_, size_);
  const BTreePage src(scratch->data(), size_);
  const size_t n = src.count();
  Init(src.type(), src.link());
  for (size_t i = 0; i < j; ++i) {
    Place(i, {src.key(i), src.payload(i), {}});
  }
  size_t from = j;
  uint32_t right_link = 0;
  if (promote) {
    separator->assign(src.key(j));
    right_link = src.child(j + 1);
    from = j + 1;
  }
  right->Init(src.type(), right_link);
  for (size_t i = from; i < n; ++i) {
    right->Place(i - from, {src.key(i), src.payload(i), {}});
  }
}

Status CheckBTreePage(std::string_view page) {
  const size_t size = page.size();
  if (size < kMinPageSize || size > kMaxPageSize) {
    return Status::Corruption("btree page of " + std::to_string(size) + " bytes");
  }
  const char* p = page.data();
  const auto type = static_cast<uint8_t>(p[0]);
  if (type != kLeafPage && type != kInternalPage) {
    return Status::Corruption("bad btree page type " + std::to_string(type));
  }
  const size_t n = Load16(p + 2);
  const size_t heap = Load16(p + 8);
  const size_t frag = Load16(p + 10);
  if (kPageHeaderSize + n * kSlotSize > heap || heap > size) {
    return Status::Corruption("btree page slots overrun its records");
  }
  if (type == kInternalPage && n == 0) {
    return Status::Corruption("btree internal page without keys");
  }
  const size_t max_key = MaxKeyBytes(static_cast<uint32_t>(size));
  const size_t max_inline = MaxInlineValue(static_cast<uint32_t>(size));
  std::vector<std::pair<size_t, size_t>> records;  // (offset, bytes)
  records.reserve(n);
  std::string_view prev_key;
  size_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    const char* slot = p + kPageHeaderSize + i * kSlotSize;
    const size_t at = Load16(slot + 8);
    const size_t key_size = Load16(slot + 10);
    if (key_size > max_key) {
      return Status::Corruption("btree key of " + std::to_string(key_size) + " bytes");
    }
    size_t bytes = key_size + (type == kLeafPage ? 2 : 4);
    if (at < heap || at + bytes > size) {
      return Status::Corruption("btree record outside its page");
    }
    if (type == kLeafPage) {
      const uint16_t tag = Load16(p + at + key_size);
      if (tag == kOverflowTag) {
        bytes += 8;
      } else if (tag <= max_inline) {
        bytes += tag;
      } else {
        return Status::Corruption("bad btree value tag " + std::to_string(tag));
      }
      if (at + bytes > size) {
        return Status::Corruption("btree value outside its page");
      }
    }
    const std::string_view key = page.substr(at, key_size);
    char prefix[8];
    PrefixBytes(key, prefix);
    if (std::memcmp(prefix, slot, 8) != 0) {
      return Status::Corruption("btree slot prefix does not match its key");
    }
    if (i > 0 && !(prev_key < key)) {
      return Status::Corruption("btree keys out of order at slot " + std::to_string(i));
    }
    prev_key = key;
    records.emplace_back(at, bytes);
    used += bytes;
  }
  // Records that overlap could still add up with frag, and an in-place edit
  // of one would rewrite the other's key or tag.
  std::sort(records.begin(), records.end());
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].first + records[i - 1].second > records[i].first) {
      return Status::Corruption("btree records overlap");
    }
  }
  if (used + frag != size - heap) {
    return Status::Corruption("btree page records and frag do not fill its record area");
  }
  return Status::Ok();
}

}  // namespace gadget
