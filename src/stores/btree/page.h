// Slotted B+tree pages: the layout of every node page of btree.db, on disk
// and in its buffer-pool frame alike, searched and edited in place.
//
//   offset  0  u8  type (kLeafPage, kInternalPage), then one zero byte
//   offset  2  u16 slot count
//   offset  4  u32 link: the next leaf (leaf) or the first child (internal)
//   offset  8  u16 heap: start of the record area, which runs to the page end
//   offset 10  u16 frag: bytes of the record area that no record owns
//   offset 12  the slot array, in key order, kSlotSize bytes per slot:
//                8-byte key prefix: the key's first 8 bytes, zero-padded, so
//                  two prefixes read as big-endian integers order their keys
//                  unless they tie
//                u16 record offset, u16 key length
//   then the free gap up to heap, then the records, growing down from the
//   page end. A record is the key bytes, then
//     leaf:     u16 tag; tag <= MaxInlineValue: that many value bytes follow;
//               tag == kOverflowTag: u32 overflow head, u32 value length
//     internal: u32 child holding the keys >= this one (the link holds those
//               below the first key)
//
// Integers other than the prefix are little-endian (src/common/coding.h).
// An overwrite that fits its record is written in place; erasing or shrinking
// a record adds its bytes to frag; an insert that does not fit the gap
// compacts the page once (records packed against the page end, frag 0), and
// only an insert that still does not fit needs its caller to split.
//
// CheckBTreePage is the only decoder of untrusted page bytes: every page read
// from the file passes it before any accessor below touches it.
#ifndef GADGET_STORES_BTREE_PAGE_H_
#define GADGET_STORES_BTREE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace gadget {

constexpr uint8_t kLeafPage = 1;
constexpr uint8_t kInternalPage = 2;
constexpr size_t kPageHeaderSize = 12;
constexpr size_t kSlotSize = 12;
constexpr uint16_t kOverflowTag = 0xffff;
// Slot offsets are 16-bit, and heap may equal the page size.
constexpr uint32_t kMinPageSize = 512;
constexpr uint32_t kMaxPageSize = 32768;

// Leaf values longer than a quarter page live in overflow chains.
constexpr uint32_t MaxInlineValue(uint32_t page_size) { return page_size / 4; }

// The largest key a tree of `page_size` pages takes: the largest whose
// internal entry (slot, key, child) fills at most half of a page's room after
// the header, so every internal split has a promoted key that leaves both
// halves within a page. A leaf entry with such a key and a maximal inline
// value still fits an empty page, so a leaf split that cannot put a new entry
// beside either half gives it a page of its own. 2,026 bytes at 4 KiB pages,
// 234 at 512.
constexpr uint32_t MaxKeyBytes(uint32_t page_size) {
  return static_cast<uint32_t>((page_size - kPageHeaderSize) / 2 - kSlotSize - 4);
}

// One entry to insert: its key, then the record bytes after the key, given as
// two pieces so a leaf value is copied straight into the page (a leaf's tag
// and value, a leaf's tag and overflow reference, or an internal child).
struct PageEntry {
  std::string_view key;
  std::string_view head;
  std::string_view body;
  size_t record_size() const { return key.size() + head.size() + body.size(); }
};

// A view of one page buffer of `size` bytes, which the caller owns and which
// holds a page that passed CheckBTreePage (or Init). Cheap to copy.
class BTreePage {
 public:
  BTreePage(char* data, uint32_t size) : p_(data), size_(size) {}

  // Formats an empty page.
  void Init(uint8_t type, uint32_t link);

  bool leaf() const { return static_cast<uint8_t>(p_[0]) == kLeafPage; }
  uint8_t type() const { return static_cast<uint8_t>(p_[0]); }
  size_t count() const { return Get16(2); }
  uint32_t link() const { return Get32(4); }
  void set_link(uint32_t link) { Put32(4, link); }

  std::string_view key(size_t i) const { return {p_ + offset(i), key_size(i)}; }
  // Bytes of slot i's record: key plus what follows it.
  size_t record_size(size_t i) const;
  // The record bytes after the key.
  std::string_view payload(size_t i) const {
    return {p_ + offset(i) + key_size(i), record_size(i) - key_size(i)};
  }

  // Leaf records.
  bool overflowed(size_t i) const { return Tag(i) == kOverflowTag; }
  std::string_view inline_value(size_t i) const {
    return {p_ + offset(i) + key_size(i) + 2, Tag(i)};
  }
  uint32_t overflow_head(size_t i) const { return Get32(offset(i) + key_size(i) + 2); }
  uint32_t overflow_length(size_t i) const { return Get32(offset(i) + key_size(i) + 6); }

  // Internal pages: child c of count() + 1 (child 0 is the link).
  uint32_t child(size_t c) const {
    return c == 0 ? link() : Get32(offset(c - 1) + key_size(c - 1));
  }

  // First slot whose key is >= key / > key.
  size_t LowerBound(std::string_view key) const;
  size_t UpperBound(std::string_view key) const;
  // The slot holding exactly `key`, or count().
  size_t Find(std::string_view key) const;

  // Inserts `e` at slot i, compacting the page once into `scratch` if the gap
  // is too small; false, with the page unchanged, when it cannot fit at all
  // (or i is past the last slot).
  bool Insert(size_t i, const PageEntry& e, std::string* scratch);
  // Rewrites slot i's record after the key in place when head + body is no
  // longer than what is there; false, with the page unchanged, otherwise.
  bool Overwrite(size_t i, std::string_view head, std::string_view body);
  void Erase(size_t i);
  // Packs the records against the page end, leaving frag 0.
  void Compact(std::string* scratch);

  // Where to split the sequence of this page's entries with a new entry of
  // `entry_bytes` (slot included) at slot i, which does not fit. Returns the
  // k whose split balances the halves' bytes best with both nonempty and
  // within a page, or 0 when there is none. The left half is the first k
  // entries of the sequence; the right half is the rest, or with `promote`
  // (internal pages) the rest after entry k, which moves to the parent. A
  // leaf split that finds no k needs a page of its own for the new entry.
  size_t SplitPoint(size_t i, size_t entry_bytes, bool promote) const;
  // Moves this page's entries from slot j on to the empty page `right` of
  // the same type, compacting both. With `promote`, entry j goes to neither:
  // its key is copied to *separator and its child becomes right's link.
  void MoveTail(size_t j, bool promote, BTreePage* right, std::string* separator,
                std::string* scratch);

 private:
  size_t offset(size_t i) const { return Get16(kPageHeaderSize + i * kSlotSize + 8); }
  size_t key_size(size_t i) const { return Get16(kPageHeaderSize + i * kSlotSize + 10); }
  uint16_t Tag(size_t i) const { return Get16(offset(i) + key_size(i)); }
  size_t heap() const { return Get16(8); }
  size_t frag() const { return Get16(10); }
  // The gap between the slot array and the records.
  size_t free_bytes() const { return heap() - kPageHeaderSize - count() * kSlotSize; }
  // Writes slot i and its record at heap - record size; the caller made room.
  void Place(size_t i, const PageEntry& e);
  // <0, 0, >0 as slot i's key sorts before, equal to or after `key`, whose
  // prefix is `prefix`.
  int Compare(size_t i, std::string_view key, uint64_t prefix) const;

  uint16_t Get16(size_t at) const {
    uint16_t v;
    std::memcpy(&v, p_ + at, 2);
    return v;
  }
  uint32_t Get32(size_t at) const {
    uint32_t v;
    std::memcpy(&v, p_ + at, 4);
    return v;
  }
  void Put16(size_t at, size_t v) {
    const auto x = static_cast<uint16_t>(v);
    std::memcpy(p_ + at, &x, 2);
  }
  void Put32(size_t at, uint32_t v) { std::memcpy(p_ + at, &v, 4); }

  char* p_;
  uint32_t size_;
};

// The check every page read from the file passes before any accessor above
// touches it: the size is a supported page size, the header is sane (an
// internal page has a key), every slot's record lies inside the record area
// with a well-formed value, its key is within MaxKeyBytes and matches its
// prefix, keys strictly increase, no two records overlap, and the record
// bytes plus frag fill the area exactly. Corruption otherwise. Page bytes
// that pass are safe to search and edit through BTreePage.
Status CheckBTreePage(std::string_view page);

}  // namespace gadget

#endif  // GADGET_STORES_BTREE_PAGE_H_
