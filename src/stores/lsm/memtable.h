// In-memory write buffer: a hash index from key to one record, sorted once,
// when the memtable is flushed.
//
// Entries collapse eagerly where legal: Put and Delete supersede everything
// older *within this memtable*, and a merge appends its operand to the key's
// one byte string. A key holds a full value (kValue), a tombstone
// (kTombstone), or operands with no base (kMergeStack), which must stay lazy
// so older levels supply the base.
//
// Nothing reads the memtable in key order except the flush: the store has
// point reads only (range scans are deferred, DESIGN.md §5e).
#ifndef GADGET_STORES_LSM_MEMTABLE_H_
#define GADGET_STORES_LSM_MEMTABLE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/stores/lsm/format.h"

namespace gadget {

class MemTable {
 public:
  MemTable() = default;

  void Put(std::string_view key, std::string_view value);
  void Merge(std::string_view key, std::string_view operand);
  void Delete(std::string_view key);

  // Point lookup. kFound: *value views the full value (base plus this
  // memtable's operands). kMergePartial: *value views this memtable's
  // operands, oldest first, possibly empty; the caller must continue into
  // older data. The view lives until the next write to this memtable.
  LookupState Get(std::string_view key, std::string_view* value) const;

  // Approximate memory footprint in bytes: key + 32 per key, plus the value
  // bytes, plus operand + 8 per merge.
  uint64_t ApproximateBytes() const { return bytes_; }
  bool empty() const { return table_.empty(); }
  size_t num_keys() const { return table_.size(); }

  // Flush support: emits (key, type, serialized value) in key order. A
  // kMergeStack value is the key's operands encoded as one stack operand.
  // The views live until `fn` returns.
  struct FlushRecord {
    std::string_view key;
    RecType type;
    std::string_view value;
  };
  template <typename Fn>
  void ForEachFlushRecord(Fn&& fn) const {
    // Sorts (key prefix, entry) pairs: most comparisons read the prefix in
    // the pair and never follow the pointer to the key. Zero padding keeps
    // the prefix order bytewise, so whole keys are compared only on a tie.
    struct Ref {
      uint64_t prefix;
      const Table::value_type* slot;
    };
    std::vector<Ref> sorted;
    sorted.reserve(table_.size());
    for (const auto& slot : table_) {
      sorted.push_back({KeyPrefix(slot.first), &slot});
    }
    std::sort(sorted.begin(), sorted.end(), [](const Ref& a, const Ref& b) {
      return a.prefix != b.prefix ? a.prefix < b.prefix : a.slot->first < b.slot->first;
    });
    std::string stack;
    for (const Ref& ref : sorted) {
      const Table::value_type* slot = ref.slot;
      const Entry& e = slot->second;
      if (e.type == RecType::kMergeStack) {
        stack.clear();
        EncodeMergeStack(e.bytes, &stack);
        fn(FlushRecord{slot->first, e.type, stack});
      } else {
        fn(FlushRecord{slot->first, e.type, e.bytes});
      }
    }
  }

 private:
  struct Entry {
    RecType type = RecType::kValue;
    // kValue: the full value. kMergeStack: the operands, oldest first.
    // kTombstone: empty, with no buffer.
    std::string bytes;
  };
  // Transparent, so probes hash a string_view without building a key. Not
  // noexcept, so libstdc++ keeps each key's hash in its node: rehashing and
  // walking a bucket then never rehash a key.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const { return std::hash<std::string_view>{}(key); }
  };
  using Table = std::unordered_map<std::string, Entry, Hash, std::equal_to<>>;

  // The key's entry, created (and counted) if absent.
  Entry& Slot(std::string_view key);

  // The key's first 8 bytes, zero-padded, as a big-endian integer.
  static uint64_t KeyPrefix(std::string_view key) {
    unsigned char bytes[8] = {};
    std::memcpy(bytes, key.data(), std::min<size_t>(key.size(), sizeof(bytes)));
    uint64_t prefix = 0;
    for (unsigned char b : bytes) {
      prefix = (prefix << 8) | b;
    }
    return prefix;
  }

  Table table_;
  uint64_t bytes_ = 0;
};

}  // namespace gadget

#endif  // GADGET_STORES_LSM_MEMTABLE_H_
