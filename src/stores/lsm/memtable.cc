#include "src/stores/lsm/memtable.h"

namespace gadget {

MemTable::Entry& MemTable::Slot(std::string_view key) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    // A new entry is an empty operand list, which each write then replaces
    // or appends to.
    it = table_.emplace(std::string(key), Entry{RecType::kMergeStack, {}}).first;
    bytes_ += key.size() + 32;
  }
  return it->second;
}

void MemTable::Put(std::string_view key, std::string_view value) {
  Entry& e = Slot(key);
  bytes_ -= e.bytes.size();
  e.type = RecType::kValue;
  // A fresh string, not assign(): a larger superseded buffer is freed.
  e.bytes = std::string(value);
  bytes_ += value.size();
}

void MemTable::Merge(std::string_view key, std::string_view operand) {
  Entry& e = Slot(key);
  if (e.type == RecType::kTombstone) {
    // Deleted, then merged: the operand on an empty base is a full value,
    // which shadows older layers.
    e.type = RecType::kValue;
  }
  e.bytes.append(operand);
  bytes_ += operand.size() + 8;
}

void MemTable::Delete(std::string_view key) {
  Entry& e = Slot(key);
  bytes_ -= e.bytes.size();
  e.type = RecType::kTombstone;
  // Free the buffer: sliding windows delete every key and never write it
  // again, so a kept capacity would only hold memory until the flush.
  std::string().swap(e.bytes);
}

LookupState MemTable::Get(std::string_view key, std::string_view* value) const {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return LookupState::kNotFound;
  }
  const Entry& e = it->second;
  *value = e.bytes;
  switch (e.type) {
    case RecType::kTombstone:
      return LookupState::kDeleted;
    case RecType::kValue:
      return LookupState::kFound;
    case RecType::kMergeStack:
      return LookupState::kMergePartial;
  }
  return LookupState::kNotFound;
}

}  // namespace gadget
