// Internal record representation shared by the memtable, SSTables, WAL and
// compaction.
//
// The engine supports RocksDB-style lazy merge: a merge writes an *operand*
// that is only combined with the base value on read or compaction. The merge
// operator is byte-append (operands concatenate after the base), which is
// exactly what holistic window buckets need (§6.5).
//
// Record types:
//   kTombstone  — key deleted; shadows all older records.
//   kValue      — full value; shadows all older records.
//   kMergeStack — merge operands with *no* base yet; a reader must keep
//                 searching older data for the base.
//
// Because the operator is byte-append, base + op1 + op2 equals base +
// (op1 op2): every layer carries a key's operands as one byte string
// (Operands), and a read builds its value once, when it reaches the base or
// the end of its walk.
#ifndef GADGET_STORES_LSM_FORMAT_H_
#define GADGET_STORES_LSM_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/coding.h"

namespace gadget {

enum class RecType : uint8_t {
  kTombstone = 0,
  kValue = 1,
  kMergeStack = 2,
};

// Serialization of a merge stack: operands oldest-first, each
// length-prefixed. Writers append a key's operands to *out as the one operand
// they concatenate to; a stack of several (as older tables hold) decodes to
// the same bytes.
inline void EncodeMergeStack(std::string_view operands, std::string* out) {
  PutLengthPrefixed(out, operands);
}

// The merge operands a read or a compaction has collected for one key so
// far, oldest first, as the one byte string they concatenate to. `any` is
// set by the first operand: an empty operand still makes an absent key
// present, so an empty `bytes` does not mean "no operands".
struct Operands {
  std::string bytes;
  bool any = false;

  // Puts an older layer's operands in front of those collected so far.
  void Prepend(std::string_view older) {
    bytes.insert(0, older);
    any = true;
  }
};

// Puts the operands of an encoded merge stack in front of *out's (the stack
// is older than every operand already there). Returns false on malformed
// input, possibly after putting part of the stack in front.
inline bool DecodeMergeStack(std::string_view stack, Operands* out) {
  const char* p = stack.data();
  const char* limit = p + stack.size();
  size_t at = 0;
  while (p < limit) {
    std::string_view op;
    p = GetLengthPrefixed(p, limit, &op);
    if (p == nullptr) {
      return false;
    }
    out->bytes.insert(at, op);
    at += op.size();
    out->any = true;
  }
  return true;
}

// Outcome of a point lookup against one layer (memtable or SSTable).
enum class LookupState : uint8_t {
  kNotFound = 0,    // layer has nothing for this key; keep searching
  kFound = 1,       // complete value assembled
  kDeleted = 2,     // tombstone; stop searching, key absent
  kMergePartial = 3,  // operands found, base still missing; keep searching
};

}  // namespace gadget

#endif  // GADGET_STORES_LSM_FORMAT_H_
