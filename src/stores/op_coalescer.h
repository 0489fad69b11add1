// The one op coalescer (DESIGN.md §5c, "Batched replay"): the evaluator's
// replay, the server's bursts and the loadgen's frames all batch one store's
// point ops through it. Writes join a WriteBatch and reads a MultiGet key
// list, and batching stays unobservable by one rule:
//   * a read of a key with a pending write runs the writes first
//     (read-your-writes);
//   * a write of a key with a pending read runs the reads first (the read
//     sees the old value);
// so the two pending sides never share a key, and the order they finally run
// in cannot change any result. A side also runs once it holds `cap` ops.
//
// The coalescer never calls a store: each Add says which sides are due, and
// the caller runs them in that order and clears each. At cap 1 every side
// runs as soon as it holds one op, so no conflict can arise and no key is
// hashed. Above it, conflict checks allocate nothing: a 4096-bit filter over
// Hash64 of each side's keys, and an exact scan only on a filter hit.
#ifndef GADGET_STORES_OP_COALESCER_H_
#define GADGET_STORES_OP_COALESCER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/stores/kvstore.h"

namespace gadget {

class OpCoalescer {
 public:
  // What an Add left due, in order: first the other side, which holds the
  // op's key; then the op's own side, which reached its cap.
  struct Due {
    bool other = false;
    bool own = false;
  };

  explicit OpCoalescer(size_t cap) : cap_(std::max<size_t>(cap, 1)) {}

  // Inline, so that at cap 1 an Add is a copy and two compares.
  Due AddRead(std::string_view key) {
    Due due;
    if (n_reads_ + 1 < cap_ || !writes_.empty()) {
      due.other = IndexRead(key);
    }
    if (n_reads_ == keys_.size()) {
      keys_.emplace_back();
    }
    keys_[n_reads_++].assign(key.data(), key.size());
    due.own = n_reads_ == cap_;
    return due;
  }
  Due AddWrite(WriteBatch::Op op, std::string_view key, std::string_view value) {
    Due due;
    if (writes_.size() + 1 < cap_ || n_reads_ != 0) {
      due.other = IndexWrite(key);
    }
    writes_.Add(op, key, value);
    due.own = writes_.size() == cap_;
    return due;
  }

  // The pending reads in arrival order, as MultiGet takes them.
  const std::vector<std::string>& reads() {
    keys_.resize(n_reads_);  // only ever shrinks: kept slots keep their buffers
    return keys_;
  }
  size_t pending_reads() const { return n_reads_; }
  const WriteBatch& writes() const { return writes_; }

  // Forget a side once the caller has run it. Buffers are kept for reuse;
  // at cap 1 no key was indexed, so the filters need no clearing.
  void ClearReads() {
    n_reads_ = 0;
    if (cap_ > 1) {
      read_filter_ = KeyFilter();
    }
  }
  void ClearWrites() {
    writes_.Clear();
    if (cap_ > 1) {
      write_filter_ = KeyFilter();
    }
  }

 private:
  // Never false-negative; a 256-key side sets ~6% of the bits.
  struct KeyFilter {
    uint64_t bits[64] = {};
    void Add(uint64_t h) { bits[(h >> 6) & 63] |= uint64_t{1} << (h & 63); }
    bool MayContain(uint64_t h) const { return ((bits[(h >> 6) & 63] >> (h & 63)) & 1) != 0; }
  };

  // The slow half of an Add: whether the other side holds `key`, and, when
  // the op will stay pending, `key` joins its own side's filter.
  bool IndexRead(std::string_view key);
  bool IndexWrite(std::string_view key);

  const size_t cap_;
  WriteBatch writes_;
  KeyFilter write_filter_;
  // keys_[0, n_reads_) are the pending reads; later slots keep their buffers
  // for the next ones.
  std::vector<std::string> keys_;
  size_t n_reads_ = 0;
  KeyFilter read_filter_;
};

}  // namespace gadget

#endif  // GADGET_STORES_OP_COALESCER_H_
