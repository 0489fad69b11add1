#include "src/stores/op_coalescer.h"

#include "src/common/hash.h"

namespace gadget {

// An empty side's filter is clear, so it never reports a conflict.
bool OpCoalescer::IndexRead(std::string_view key) {
  const uint64_t h = Hash64(key);
  bool other = false;
  for (size_t i = 0; write_filter_.MayContain(h) && i < writes_.size() && !other; ++i) {
    other = writes_.entry(i).key == key;
  }
  if (n_reads_ + 1 < cap_) {
    read_filter_.Add(h);
  }
  return other;
}

bool OpCoalescer::IndexWrite(std::string_view key) {
  const uint64_t h = Hash64(key);
  bool other = false;
  for (size_t i = 0; read_filter_.MayContain(h) && i < n_reads_ && !other; ++i) {
    other = keys_[i] == key;
  }
  if (writes_.size() + 1 < cap_) {
    write_filter_.Add(h);
  }
  return other;
}

}  // namespace gadget
