// Per-read knobs shared by every engine (KVStore::Get / MultiGet take one).
// Kept in its own header so low-level readers can use it without pulling in
// the full KVStore interface.
#ifndef GADGET_STORES_READ_OPTIONS_H_
#define GADGET_STORES_READ_OPTIONS_H_

namespace gadget {

struct ReadOptions {
  // Insert blocks/pages fetched on a miss into the buffer pool. Disable for
  // scans that would wipe the working set.
  bool fill_cache = true;
  // Verify block CRCs on every pool miss. Disabling trades integrity checks
  // for read throughput (index/footer blocks are always verified at open).
  bool verify_checksums = true;
};

}  // namespace gadget

#endif  // GADGET_STORES_READ_OPTIONS_H_
