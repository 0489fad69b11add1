// Tuning knobs for the LSM engine. Defaults follow the paper's RocksDB
// configuration (§6: two 128MB memtables, 64MB block cache) scaled down 8x so
// the full benchmark suite runs on a laptop; ratios are preserved. Benches
// can restore paper-scale budgets via these options.
#ifndef GADGET_STORES_LSM_OPTIONS_H_
#define GADGET_STORES_LSM_OPTIONS_H_

#include <cstdint>

namespace gadget {

struct LsmOptions {
  // Memtable budget: writes rotate between up to `max_write_buffers` buffers
  // of `write_buffer_size` bytes each (paper: 2 x 128MB; scaled: 2 x 16MB).
  uint64_t write_buffer_size = 16ull << 20;
  int max_write_buffers = 2;

  // Write pipeline (DESIGN.md §5e). A full memtable is sealed onto a bounded
  // queue of immutables and flushed to L0 by a dedicated flusher thread, so
  // writers never do SSTable I/O inline. Values below 1 act as 1.
  int max_immutable_memtables = 2;

  // Maximum parallel subcompactions per compaction job: the input key range
  // is split into up to this many disjoint sub-ranges (at input-file
  // boundaries) merged concurrently. 1 = fully serial compaction.
  int compaction_threads = 2;

  // Block caching is no longer per-store: data blocks live in the shared
  // BufferPool passed to LsmStore::Open (sized by StoreOptions::buffer_pool).

  uint32_t block_size = 4096;
  int bloom_bits_per_key = 10;

  // Leveled compaction shape.
  int l0_compaction_trigger = 4;    // # L0 files that triggers L0->L1
  int l0_slowdown_limit = 8;        // writers sleep briefly above this many L0 files
  int l0_stall_limit = 12;          // writer stalls above this many L0 files
  uint64_t max_bytes_level_base = 32ull << 20;  // L1 target size
  double level_size_multiplier = 10.0;
  uint64_t target_file_size = 4ull << 20;
  int num_levels = 6;

  // Durability: fsync WAL on every write (off by default, like RocksDB's
  // default WriteOptions). With the cross-writer group commit, one fdatasync
  // covers every writer in the committing group.
  bool sync_writes = false;

  // Lethe mode (§6: "we further set the Lethe delete threshold to 10s"):
  // SSTables holding tombstones older than delete_persistence_ms are
  // force-compacted so deleted space is reclaimed promptly.
  bool delete_aware = false;
  uint64_t delete_persistence_ms = 10'000;
};

}  // namespace gadget

#endif  // GADGET_STORES_LSM_OPTIONS_H_
