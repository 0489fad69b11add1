// Config-driven harness: one entry point that wires event generation,
// workload generation, trace files, store evaluation, and trace analysis
// from a flat key=value config (the interface the original Gadget exposes,
// paper appendix A.4.1). Used by the `gadget` CLI in tools/.
//
// Recognized keys (defaults in parentheses):
//   mode             online | offline | replay | analyze | ycsb  (online)
//   operator         one of the eleven workload names             (tumbling_incr)
//   source           synthetic | borg | taxi | azure              (synthetic)
//   events           number of input events                       (100000)
//   seed             master RNG seed                              (42)
//   keys             synthetic key-space size                     (1000)
//   key_distribution uniform|zipfian|scrambled_zipfian|hotspot|
//                    sequential|exponential|latest                (zipfian)
//   arrival          constant | poisson | bursty                  (poisson)
//   rate             events per second                            (1000)
//   value_size       payload bytes                                (64)
//   watermark_every  events per punctuated watermark              (100)
//   out_of_order     fraction of late events                      (0)
//   max_lateness_ms  lateness bound for late events               (0)
//   window_length_ms / window_slide_ms / session_gap_ms /
//   join_lower_ms / join_upper_ms / allowed_lateness_ms           (paper defaults)
//   store            mem | lsm | lethe | faster | btree           (lsm)
//   store_dir        storage directory (temp dir if empty)
//   buffer_pool_bytes shared buffer pool capacity (LSM/Lethe blocks
//                    + btree pages), 0 = pool default              (0)
//   buffer_pool_shards pool shard count                            (8)
//   store_log_memory_bytes FASTER in-memory log window, 0 =
//                    engine default                                (0)
//   fill_cache       admit replay read misses to the pool (the
//                    CLI's --fill_cache=true|false)                (true)
//   verify_checksums CRC-check every fetched block                 (true)
//   store_stripes    MemStore lock-stripe count, 0 = default      (0)
//   sync_writes      fsync the WAL/log on every commit (group
//                    commit makes this per-batch with batching);
//                    store=btree has no log and refuses it        (false)
//   batch_size       coalesce up to N ops into one WriteBatch /
//                    MultiGet (OpCoalescer), 1 = op-at-a-time     (1)
//   service_rate     replay pacing, ops/s, 0 = unpaced            (0)
//   max_ops          replay budget, 0 = whole trace               (0)
//   timeline_interval evaluation timeline sample width in ops, 0 =
//                    no timeline (the CLI's --timeline_interval=N)  (0)
//   checkpoint_every checkpoint the store every N replayed ops (the
//                    CLI's --checkpoint_every=N); after the replay
//                    the harness restores from the latest checkpoint,
//                    replays the trace gap, and verifies the restored
//                    store against an in-memory oracle, reporting
//                    checkpoint duration/size and recovery time.
//                    0 = no checkpointing                           (0)
//   checkpoint_dir   where checkpoint images go (a sibling of the
//                    store dir if empty)
//   checkpoint_incremental  link unchanged SSTables from the previous
//                    checkpoint instead of re-capturing (LSM/Lethe)  (true)
//   report           write a gadget.report/1 JSON run report here
//                    (the CLI's --report=FILE; see src/gadget/report.h)
//   trace_out        offline mode: output trace path
//   trace_in         replay/analyze mode: input trace path
//   analyze          also print trace analysis in online/offline  (false)
//   ycsb_workload    A | D | F (mode=ycsb)                        (A)
//   ycsb_records / ycsb_distribution                              (1000 / preset)
#ifndef GADGET_GADGET_HARNESS_H_
#define GADGET_GADGET_HARNESS_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/status.h"
#include "src/stores/kvstore.h"
#include "src/streams/state_access.h"

namespace gadget {

// Runs the experiment described by `config`, writing human-readable results
// to `out`. Returns the first error encountered.
Status RunHarness(const Config& config, std::ostream& out);

// Materializes the access trace `config` describes without replaying it:
// trace_in=<path> when set, otherwise the source/operator generation path
// RunHarness itself uses. This is how the service loadgen replays the same
// workloads the in-process evaluator does.
StatusOr<std::vector<StateAccess>> BuildAccessTrace(const Config& config);

// The StoreOptions `config` describes (store / buffer_pool_* / sync_writes /
// batch_size keys; see the key table above) rooted at `dir`.
StoreOptions StoreOptionsFromConfig(const Config& config, std::string dir);

}  // namespace gadget

#endif  // GADGET_GADGET_HARNESS_H_
