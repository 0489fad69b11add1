// Gadget's performance evaluator (§5.5): replays a state access stream
// against a KV store, translating operations the engine lacks (merge ->
// read-modify-write on FASTER/BerkeleyDB), optionally paced by a service
// rate, and collects throughput + latency measurements.
#ifndef GADGET_GADGET_EVALUATOR_H_
#define GADGET_GADGET_EVALUATOR_H_

#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/stores/kvstore.h"
#include "src/streams/state_access.h"

namespace gadget {

struct ReplayOptions {
  // 0 = replay as fast as possible; otherwise pace requests to this rate
  // ("can be configured with a service rate to speed up or slow down the
  // trace arbitrarily", §5.5).
  double service_rate_ops_per_sec = 0;
  // Limit the number of operations replayed (0 = whole trace).
  uint64_t max_ops = 0;
  // Record per-op latency for every Nth operation. 1 (default) times every
  // operation exactly as before; larger values skip the two steady_clock
  // reads on unsampled ops, so throughput-oriented runs are not dominated by
  // clock overhead. Histogram counts then reflect sampled ops only;
  // ops/throughput always count every operation. 0 is treated as 1.
  uint64_t latency_sample_every = 1;
  // Added to every access's key.hi before encoding. Lets concurrent
  // instances replay one shared trace into disjoint key namespaces without
  // materializing a shifted copy of the trace per instance.
  uint64_t key_hi_offset = 0;
  // Coalesce up to this many operations into one Write(WriteBatch) /
  // MultiGet call under OpCoalescer's same-key rule (op_coalescer.h). At
  // every width a call of one op is made as the single-op call, so 1 makes
  // exactly one Get, Put, Merge (or ReadModifyWrite) or Delete per op.
  // Latency histograms record one sample per store call; ops/throughput
  // count every operation.
  uint64_t batch_size = 1;
  // When nonzero, collect a TimelineSample every N completed operations:
  // per-interval throughput, read/write latency histograms, not-found count,
  // and the store's StoreStats delta over the interval. The final interval
  // may be ragged (fewer than N ops); an interval closes at the first store
  // call at or after its boundary, so with batch_size above 1 mid-run
  // intervals can also overshoot by up to batch_size - 1 ops.
  uint64_t timeline_interval_ops = 0;
  // When nonzero (and checkpoint_dir is set), take a store checkpoint every
  // N completed operations into numbered subdirectories of checkpoint_dir
  // (cp-000000, cp-000001, ...). Each image is an exact trace prefix: the
  // replay runs both pending sides before checkpointing, so like timeline
  // intervals a checkpoint can land up to batch_size - 1 ops past its
  // boundary, but always at a point where the store state equals
  // trace[0, CheckpointSample::trace_pos).
  uint64_t checkpoint_every_ops = 0;
  std::string checkpoint_dir;
  // Pass the previous checkpoint as CheckpointOptions::base_dir so engines
  // with immutable file sets (LSM/Lethe) link unchanged files instead of
  // re-capturing them.
  bool checkpoint_incremental = true;
  // Passed through to every Get/MultiGet the replay issues (fill_cache and
  // verify_checksums — see src/stores/read_options.h).
  ReadOptions read_options;
};

// One interval of a replay's timeline (ReplayOptions::timeline_interval_ops).
// Keeps full latency histograms rather than pre-computed percentiles so
// concurrent-replay merges stay bucket-wise exact.
struct TimelineSample {
  uint64_t index = 0;        // 0-based interval number within the replay
  uint64_t ops = 0;          // operations completed in this interval
  double start_seconds = 0;  // interval bounds relative to replay start
  double end_seconds = 0;
  double ops_per_sec = 0;
  uint64_t not_found = 0;
  LatencyHistogram read_latency_ns;
  LatencyHistogram write_latency_ns;
  StoreStats stats_delta;  // store counters consumed during this interval
  // Checkpoints cut during this interval and the replay time they consumed —
  // marks checkpoint intervals on the timeline so throughput dips are
  // attributable.
  uint64_t checkpoints = 0;
  uint64_t checkpoint_micros = 0;

  // Folds the same-index sample of a concurrently measured result into this
  // one: ops/not_found add, bounds widen (min start, max end), throughput is
  // recomputed over the widened span, histograms merge bucket-wise, and
  // stats_delta takes the element-wise max — concurrent instances share one
  // store, so each delta already observes the whole store's counters and
  // summing them would multiply by the thread count.
  void MergeFrom(const TimelineSample& other);
};

// One checkpoint taken during replay (ReplayOptions::checkpoint_every_ops).
struct CheckpointSample {
  uint64_t index = 0;      // 0-based checkpoint number within the replay
  uint64_t trace_pos = 0;  // the image equals a replay of trace[0, trace_pos)
  double at_seconds = 0;   // completion time relative to replay start
  uint64_t duration_micros = 0;
  // From CheckpointInfo: image size and how it was captured.
  uint64_t bytes = 0;
  uint64_t files = 0;
  uint64_t hard_links = 0;
  uint64_t reused = 0;
  std::string dir;  // where the image lives (input to RestoreStore)
};

// Result of the crash/restore scenario the harness runs after a checkpointed
// replay: restore from the last checkpoint, replay the trace gap, and verify
// every distinct trace key against an in-memory oracle. Emitted as the
// "recovery" object of gadget.report/1.
struct RecoveryResult {
  uint64_t checkpoint_index = 0;      // which checkpoint was restored
  uint64_t checkpoint_trace_pos = 0;  // its trace prefix length
  uint64_t restore_micros = 0;        // RestoreStore: materialize + recover
  uint64_t replay_gap_ops = 0;        // trace[trace_pos, end) replayed on top
  uint64_t replay_gap_micros = 0;
  uint64_t verified_keys = 0;   // distinct keys compared against the oracle
  uint64_t mismatched_keys = 0; // 0 == restore matches a crash-free replay
};

struct ReplayResult {
  uint64_t ops = 0;
  double elapsed_seconds = 0;
  double throughput_ops_per_sec = 0;
  LatencyHistogram latency_ns;          // all operations
  LatencyHistogram read_latency_ns;     // gets
  LatencyHistogram write_latency_ns;    // puts/merges/rmws/deletes
  uint64_t not_found = 0;               // gets that missed (expected for probes)
  // Per-interval samples, empty unless timeline_interval_ops was set.
  std::vector<TimelineSample> timeline;
  // Checkpoints taken, empty unless checkpoint_every_ops was set. Ordered by
  // trace_pos; MergeFrom appends (checkpointing is single-instance).
  std::vector<CheckpointSample> checkpoints;

  // Folds `other` (a result measured on a concurrently running thread) into
  // this one: op counts add, histograms merge bucket-wise (O(buckets), no
  // per-sample work), elapsed takes the max, and throughput is recomputed as
  // total ops over that wall-clock span. Timelines merge sample-wise by
  // interval index (see TimelineSample::MergeFrom); a longer timeline's
  // trailing samples are appended as-is.
  void MergeFrom(const ReplayResult& other);

  std::string Summary() const;
};

// The WriteBatch op of a trace write (any op but kGet).
inline WriteBatch::Op WriteOpOf(OpType op) {
  switch (op) {
    case OpType::kMerge:
      return WriteBatch::Op::kMerge;
    case OpType::kDelete:
      return WriteBatch::Op::kDelete;
    default:
      return WriteBatch::Op::kPut;
  }
}

// Replays `trace` against `store`. Values are deterministic synthetic bytes
// of each access's value_size. Returns IoError/Corruption if the store
// fails; NotFound from gets is counted, not fatal.
StatusOr<ReplayResult> ReplayTrace(const std::vector<StateAccess>& trace, KVStore* store,
                                   const ReplayOptions& options = {});

}  // namespace gadget

#endif  // GADGET_GADGET_EVALUATOR_H_
