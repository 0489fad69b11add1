// Wire-level load generator for the store service (DESIGN.md §6).
//
// RunLoadgen replays a Gadget access trace against a running server from
// `clients` threads, each owning one pooled connection. The trace is
// partitioned by key hash — every key's operations land on exactly one
// client thread, in trace order, so per-key ordering survives the fan-out
// (the same invariant ReplaySharded relies on in-process). Each thread
// batches through one OpCoalescer, as the in-process replay and the server
// do: its writes fill WRITE_BATCH frames and its reads MULTI_GET frames, and
// keeps up to `pipeline_depth` frames in flight, matching responses by
// correlation id.
//
// Measurements are wire-level: each frame's latency is recorded once at
// response match (the latency an operator would see for the whole batch,
// mirroring the in-process batched replay convention), merged across threads
// into one ReplayResult. The result also carries the loss/duplication
// accounting the server-smoke CI gate checks (ops_sent vs ops_acked) and the
// client-side shard routing histogram that feeds the shard-skew gauge.
#ifndef GADGET_SERVER_LOADGEN_H_
#define GADGET_SERVER_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/gadget/evaluator.h"
#include "src/streams/state_access.h"

namespace gadget {
namespace wire {

struct LoadgenOptions {
  uint16_t port = 0;
  // Replay threads; each holds one pooled connection for the whole run.
  int clients = 4;
  // Must match the server's shard count: the router is a pure function of
  // it, so client and server agree on key placement with no coordination.
  int shards = 4;
  // Max operations coalesced into one WRITE_BATCH / MULTI_GET frame.
  uint64_t batch_size = 32;
  // Max frames in flight per connection before the sender blocks on a
  // response (the client half of the pipelining the protocol allows).
  uint64_t pipeline_depth = 4;
  // Replay budget, 0 = whole trace.
  uint64_t max_ops = 0;
  // Initial-connect retry budget: connection-refused is retried with bounded
  // backoff for about this long before giving up, so a loadgen launched in
  // parallel with `gadget serve` cannot lose the boot race. 0 = fail fast.
  int connect_budget_ms = 2000;
};

struct LoadgenResult {
  // Merged wire-level measurements across all client threads. `ops` counts
  // acknowledged operations; latency histograms hold one sample per frame.
  ReplayResult replay;
  // Loss/duplication accounting: a clean run has ops_acked == ops_sent and
  // errors == 0.
  uint64_t ops_sent = 0;
  uint64_t ops_acked = 0;
  uint64_t errors = 0;
  // Client-side routing histogram: operations routed to each shard.
  std::vector<uint64_t> shard_ops;
  // max(shard_ops) / mean(shard_ops); 1.0 = perfectly even. The gauge the
  // Zipf skew experiment reports.
  double shard_skew = 0;
  // The server's STATS document (per-shard + merged StoreStats), fetched
  // after the replay finishes.
  std::string server_stats_json;
};

// Replays `trace` against the server at 127.0.0.1:port. A server still
// booting (connection refused) is retried within connect_budget_ms; any other
// unreachability fails fast. Per-request server errors are counted in
// `errors`, not fatal.
StatusOr<LoadgenResult> RunLoadgen(const std::vector<StateAccess>& trace,
                                   const LoadgenOptions& options);

}  // namespace wire
}  // namespace gadget

#endif  // GADGET_SERVER_LOADGEN_H_
