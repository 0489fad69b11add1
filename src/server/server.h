// The store service (DESIGN.md §6): N reactor threads that run every request
// to completion themselves; the server starts no other thread.
//
// Threading model:
//   * `io_threads` REACTOR threads, each owning a private epoll set and the
//     connections assigned to it. Accepted connections are sharded
//     round-robin across reactors (thread 0 also owns the listen socket) and
//     never migrate. Sockets are non-blocking and level-triggered; a reactor
//     recv()s each readable one until a read comes back short.
//   * A reactor decodes the frames a wake brought in on one connection in
//     bursts of at most kMaxBurstFrames and runs each burst to completion:
//     each shard's OpCoalescer groups its ops into WriteBatch / MultiGet
//     calls, and the reactor calls each shard's KVStore directly. Any
//     reactor may call any shard, because every engine is internally
//     synchronized; there is no shard ownership and no forwarding between
//     reactors.
//   * A store call that stalls (a sync, a compaction stall) blocks the
//     reactor that made it, and with it that reactor's other connections.
//     Other reactors keep running. With sync_writes, one reactor's syncs run
//     back to back, so synced writes overlap only across reactors.
//   * The burst's responses, in decode order, join the connection's OUTPUT
//     QUEUE once, so one writev carries them all; bursts queued behind a slow
//     socket coalesce into one gather list, and EPOLLOUT finishes what a
//     writev could not.
//
// Backpressure (one stage, no drops): a connection whose output queue holds
// more than `conn_outq_limit` bytes loses EPOLLIN until the queue drains
// below the limit (accounted as output_queue_stall_micros); frames already
// received wait undecoded. Its requests back up in TCP, which pushes the
// stall back to that client alone.
//
// Ordering: frames of one connection run in decode order per key, and their
// responses come back in decode order. A MULTI_GET or WRITE_BATCH whose keys
// span shards is split per shard and joined before its one response is
// queued. Cross-shard WRITE_BATCH is NOT atomic across shards (each shard
// applies its slice in its own epoch) — same contract a client gets by
// splitting the batch itself.
#ifndef GADGET_SERVER_SERVER_H_
#define GADGET_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/server/shard_set.h"
#include "src/stores/kvstore.h"

namespace gadget {
namespace wire {

// Most frames of one connection a reactor runs as one burst. A burst starts
// only while the connection's output queue is within conn_outq_limit.
constexpr size_t kMaxBurstFrames = 64;

struct ServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned; read back with Server::port()
  int shards = 4;
  StoreOptions store;  // per-shard template; see ShardSet::Open
  // Reactor count. 0 = min(4, hardware threads). Connections are assigned
  // round-robin at accept and never migrate.
  int io_threads = 0;
  // Max bytes of queued responses per connection before the reactor stops
  // reading it (the backpressure knob). A burst's responses are queued whole,
  // so the queue may overshoot by one burst (kMaxBurstFrames responses).
  size_t conn_outq_limit = 4 << 20;
  // Test hook: shrink each accepted socket's kernel send buffer so a stalled
  // reader makes writev hit EAGAIN with small payloads. 0 = kernel default.
  int so_sndbuf = 0;
};

// Snapshot of the network layer's counters; surfaced in STATS responses (the
// "net" object) and threaded into loadgen reports as `server.net`.
struct NetStats {
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t writev_calls = 0;
  // Most response frames ever submitted in one writev gather list — >1 means
  // pipelined bursts actually coalesced.
  uint64_t frames_per_writev_max = 0;
  // Time connections spent with reads paused behind a full output queue.
  uint64_t output_queue_stall_micros = 0;
  uint64_t output_queue_bytes_max = 0;
  uint64_t conns_accepted = 0;
  std::vector<uint64_t> thread_ops;  // frames decoded, per IO thread
};

class Server {
 public:
  // Binds the port, opens the shards, and starts the reactor threads.
  static StatusOr<std::unique_ptr<Server>> Start(const ServerOptions& options);

  ~Server();  // implies Stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }
  ShardSet* shard_set() { return shards_.get(); }

  // Resolved reactor count (options.io_threads after the 0 = auto default).
  int io_threads() const;
  // Point-in-time snapshot of the net-layer counters.
  NetStats net_stats() const;

  // Stops the reactors (each finishes the burst it is running), closes every
  // connection and every shard. Idempotent.
  void Stop();

 private:
  struct Impl;
  Server() = default;

  uint16_t port_ = 0;
  std::unique_ptr<ShardSet> shards_;
  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> io_threads_;
  bool stopped_ = false;
};

}  // namespace wire
}  // namespace gadget

#endif  // GADGET_SERVER_SERVER_H_
