#include "src/server/loadgen.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/server/client.h"
#include "src/server/router.h"
#include "src/stores/op_coalescer.h"

namespace gadget {
namespace wire {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// One frame awaiting its response on a client thread's connection.
struct Pending {
  uint64_t ops = 0;
  bool is_read = false;
  Clock::time_point sent_at;
};

// Per-thread replay state and tallies; merged after join.
struct ThreadState {
  ReplayResult replay;
  uint64_t ops_sent = 0;
  uint64_t ops_acked = 0;
  uint64_t errors = 0;
  Status status;
};

// Receives one response, matches it to an in-flight frame, and records the
// frame's wire latency. An unmatched id or a connection-fatal error (id 0)
// is fatal: it means the stream is corrupt, not that one request failed.
Status DrainOne(net::FramedConn* conn, std::unordered_map<uint32_t, Pending>* in_flight,
                ThreadState* st) {
  Response resp;
  GADGET_RETURN_IF_ERROR(conn->RecvResponse(&resp));
  if (resp.type == MsgType::kError && resp.id == 0) {
    return Status::IoError("server closed connection: " + resp.value);
  }
  auto it = in_flight->find(resp.id);
  if (it == in_flight->end()) {
    return Status::IoError("unmatched response id " + std::to_string(resp.id));
  }
  const Pending p = it->second;
  in_flight->erase(it);
  const uint64_t ns = ElapsedNs(p.sent_at, Clock::now());
  if (resp.type == MsgType::kError) {
    st->errors += p.ops;
    return Status::Ok();
  }
  st->replay.latency_ns.Record(ns);
  if (p.is_read) {
    st->replay.read_latency_ns.Record(ns);
    if (resp.type != MsgType::kMulti) {
      return Status::IoError(std::string("unexpected read response ") + MsgTypeName(resp.type));
    }
    for (uint8_t s : resp.statuses) {
      if (s == kMultiError) {
        ++st->errors;  // a failed read is not an ack
        continue;
      }
      if (s == kMultiNotFound) {
        ++st->replay.not_found;
      }
      ++st->ops_acked;
    }
  } else {
    st->replay.write_latency_ns.Record(ns);
    if (resp.type != MsgType::kOk) {
      return Status::IoError(std::string("unexpected write response ") + MsgTypeName(resp.type));
    }
    st->ops_acked += p.ops;
  }
  return Status::Ok();
}

// One client thread's replay of its key-partition of the trace.
void ReplayPartition(const std::vector<StateAccess>& trace, uint64_t limit, int thread_index,
                     int clients, const LoadgenOptions& options, Client::Lease lease,
                     ThreadState* st) {
  net::FramedConn* conn = lease.conn();
  std::unordered_map<uint32_t, Pending> in_flight;
  OpCoalescer pending(static_cast<size_t>(options.batch_size));
  std::string key;
  std::string value_buf;

  auto send_frame = [&](std::string_view frame, uint32_t id, uint64_t ops,
                        bool is_read) -> Status {
    // Block on responses before exceeding the pipeline window.
    while (in_flight.size() >= options.pipeline_depth) {
      GADGET_RETURN_IF_ERROR(DrainOne(conn, &in_flight, st));
    }
    in_flight.emplace(id, Pending{ops, is_read, Clock::now()});
    GADGET_RETURN_IF_ERROR(conn->Send(frame));
    st->ops_sent += ops;
    return Status::Ok();
  };
  auto send_writes = [&]() -> Status {
    const WriteBatch& wb = pending.writes();
    if (wb.empty()) {
      return Status::Ok();
    }
    const uint32_t id = lease.NextId();
    std::string frame;
    AppendWriteBatchRequest(&frame, id, wb);
    const uint64_t n = wb.size();
    pending.ClearWrites();
    return send_frame(frame, id, n, /*is_read=*/false);
  };
  auto send_reads = [&]() -> Status {
    const uint64_t n = pending.pending_reads();
    if (n == 0) {
      return Status::Ok();
    }
    const uint32_t id = lease.NextId();
    std::string frame;
    AppendMultiGetRequest(&frame, id, pending.reads());
    pending.ClearReads();
    return send_frame(frame, id, n, /*is_read=*/true);
  };

  auto run = [&]() -> Status {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < limit; ++i) {
      const StateAccess& a = trace[i];
      EncodeStateKeyTo(a.key, &key);
      // Key-hash partition: every key belongs to exactly one thread, so
      // per-key trace order survives the fan-out.
      if (Hash64(key) % static_cast<uint64_t>(clients) !=
          static_cast<uint64_t>(thread_index)) {
        continue;
      }
      const bool is_read = a.op == OpType::kGet;
      if (!is_read && a.value_size > value_buf.size()) {
        value_buf.resize(a.value_size, 'v');  // the evaluator's synthetic values
      }
      const OpCoalescer::Due due =
          is_read ? pending.AddRead(key)
                  : pending.AddWrite(WriteOpOf(a.op), key,
                                     std::string_view(value_buf.data(), a.value_size));
      if (due.other) {
        GADGET_RETURN_IF_ERROR(is_read ? send_writes() : send_reads());
      }
      if (due.own) {
        GADGET_RETURN_IF_ERROR(is_read ? send_reads() : send_writes());
      }
    }
    // The trailing sides share no key, so either order is correct.
    GADGET_RETURN_IF_ERROR(send_writes());
    GADGET_RETURN_IF_ERROR(send_reads());
    while (!in_flight.empty()) {
      GADGET_RETURN_IF_ERROR(DrainOne(conn, &in_flight, st));
    }
    const auto end = Clock::now();
    st->replay.ops = st->ops_acked;
    st->replay.elapsed_seconds = static_cast<double>(ElapsedNs(start, end)) / 1e9;
    st->replay.throughput_ops_per_sec =
        st->replay.elapsed_seconds > 0
            ? static_cast<double>(st->replay.ops) / st->replay.elapsed_seconds
            : 0;
    return Status::Ok();
  };
  st->status = run();
}

}  // namespace

StatusOr<LoadgenResult> RunLoadgen(const std::vector<StateAccess>& trace,
                                   const LoadgenOptions& options) {
  if (options.clients < 1) {
    return Status::InvalidArgument("loadgen clients must be >= 1");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("loadgen shards must be >= 1");
  }
  auto client = Client::Connect(options.port, options.clients, options.connect_budget_ms);
  if (!client.ok()) {
    return client.status();
  }
  GADGET_RETURN_IF_ERROR((*client)->Ping());  // fail fast on a half-open server

  const uint64_t limit =
      options.max_ops == 0 ? trace.size() : std::min<uint64_t>(options.max_ops, trace.size());

  LoadgenResult out;
  // Client-side routing histogram: what the server's shards are about to see.
  ConsistentHashRouter router(options.shards);
  out.shard_ops.assign(static_cast<size_t>(options.shards), 0);
  std::string key;
  for (uint64_t i = 0; i < limit; ++i) {
    EncodeStateKeyTo(trace[i].key, &key);
    ++out.shard_ops[static_cast<size_t>(router.Route(key))];
  }
  uint64_t max_ops = 0;
  uint64_t total_ops = 0;
  for (uint64_t n : out.shard_ops) {
    max_ops = std::max(max_ops, n);
    total_ops += n;
  }
  const double mean =
      static_cast<double>(total_ops) / static_cast<double>(options.shards);
  out.shard_skew = mean > 0 ? static_cast<double>(max_ops) / mean : 0;

  std::vector<ThreadState> states(static_cast<size_t>(options.clients));
  std::vector<std::thread> threads;
  threads.reserve(states.size());
  for (int t = 0; t < options.clients; ++t) {
    threads.emplace_back([&, t] {
      ReplayPartition(trace, limit, t, options.clients, options, (*client)->AcquireLease(),
                      &states[static_cast<size_t>(t)]);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  Status first;
  bool merged_any = false;
  for (const ThreadState& st : states) {
    if (!st.status.ok() && first.ok()) {
      first = st.status;
    }
    out.ops_sent += st.ops_sent;
    out.ops_acked += st.ops_acked;
    out.errors += st.errors;
    if (!merged_any) {
      out.replay = st.replay;
      merged_any = true;
    } else {
      out.replay.MergeFrom(st.replay);
    }
  }
  GADGET_RETURN_IF_ERROR(first);

  auto stats = (*client)->StatsJson();
  if (!stats.ok()) {
    return stats.status();
  }
  out.server_stats_json = std::move(*stats);
  return out;
}

}  // namespace wire
}  // namespace gadget
