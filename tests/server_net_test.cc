// Tests for the multi-reactor network path (src/server/server.cc): connection
// sharding across IO threads, every engine called by several reactors at
// once, a burst's per-shard coalescing against a serial store (and its
// 256-op side cap), pipelined-response writev coalescing, the bounded
// per-connection output queue under a deliberately stalled reader (frames
// stay whole and in order, its reads pause, other connections keep being
// served), and the boot-race connect retry. These are the TSan-lane
// subjects: everything here runs multiple reactors and client threads
// against the same stores, counters and queues.
#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/config.h"
#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/harness.h"
#include "src/server/client.h"
#include "src/server/loadgen.h"
#include "src/server/net/socket.h"
#include "src/server/router.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/stores/kvstore.h"

namespace gadget {
namespace wire {
namespace {

void SleepMs(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

// Net counters are bumped AFTER the write syscall returns, so a client can
// read its response a beat before the reactor (descheduled mid-drain) runs
// the increments. Polls until `settled` holds or ~1s passes; either way
// the caller's assertions run against the returned snapshot.
template <typename Pred>
NetStats WaitForNet(Server* server, Pred settled) {
  NetStats ns = server->net_stats();
  for (int i = 0; i < 200 && !settled(ns); ++i) {
    SleepMs(5);
    ns = server->net_stats();
  }
  return ns;
}

// ------------------------------------------------------- reactor sharding

// Eight pooled connections round-robin across four reactors, so after one
// ping per connection every reactor must have decoded frames; the STATS
// document exposes the same gauges the report carries.
TEST(ServerNetTest, ConnectionsShardAcrossReactors) {
  ServerOptions opts;
  opts.shards = 2;
  opts.io_threads = 4;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ((*server)->io_threads(), 4);

  auto client = Client::Connect((*server)->port(), /*pool_size=*/8);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*client)->Ping().ok());
  }

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    if (s.bytes_out == 0 || s.writev_calls == 0) {
      return false;
    }
    for (uint64_t n : s.thread_ops) {
      if (n == 0) {
        return false;
      }
    }
    return true;
  });
  ASSERT_EQ(ns.thread_ops.size(), 4u);
  for (size_t t = 0; t < ns.thread_ops.size(); ++t) {
    EXPECT_GT(ns.thread_ops[t], 0u) << "reactor " << t << " never decoded a frame";
  }
  EXPECT_GE(ns.conns_accepted, 8u);
  EXPECT_GT(ns.bytes_in, 0u);
  EXPECT_GT(ns.bytes_out, 0u);
  EXPECT_GT(ns.writev_calls, 0u);

  // The same counters ride inside STATS as the "net" object (what loadgen
  // reports copy into server.net for report_check).
  auto stats = (*client)->StatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto doc = ParseJson(*stats);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* net = doc->Get("net");
  ASSERT_NE(net, nullptr) << "STATS lost the net object";
  EXPECT_EQ(net->GetUint("io_threads"), 4u);
  const JsonValue* thread_ops = net->Get("thread_ops");
  ASSERT_NE(thread_ops, nullptr);
  ASSERT_TRUE(thread_ops->is_array());
  EXPECT_EQ(thread_ops->size(), 4u);
  EXPECT_GT(net->GetUint("bytes_out"), 0u);

  (*server)->Stop();
}

// A loadgen replay against a 4-reactor server converges to exactly the oracle
// state, on every engine: sharding connections across IO threads must not
// lose, duplicate, or cross-wire a single operation, and each shard's store
// must hold up while up to four reactors call it at once.
class ServerNetEngineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServerNetEngineTest, MultiReactorReplayMatchesOracle) {
  Config config;
  config.Set("source", "borg");
  config.Set("events", "3000");
  config.Set("seed", "29");
  auto trace = BuildAccessTrace(config);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  ScopedTempDir tmp("gadget-server-net-test");
  ServerOptions sopts;
  sopts.shards = 2;
  sopts.io_threads = 4;
  sopts.store.engine = GetParam();
  sopts.store.dir = tmp.path() + "/db";
  auto server = Server::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LoadgenOptions lopts;
  lopts.port = (*server)->port();
  lopts.clients = 8;
  lopts.shards = 2;
  lopts.batch_size = 16;
  lopts.pipeline_depth = 4;
  auto result = RunLoadgen(*trace, lopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ops_sent, trace->size());
  EXPECT_EQ(result->ops_acked, result->ops_sent);
  EXPECT_EQ(result->errors, 0u);

  // Oracle: the same trace replayed into one in-process MemStore; every
  // distinct key must agree over the wire.
  StoreOptions oracle_opts;
  oracle_opts.engine = "mem";
  auto oracle = OpenStore(oracle_opts);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(ReplayTrace(*trace, oracle->get()).ok());
  std::set<std::string> keys;
  std::string key;
  for (const StateAccess& a : *trace) {
    EncodeStateKeyTo(a.key, &key);
    keys.insert(key);
  }
  auto client = Client::Connect((*server)->port(), 1);
  ASSERT_TRUE(client.ok());
  for (const std::string& k : keys) {
    std::string expect;
    std::string got;
    const Status se = (*oracle)->Get(k, &expect);
    ASSERT_TRUE(se.ok() || se.IsNotFound());
    const Status sg = (*client)->Get(k, &got);
    if (se.IsNotFound()) {
      EXPECT_TRUE(sg.IsNotFound());
    } else {
      ASSERT_TRUE(sg.ok()) << sg.ToString();
      EXPECT_EQ(got, expect);
    }
  }
  ASSERT_TRUE((*oracle)->Close().ok());

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    return s.conns_accepted >= 8 && s.bytes_out > 0;
  });
  ASSERT_EQ(ns.thread_ops.size(), 4u);
  uint64_t decoded = 0;
  for (uint64_t n : ns.thread_ops) {
    decoded += n;
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GE(ns.conns_accepted, 8u);
  (*server)->Stop();
}

INSTANTIATE_TEST_SUITE_P(Engines, ServerNetEngineTest,
                         ::testing::Values("mem", "lsm", "btree", "faster"),
                         [](const auto& spec) { return std::string(spec.param); });

// ------------------------------------------------- run to completion

// One pipelined burst that spans four shards: PUTs, a MULTI_GET and a
// WRITE_BATCH of deletes whose keys cross every shard, a GET of a deleted
// key, and STATS. The reactor runs it in decode order: the MULTI_GET sees
// every PUT, the GET sees the delete, STATS counts everything before it, and
// the responses come back in request order.
TEST(ServerNetTest, BurstRunsInDecodeOrderAcrossShards) {
  ServerOptions opts;
  opts.shards = 4;
  opts.io_threads = 1;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto fd = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::FramedConn conn(*fd);

  constexpr int kKeys = 64;
  std::vector<std::string> keys;
  std::string out;
  uint32_t id = 0;
  WriteBatch deletes;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("order-" + std::to_string(i));
    AppendPutRequest(&out, ++id, keys.back(), "v" + std::to_string(i));
    if (i % 2 == 0) {
      deletes.Delete(keys.back());
    }
  }
  AppendMultiGetRequest(&out, ++id, keys);
  AppendWriteBatchRequest(&out, ++id, deletes);
  AppendGetRequest(&out, ++id, keys[0]);
  AppendStatsRequest(&out, ++id);
  ASSERT_TRUE(conn.Send(out).ok());

  for (uint32_t want = 1; want <= id; ++want) {
    Response rsp;
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok()) << "response " << want;
    ASSERT_EQ(rsp.id, want) << "responses left decode order";
    if (want <= kKeys) {
      EXPECT_EQ(rsp.type, MsgType::kOk);
    } else if (want == kKeys + 1) {
      ASSERT_EQ(rsp.type, MsgType::kMulti);
      ASSERT_EQ(rsp.statuses.size(), static_cast<size_t>(kKeys));
      for (int i = 0; i < kKeys; ++i) {
        EXPECT_EQ(rsp.statuses[i], kMultiFound) << keys[i];
        EXPECT_EQ(rsp.values[i], "v" + std::to_string(i));
      }
    } else if (want == kKeys + 2) {
      EXPECT_EQ(rsp.type, MsgType::kOk);
    } else if (want == kKeys + 3) {
      EXPECT_EQ(rsp.type, MsgType::kNotFound) << "GET ran before the earlier delete";
    } else {
      ASSERT_EQ(rsp.type, MsgType::kStatsText);
      auto doc = ParseJson(rsp.value);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      const JsonValue* merged = doc->Get("merged");
      ASSERT_NE(merged, nullptr);
      EXPECT_EQ(merged->GetUint("puts"), static_cast<uint64_t>(kKeys));
      EXPECT_EQ(merged->GetUint("deletes"), static_cast<uint64_t>(kKeys / 2));
      EXPECT_EQ(merged->GetUint("gets"), static_cast<uint64_t>(kKeys + 1));
    }
  }
  (*server)->Stop();
}

// ------------------------------------------------- one coalescing rule

// A request's expected response.
struct Expected {
  MsgType type = MsgType::kOk;
  std::string value;              // kValue
  std::vector<uint8_t> statuses;  // kMulti
  std::vector<std::string> values;
};

// Applies one request to the serial store and returns its expected response.
Expected ApplySerially(KVStore* store, MsgType type, const std::vector<std::string>& keys,
                       const WriteBatch& batch) {
  Expected e;
  std::string value;
  switch (type) {
    case MsgType::kGet: {
      const Status s = store->Get(keys[0], &value);
      e.type = s.ok() ? MsgType::kValue : MsgType::kNotFound;
      e.value = s.ok() ? value : "";
      break;
    }
    case MsgType::kMultiGet:
      e.type = MsgType::kMulti;
      for (const std::string& k : keys) {
        const Status s = store->Get(k, &value);
        e.statuses.push_back(s.ok() ? kMultiFound : kMultiNotFound);
        e.values.push_back(s.ok() ? value : "");
      }
      break;
    default:  // every write is a batch here
      EXPECT_TRUE(store->Write(batch).ok());
      break;
  }
  return e;
}

// One Send pipelines a random mix of GET, MULTI_GET, PUT, MERGE, DELETE and
// WRITE_BATCH frames over 12 keys on 4 shards, so same-key conflicts are
// frequent across frames and shards. Some frames carry more than 256 ops of
// one shard, which the server's per-side cap splits. Every response must be
// what the frames give applied one at a time to a MemStore.
TEST(ServerNetTest, PipelinedRandomMixMatchesSerialStore) {
  ServerOptions opts;
  opts.shards = 4;
  opts.io_threads = 1;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto fd = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::FramedConn conn(*fd);
  StoreOptions mem;
  mem.engine = "mem";
  auto serial = OpenStore(mem);
  ASSERT_TRUE(serial.ok());

  const ConsistentHashRouter router(4);
  std::vector<std::string> keys;
  std::vector<std::string> shard0_keys;
  for (int i = 0; keys.size() < 12 || shard0_keys.empty(); ++i) {
    keys.push_back("mix-" + std::to_string(i));
    if (router.Route(keys.back()) == 0) {
      shard0_keys.push_back(keys.back());
    }
  }
  std::mt19937_64 rng(2024);
  auto pick = [&](const std::vector<std::string>& from) { return from[rng() % from.size()]; };

  std::string out;
  std::vector<Expected> want;
  int long_frames = 0;
  for (uint32_t id = 1; id <= 1500; ++id) {
    std::vector<std::string> read_keys;
    WriteBatch batch;
    MsgType type = MsgType::kWriteBatch;
    const std::string value = std::to_string(id) + ";";
    const uint64_t kind = rng() % 8;
    // About one frame in 100 carries 300 ops of shard 0: past the cap.
    const size_t long_run = rng() % 100 == 0 ? 300 : 0;
    if (kind == 0) {
      type = MsgType::kGet;
      read_keys.push_back(pick(keys));
      AppendGetRequest(&out, id, read_keys[0]);
    } else if (kind == 1 || (kind == 2 && long_run != 0)) {
      type = MsgType::kMultiGet;
      for (size_t n = long_run != 0 ? long_run : 1 + rng() % 8; n > 0; --n) {
        read_keys.push_back(long_run != 0 ? pick(shard0_keys) : pick(keys));
      }
      AppendMultiGetRequest(&out, id, read_keys);
    } else if (kind == 2) {
      batch.Put(pick(keys), value);
      AppendPutRequest(&out, id, batch.entry(0).key, value);
    } else if (kind == 3) {
      batch.Merge(pick(keys), value);
      AppendMergeRequest(&out, id, batch.entry(0).key, value);
    } else if (kind == 4) {
      batch.Delete(pick(keys));
      AppendDeleteRequest(&out, id, batch.entry(0).key);
    } else {
      for (size_t n = long_run != 0 ? long_run : 1 + rng() % 8; n > 0; --n) {
        const std::string k = long_run != 0 ? pick(shard0_keys) : pick(keys);
        const uint64_t op = rng() % 3;
        if (op == 0) {
          batch.Put(k, value);
        } else if (op == 1) {
          batch.Merge(k, value);
        } else {
          batch.Delete(k);
        }
      }
      AppendWriteBatchRequest(&out, id, batch);
    }
    want.push_back(ApplySerially(serial->get(), type, read_keys, batch));
    if (long_run != 0 && read_keys.size() + batch.size() == long_run) {
      ++long_frames;
    }
  }
  ASSERT_GT(long_frames, 0) << "no frame reached the cap";
  ASSERT_TRUE(conn.Send(out).ok());

  for (uint32_t id = 1; id <= want.size(); ++id) {
    const Expected& e = want[id - 1];
    Response rsp;
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok()) << "response " << id;
    ASSERT_EQ(rsp.id, id);
    ASSERT_EQ(rsp.type, e.type) << "request " << id;
    EXPECT_EQ(rsp.value, e.value) << "request " << id;
    EXPECT_EQ(rsp.statuses, e.statuses) << "request " << id;
    EXPECT_EQ(rsp.values, e.values) << "request " << id;
  }
  (*server)->Stop();
}

// A side longer than the server's 256-op cap runs in 256-op calls: a
// WRITE_BATCH and a MULTI_GET of 600 ops on one shard make three calls each.
TEST(ServerNetTest, ShardSideCapSplitsLongSides) {
  ServerOptions opts;
  opts.shards = 2;
  opts.io_threads = 1;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect((*server)->port(), 1);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const ConsistentHashRouter router(2);
  std::vector<std::string> keys;
  WriteBatch batch;
  for (int i = 0; keys.size() < 600; ++i) {
    std::string key = "cap-" + std::to_string(i);
    if (router.Route(key) == 0) {
      batch.Put(key, "v" + std::to_string(i));
      keys.push_back(std::move(key));
    }
  }
  KVStore* shard = (*server)->shard_set()->shard(0);
  ASSERT_TRUE((*client)->Write(batch).ok());
  EXPECT_EQ(shard->stats().batches, 3u);
  EXPECT_EQ(shard->stats().batched_ops, 600u);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE((*client)->MultiGet(keys, &values, &statuses).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << keys[i];
    EXPECT_EQ(values[i], batch.entry(i).value);
  }
  EXPECT_EQ(shard->stats().batches, 6u);
  EXPECT_EQ(shard->stats().batched_ops, 1200u);
  (*server)->Stop();
}

// --------------------------------------------------- writev coalescing

// A deep pipelined burst decoded as one task produces one response burst, so
// the gather list submitted to writev carries many frames: the
// frames_per_writev_max gauge must show real coalescing (>1), which is the
// whole point of batching responses instead of write()-per-frame.
TEST(ServerNetTest, PipelinedResponsesCoalesceIntoOneWritev) {
  ServerOptions opts;
  opts.shards = 1;
  opts.io_threads = 1;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto fd = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::FramedConn conn(*fd);

  constexpr uint32_t kBurst = 128;
  std::string out;
  for (uint32_t i = 0; i < kBurst; ++i) {
    AppendPutRequest(&out, i + 1, "coalesce-" + std::to_string(i), "v");
  }
  ASSERT_TRUE(conn.Send(out).ok());
  std::set<uint32_t> ids;
  for (uint32_t i = 0; i < kBurst; ++i) {
    Response rsp;
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok());
    EXPECT_EQ(rsp.type, MsgType::kOk);
    ids.insert(rsp.id);
  }
  EXPECT_EQ(ids.size(), kBurst);

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    return s.writev_calls > 0 && s.frames_per_writev_max > 1;
  });
  EXPECT_GT(ns.writev_calls, 0u);
  EXPECT_GT(ns.frames_per_writev_max, 1u)
      << "pipelined responses went out one frame per writev";
  (*server)->Stop();
}

// ------------------------------------------------------- slow reader

constexpr size_t kSlowValueBytes = 8 << 10;
constexpr int kSlowKeys = 16;

// A server whose output queues jam fast: a tiny server-side send buffer and
// an output-queue cap far below one 16-GET burst of responses.
ServerOptions SlowReaderOptions() {
  ServerOptions opts;
  opts.shards = 1;
  opts.io_threads = 1;
  opts.store.engine = "mem";
  opts.so_sndbuf = 4096;            // jam the socket with small payloads
  opts.conn_outq_limit = 16 << 10;  // cap far below one burst's responses
  return opts;
}

// Seeds kSlowKeys values of kSlowValueBytes each through a well-behaved
// client.
void SeedSlowValues(uint16_t port, std::vector<std::string>* values) {
  auto seeder = Client::Connect(port, 1);
  ASSERT_TRUE(seeder.ok()) << seeder.status().ToString();
  values->assign(kSlowKeys, std::string());
  for (int i = 0; i < kSlowKeys; ++i) {
    (*values)[i] = std::string(kSlowValueBytes, static_cast<char>('a' + i));
    ASSERT_TRUE((*seeder)->Put("slow-" + std::to_string(i), (*values)[i]).ok());
  }
}

// Sends one burst of GETs for every seeded key, ids from *next_id on.
void SendSlowBurst(net::FramedConn* conn, uint32_t* next_id) {
  std::string burst;
  for (int i = 0; i < kSlowKeys; ++i) {
    AppendGetRequest(&burst, (*next_id)++, "slow-" + std::to_string(i));
  }
  ASSERT_TRUE(conn->Send(burst).ok());
}

// Reads responses 1..total and requires them strictly in request order with
// the exact seeded payloads — no torn, dropped, duplicated or reordered frame.
void ExpectSlowResponses(net::FramedConn* conn, uint32_t total,
                         const std::vector<std::string>& values) {
  for (uint32_t want = 1; want <= total; ++want) {
    Response rsp;
    ASSERT_TRUE(conn->RecvResponse(&rsp).ok()) << "response " << want;
    ASSERT_EQ(rsp.type, MsgType::kValue) << "response " << want;
    ASSERT_EQ(rsp.id, want) << "responses reordered on one connection";
    EXPECT_EQ(rsp.value, values[(want - 1) % kSlowKeys]) << "torn or cross-wired value";
  }
}

// The slow-reader gauntlet: a client pipelines 2 MiB of GET responses
// without reading, then stalls. Its connection's reads must pause (time
// accounted as output_queue_stall_micros), the queue must absorb bursts
// without growing unboundedly, and once the client drains, every response
// must arrive whole, exactly once, and in request order.
TEST(ServerNetTest, SlowReaderBackpressureKeepsFramesWholeAndOrdered) {
  constexpr int kRounds = 16;
  const ServerOptions opts = SlowReaderOptions();
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::vector<std::string> values;
  ASSERT_NO_FATAL_FAILURE(SeedSlowValues((*server)->port(), &values));

  auto fd = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::FramedConn conn(*fd);

  // Pipeline kRounds bursts of GETs, spaced out so the reactor decodes them
  // as separate bursts, while never reading a byte of response.
  uint32_t next_id = 1;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_NO_FATAL_FAILURE(SendSlowBurst(&conn, &next_id));
    SleepMs(15);
  }
  // Stall: responses pile into the kernel buffers, then the output queue,
  // then the connection's reads pause and the requests wait in TCP.
  SleepMs(300);

  const uint32_t total = static_cast<uint32_t>(kRounds * kSlowKeys);
  ASSERT_NO_FATAL_FAILURE(ExpectSlowResponses(&conn, total, values));

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    return s.bytes_out >= static_cast<uint64_t>(kRounds * kSlowKeys) * kSlowValueBytes &&
           s.output_queue_stall_micros > 0;
  });
  EXPECT_GT(ns.output_queue_stall_micros, 0u)
      << "reads never paused on the stalled reader";
  // A burst's responses are queued whole, and a burst starts only while the
  // queue is within the cap, so the high-water mark is at least the cap and
  // at most the cap plus one burst of kMaxBurstFrames responses, however
  // much backlog the paused connection built up.
  EXPECT_GE(ns.output_queue_bytes_max, opts.conn_outq_limit);
  EXPECT_LE(ns.output_queue_bytes_max,
            opts.conn_outq_limit + kMaxBurstFrames * (kSlowValueBytes + 64));
  EXPECT_GE(ns.bytes_out, static_cast<uint64_t>(total) * kSlowValueBytes);

  // The server shook off the stall completely: a fresh client works.
  auto probe = Client::Connect((*server)->port(), 1);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE((*probe)->Ping().ok());
  (*server)->Stop();
}

// One reactor, one shard: while connection A sits paused behind its full
// output queue, a GET on connection B is still answered promptly. A stalled
// reader must hold up only itself, never the reactor or the shard.
TEST(ServerNetTest, PausedReaderDoesNotDelayOtherConnections) {
  const ServerOptions opts = SlowReaderOptions();
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::vector<std::string> values;
  ASSERT_NO_FATAL_FAILURE(SeedSlowValues((*server)->port(), &values));

  auto fd_a = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd_a.ok()) << fd_a.status().ToString();
  net::FramedConn a(*fd_a);
  uint32_t next_id = 1;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_NO_FATAL_FAILURE(SendSlowBurst(&a, &next_id));
    SleepMs(20);
  }
  SleepMs(100);  // A's queue is far over the cap by now, and A never reads

  auto fd_b = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd_b.ok()) << fd_b.status().ToString();
  net::FramedConn b(*fd_b);
  std::string get;
  AppendGetRequest(&get, 7, "slow-3");
  ASSERT_TRUE(b.Send(get).ok());
  pollfd pfd{};
  pfd.fd = b.fd();
  pfd.events = POLLIN;
  const auto t0 = std::chrono::steady_clock::now();
  const int ready = ::poll(&pfd, 1, /*timeout_ms=*/1000);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(ready, 1) << "B's GET waited " << waited.count() << " ms behind paused A";

  // A drains: everything it asked for arrives intact and in order. Then B's
  // answer is read (late, if the check above failed).
  ASSERT_NO_FATAL_FAILURE(
      ExpectSlowResponses(&a, static_cast<uint32_t>(kRounds * kSlowKeys), values));
  Response rsp;
  ASSERT_TRUE(b.RecvResponse(&rsp).ok());
  EXPECT_EQ(rsp.type, MsgType::kValue);
  EXPECT_EQ(rsp.id, 7u);
  EXPECT_EQ(rsp.value, values[3]);

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    return s.output_queue_stall_micros > 0;
  });
  EXPECT_GT(ns.output_queue_stall_micros, 0u) << "A's reads never paused";
  (*server)->Stop();
}

// --------------------------------------------------------- connect retry

// TcpConnectRetry bridges the boot race: a listener that appears ~100ms
// after the first connect attempt is still reached within the budget, and a
// port nobody ever listens on fails (bounded, not hanging).
TEST(ServerNetTest, ConnectRetryToleratesLateListener) {
  auto probe = net::TcpListen(0);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  auto port = net::TcpLocalPort(*probe);
  ASSERT_TRUE(port.ok());
  net::CloseFd(*probe);

  int listen_fd = -1;
  std::thread late([&listen_fd, port]() {
    SleepMs(100);
    auto fd = net::TcpListen(*port);
    if (fd.ok()) {
      listen_fd = *fd;
    }
  });
  auto conn = net::TcpConnectRetry(*port, /*budget_ms=*/3000);
  late.join();
  ASSERT_NE(listen_fd, -1) << "could not re-bind the probed port";
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  net::CloseFd(*conn);
  net::CloseFd(listen_fd);

  // Nobody listening and nobody coming: the retry gives up after the budget.
  auto dead_probe = net::TcpListen(0);
  ASSERT_TRUE(dead_probe.ok());
  auto dead_port = net::TcpLocalPort(*dead_probe);
  ASSERT_TRUE(dead_port.ok());
  net::CloseFd(*dead_probe);
  auto refused = net::TcpConnectRetry(*dead_port, /*budget_ms=*/200);
  EXPECT_FALSE(refused.ok());
}

// Loadgen itself survives racing server startup: connecting with a budget
// against a server that starts shortly after the loadgen threads do.
TEST(ServerNetTest, ClientConnectBudgetBridgesServerBoot) {
  auto probe = net::TcpListen(0);
  ASSERT_TRUE(probe.ok());
  auto port = net::TcpLocalPort(*probe);
  ASSERT_TRUE(port.ok());
  net::CloseFd(*probe);

  std::unique_ptr<Server> server;
  std::thread boot([&server, port]() {
    SleepMs(100);
    ServerOptions opts;
    opts.port = *port;
    opts.shards = 1;
    opts.io_threads = 1;
    opts.store.engine = "mem";
    auto s = Server::Start(opts);
    if (s.ok()) {
      server = std::move(*s);
    }
  });
  auto client = Client::Connect(*port, /*pool_size=*/2, /*connect_budget_ms=*/3000);
  boot.join();
  ASSERT_NE(server, nullptr) << "server failed to bind the probed port";
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
  server->Stop();
}

}  // namespace
}  // namespace wire
}  // namespace gadget
