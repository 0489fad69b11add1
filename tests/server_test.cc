// Tests for the store service (src/server/): wire framing round-trips and
// rejects torn/oversized/garbage input cleanly, the consistent-hash router is
// deterministic and moves little keyspace on growth, shard-set stats merge as
// a fleet, a live server handles the full request vocabulary, and — the
// end-to-end gate — a 4-shard loopback
// loadgen replay converges to exactly the state an in-process oracle replay
// produces, with zero lost or duplicated operations.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/coding.h"
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

// ------------------------------------------------------------------- wire

TEST(WireTest, RequestRoundTrip) {
  std::string buf;
  AppendGetRequest(&buf, 7, "key-a");
  AppendPutRequest(&buf, 8, "key-b", "value-b");
  AppendMultiGetRequest(&buf, 9, {"k1", "k2", "k3"});
  WriteBatch wb;
  wb.Put("p", "1");
  wb.Merge("m", "2");
  wb.Delete("d");
  AppendWriteBatchRequest(&buf, 10, wb);
  AppendPingRequest(&buf, 11);

  std::string_view rest = buf;
  auto next = [&](Request* req) {
    FrameView frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ExtractFrame(rest, &frame, &consumed, &error), FrameStatus::kOk) << error;
    ASSERT_TRUE(ParseRequest(frame, req).ok());
    rest = rest.substr(consumed);
  };
  Request req;
  next(&req);
  EXPECT_EQ(req.type, MsgType::kGet);
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(req.key, "key-a");
  next(&req);
  EXPECT_EQ(req.type, MsgType::kPut);
  EXPECT_EQ(req.key, "key-b");
  EXPECT_EQ(req.value, "value-b");
  next(&req);
  EXPECT_EQ(req.type, MsgType::kMultiGet);
  EXPECT_EQ(req.keys, (std::vector<std::string>{"k1", "k2", "k3"}));
  next(&req);
  EXPECT_EQ(req.type, MsgType::kWriteBatch);
  ASSERT_EQ(req.batch.size(), 3u);
  EXPECT_EQ(req.batch.entry(0).key, "p");
  EXPECT_EQ(req.batch.entry(1).op, WriteBatch::Op::kMerge);
  EXPECT_EQ(req.batch.entry(2).op, WriteBatch::Op::kDelete);
  next(&req);
  EXPECT_EQ(req.type, MsgType::kPing);
  EXPECT_TRUE(rest.empty());
}

TEST(WireTest, ResponseRoundTrip) {
  std::string buf;
  AppendValueResponse(&buf, 3, "hello");
  // A per-key read error must survive the trip as an error, never as a miss.
  AppendMultiResponse(&buf, 4, {Status::Ok(), Status::NotFound(), Status::IoError("disk gone")},
                      {"v1", "", ""});
  AppendErrorResponse(&buf, 5, "boom");

  std::string_view rest = buf;
  auto next = [&](Response* resp) {
    FrameView frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ExtractFrame(rest, &frame, &consumed, &error), FrameStatus::kOk) << error;
    ASSERT_TRUE(ParseResponse(frame, resp).ok());
    rest = rest.substr(consumed);
  };
  Response resp;
  next(&resp);
  EXPECT_EQ(resp.type, MsgType::kValue);
  EXPECT_EQ(resp.value, "hello");
  next(&resp);
  EXPECT_EQ(resp.type, MsgType::kMulti);
  EXPECT_EQ(resp.statuses, (std::vector<uint8_t>{kMultiFound, kMultiNotFound, kMultiError}));
  EXPECT_EQ(resp.values, (std::vector<std::string>{"v1", "", "IoError: disk gone"}));
  next(&resp);
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(resp.value, "boom");
}

TEST(WireTest, TornFrameReportsNeedMoreNeverError) {
  std::string buf;
  AppendPutRequest(&buf, 1, "torn-key", "torn-value");
  // Every strict prefix is torn input: kNeedMore, never kError.
  for (size_t n = 0; n < buf.size(); ++n) {
    FrameView frame;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ExtractFrame(std::string_view(buf.data(), n), &frame, &consumed, &error),
              FrameStatus::kNeedMore)
        << "prefix length " << n;
  }
  FrameView frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ExtractFrame(buf, &frame, &consumed, &error), FrameStatus::kOk);
  EXPECT_EQ(consumed, buf.size());
}

TEST(WireTest, RejectsRuntOversizedAndGarbageFrames) {
  FrameView frame;
  size_t consumed = 0;
  std::string error;
  // Runt: length word smaller than the type+id header.
  std::string runt("\x04\x00\x00\x00", 4);
  EXPECT_EQ(ExtractFrame(runt, &frame, &consumed, &error), FrameStatus::kError);
  // Oversized: length beyond kMaxFrameBytes fails immediately, without
  // waiting for that many bytes to arrive.
  std::string oversized;
  const uint32_t huge = kMaxFrameBytes + 1;
  oversized.append(reinterpret_cast<const char*>(&huge), 4);
  EXPECT_EQ(ExtractFrame(oversized, &frame, &consumed, &error), FrameStatus::kError);
  // Garbage type byte: rejected as soon as the byte is visible.
  std::string garbage("\x0a\x00\x00\x00\x7f", 5);
  EXPECT_EQ(ExtractFrame(garbage, &frame, &consumed, &error), FrameStatus::kError);
}

TEST(WireTest, RejectsTrailingGarbageAndWrongKind) {
  // A GET frame whose payload has bytes past the key must not parse.
  std::string good;
  AppendGetRequest(&good, 1, "k");
  std::string bad = good;
  bad.append("x");  // extend payload…
  bad[0] = static_cast<char>(static_cast<uint8_t>(bad[0]) + 1);  // …and fix the length
  FrameView frame;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ExtractFrame(bad, &frame, &consumed, &error), FrameStatus::kOk);
  Request req;
  EXPECT_FALSE(ParseRequest(frame, &req).ok());
  // A response frame is not a request and vice versa.
  std::string resp_bytes;
  AppendOkResponse(&resp_bytes, 2);
  ASSERT_EQ(ExtractFrame(resp_bytes, &frame, &consumed, &error), FrameStatus::kOk);
  EXPECT_FALSE(ParseRequest(frame, &req).ok());
  std::string req_bytes;
  AppendPingRequest(&req_bytes, 3);
  ASSERT_EQ(ExtractFrame(req_bytes, &frame, &consumed, &error), FrameStatus::kOk);
  Response resp;
  EXPECT_FALSE(ParseResponse(frame, &resp).ok());
}

// Hand-assembled frames whose length words and counts lie about the payload.
// The frame layer accepts them (they are well-formed frames); the payload
// parser must reject every one without reading past the payload.
TEST(WireTest, MalformedPayloadTable) {
  struct Case {
    const char* name;
    MsgType type;
    std::string payload;
  };
  auto vstr = [](uint32_t v) {
    std::string s;
    PutVarint32(&s, v);
    return s;
  };
  const std::vector<Case> kCases = {
      // Field length runs past the payload end.
      {"get_key_length_lie", MsgType::kGet, vstr(100) + "abc"},
      // Field length exceeds the per-field cap even though the frame fits.
      {"get_key_over_cap", MsgType::kGet, vstr((64u << 10) + 1) + "abc"},
      // Near-UINT32_MAX length: any `len + k` arithmetic in the decoder
      // would wrap; must still reject cleanly (mirrors the sstable varint
      // wrap bug fixed in this change).
      {"get_key_wrap", MsgType::kGet, vstr(0xFFFFFFFFu) + "abc"},
      {"get_empty_payload", MsgType::kGet, ""},
      // Valid key, then a lying value length.
      {"put_value_length_lie", MsgType::kPut, vstr(1) + "k" + vstr(50) + "v"},
      {"put_value_over_cap", MsgType::kPut, vstr(1) + "k" + vstr((8u << 20) + 1) + "v"},
      {"put_missing_value", MsgType::kPut, vstr(1) + "k"},
      // Count larger than the entries actually present.
      {"multiget_count_lie", MsgType::kMultiGet, vstr(3) + vstr(1) + "a"},
      // Count beyond the wire limit: rejected before any reserve().
      {"multiget_count_over_cap", MsgType::kMultiGet, vstr((1u << 20) + 1)},
      {"multiget_count_wrap", MsgType::kMultiGet, vstr(0xFFFFFFFFu)},
      {"batch_count_lie", MsgType::kWriteBatch,
       vstr(2) + std::string(1, '\x00') + vstr(1) + "k" + vstr(1) + "v"},
      {"batch_unknown_op", MsgType::kWriteBatch,
       vstr(1) + std::string(1, '\x09') + vstr(1) + "k" + vstr(1) + "v"},
      {"batch_truncated_entry", MsgType::kWriteBatch, vstr(1) + std::string(1, '\x00')},
      // Zero-argument requests must carry empty payloads.
      {"ping_with_payload", MsgType::kPing, "x"},
      {"stats_with_payload", MsgType::kStats, "junk"},
      // A MULTI response's per-key status byte past the last defined one.
      {"multi_status_3", MsgType::kMulti, vstr(1) + std::string(1, '\x03') + vstr(0)},
  };
  for (const Case& c : kCases) {
    std::string buf;
    const uint32_t len = kFrameOverhead + static_cast<uint32_t>(c.payload.size());
    buf.append(reinterpret_cast<const char*>(&len), 4);
    buf.push_back(static_cast<char>(c.type));
    const uint32_t id = 9;
    buf.append(reinterpret_cast<const char*>(&id), 4);
    buf.append(c.payload);

    FrameView frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ExtractFrame(buf, &frame, &consumed, &error), FrameStatus::kOk) << c.name;
    if (IsResponseType(static_cast<uint8_t>(c.type))) {
      Response resp;
      EXPECT_FALSE(ParseResponse(frame, &resp).ok()) << c.name;
    } else {
      Request req;
      EXPECT_FALSE(ParseRequest(frame, &req).ok()) << c.name;
    }
  }
}

// ------------------------------------------------------------------ router

TEST(RouterTest, DeterministicAcrossInstances) {
  ConsistentHashRouter a(4);
  ConsistentHashRouter b(4);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const int shard = a.Route(key);
    EXPECT_EQ(shard, b.Route(key));
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
  }
}

TEST(RouterTest, CoversAllShardsRoughlyEvenly) {
  ConsistentHashRouter router(8);
  std::vector<int> counts(8, 0);
  const int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[static_cast<size_t>(router.Route("user-" + std::to_string(i)))];
  }
  for (int s = 0; s < 8; ++s) {
    // Every shard owns a nontrivial slice: within 3x either way of fair share.
    EXPECT_GT(counts[static_cast<size_t>(s)], kKeys / 8 / 3) << "shard " << s;
    EXPECT_LT(counts[static_cast<size_t>(s)], kKeys / 8 * 3) << "shard " << s;
  }
}

TEST(RouterTest, GrowthMovesOnlyASliverOfTheKeyspace) {
  // Growing N -> N+1 should move ~1/(N+1) of keys; assert well under the
  // 1/2-ish a modulo router would move.
  ConsistentHashRouter before(4);
  ConsistentHashRouter after(5);
  const int kKeys = 20000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if (before.Route(key) != after.Route(key)) {
      ++moved;
    }
  }
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.0);  // some keys must move to the new shard
  EXPECT_LT(fraction, 0.35) << "consistent hashing should move ~1/5 of keys, moved "
                            << fraction;
}

// ------------------------------------------------------------- shard stats

TEST(StoreStatsTest, MergeSumAddsCountersMaxesGaugesSumsLevelFiles) {
  StoreStats a;
  a.gets = 10;
  a.puts = 5;
  a.bytes_written = 100;
  a.wal_group_size_max = 4;
  a.io_in_flight_max = 2;
  a.level_files = {3, 1};
  StoreStats b;
  b.gets = 7;
  b.puts = 2;
  b.bytes_written = 50;
  b.wal_group_size_max = 3;
  b.io_in_flight_max = 6;
  b.level_files = {2, 2, 1};
  a.MergeSum(b);
  EXPECT_EQ(a.gets, 17u);
  EXPECT_EQ(a.puts, 7u);
  EXPECT_EQ(a.bytes_written, 150u);
  // Gauges take the widest single observation, never the sum.
  EXPECT_EQ(a.wal_group_size_max, 4u);
  EXPECT_EQ(a.io_in_flight_max, 6u);
  // level_files sums per level: N shards really hold N x the files.
  EXPECT_EQ(a.level_files, (std::vector<uint64_t>{5, 3, 1}));
}

// ------------------------------------------------------------------ server

TEST(ServerTest, FullRequestVocabularyOverLoopback) {
  ServerOptions opts;
  opts.shards = 3;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect((*server)->port(), 2);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_TRUE((*client)->Ping().ok());
  ASSERT_TRUE((*client)->Put("alpha", "1").ok());
  ASSERT_TRUE((*client)->Put("beta", "2").ok());
  std::string value;
  ASSERT_TRUE((*client)->Get("alpha", &value).ok());
  EXPECT_EQ(value, "1");
  EXPECT_TRUE((*client)->Get("missing", &value).IsNotFound());

  ASSERT_TRUE((*client)->Merge("alpha", "+more").ok());
  ASSERT_TRUE((*client)->Get("alpha", &value).ok());
  EXPECT_EQ(value, "1+more");

  ASSERT_TRUE((*client)->Delete("beta").ok());
  EXPECT_TRUE((*client)->Get("beta", &value).IsNotFound());

  // Cross-shard fan-out: a batch and a multi-get whose keys span shards.
  WriteBatch wb;
  for (int i = 0; i < 32; ++i) {
    wb.Put("bulk-" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE((*client)->Write(wb).ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("bulk-" + std::to_string(i));
  }
  keys.push_back("not-there");
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE((*client)->MultiGet(keys, &values, &statuses).ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok()) << keys[static_cast<size_t>(i)];
    EXPECT_EQ(values[static_cast<size_t>(i)], "v" + std::to_string(i));
  }
  EXPECT_TRUE(statuses.back().IsNotFound());

  // STATS returns the per-shard + merged document and the op counts add up.
  auto stats_json = (*client)->StatsJson();
  ASSERT_TRUE(stats_json.ok());
  auto doc = ParseJson(*stats_json);
  ASSERT_TRUE(doc.ok()) << *stats_json;
  EXPECT_EQ(doc->GetUint("shards"), 3u);
  ASSERT_NE(doc->Get("per_shard"), nullptr);
  EXPECT_EQ(doc->Get("per_shard")->size(), 3u);
  ASSERT_NE(doc->Get("merged"), nullptr);
  EXPECT_GE(doc->Get("merged")->GetUint("puts"), 33u);  // 1 remaining put + 32 bulk

  (*server)->Stop();
}

// A shard whose store refuses reads (here: closed under the running server)
// answers a GET with ERROR and every key of a MULTI_GET with an error
// status, never with OK and an empty value.
TEST(ServerTest, ClosedShardAnswersReadsWithErrors) {
  for (const char* engine : {"btree", "faster"}) {
    ScopedTempDir tmp("gadget-server-test");
    ServerOptions opts;
    opts.shards = 1;
    opts.io_threads = 1;
    opts.store.engine = engine;
    opts.store.dir = tmp.path() + "/db";
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << engine << ": " << server.status().ToString();
    auto fd = net::TcpConnect((*server)->port());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    net::FramedConn conn(*fd);
    std::string out;
    AppendPutRequest(&out, 1, "k", "v");
    ASSERT_TRUE(conn.Send(out).ok());
    Response rsp;
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok());
    ASSERT_EQ(rsp.type, MsgType::kOk) << engine;

    ASSERT_TRUE((*server)->shard_set()->shard(0)->Close().ok()) << engine;
    out.clear();
    AppendGetRequest(&out, 2, "k");
    AppendMultiGetRequest(&out, 3, {"k", "missing"});
    ASSERT_TRUE(conn.Send(out).ok());
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok());
    EXPECT_EQ(rsp.id, 2u);
    EXPECT_EQ(rsp.type, MsgType::kError) << engine << ": GET of a closed shard";
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok());
    EXPECT_EQ(rsp.id, 3u);
    ASSERT_EQ(rsp.type, MsgType::kMulti) << engine;
    ASSERT_EQ(rsp.statuses.size(), 2u);
    for (uint8_t st : rsp.statuses) {
      EXPECT_EQ(st, kMultiError) << engine << ": MULTI_GET of a closed shard";
    }
    (*server)->Stop();
  }
}

// A stand-in server for one connection, for read errors no real engine
// produces on demand: PING, STATS and writes succeed; in a MULTI_GET, key
// "hit" is found, "miss" is not, and every other key fails with an IoError.
// Serves until the client hangs up.
void ServeFailingReads(int listen_fd) {
  auto fd = net::TcpAccept(listen_fd);
  if (!fd.ok() || *fd < 0) {
    return;
  }
  net::FramedConn conn(*fd);
  MsgType type;
  uint32_t id = 0;
  std::string payload;
  while (conn.RecvFrame(&type, &id, &payload).ok()) {
    std::string out;
    Request req;
    switch (type) {
      case MsgType::kPing:
        AppendPongResponse(&out, id);
        break;
      case MsgType::kStats:
        AppendStatsTextResponse(&out, id, "{}");
        break;
      case MsgType::kMultiGet: {
        ASSERT_TRUE(ParseRequest(FrameView{type, id, payload}, &req).ok());
        std::vector<Status> statuses;
        std::vector<std::string> values;
        for (const std::string& k : req.keys) {
          statuses.push_back(k == "hit"    ? Status::Ok()
                             : k == "miss" ? Status::NotFound()
                                           : Status::IoError("disk gone"));
          values.push_back(k == "hit" ? "v" : "");
        }
        AppendMultiResponse(&out, id, statuses, values);
        break;
      }
      default:
        AppendOkResponse(&out, id);
        break;
    }
    if (!conn.Send(out).ok()) {
      return;
    }
  }
}

// A per-key read error inside a MULTI_GET reaches Client::MultiGet as that
// key's error (and as the aggregate), never as a miss.
TEST(ClientTest, MultiGetReportsPerKeyReadError) {
  auto listen = net::TcpListen(0);
  ASSERT_TRUE(listen.ok()) << listen.status().ToString();
  auto port = net::TcpLocalPort(*listen);
  ASSERT_TRUE(port.ok());
  std::thread fake(ServeFailingReads, *listen);
  {
    auto client = Client::Connect(*port, 1);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    std::vector<std::string> values;
    std::vector<Status> statuses;
    const Status s = (*client)->MultiGet({"hit", "miss", "broken"}, &values, &statuses);
    EXPECT_TRUE(s.IsIoError()) << s.ToString();
    ASSERT_EQ(statuses.size(), 3u);
    EXPECT_TRUE(statuses[0].ok());
    EXPECT_EQ(values[0], "v");
    EXPECT_TRUE(statuses[1].IsNotFound());
    EXPECT_TRUE(statuses[2].IsIoError()) << statuses[2].ToString();
    EXPECT_NE(statuses[2].ToString().find("disk gone"), std::string::npos);
  }
  fake.join();
  net::CloseFd(*listen);
}

// loadgen counts a failed read as an error, not as an acked miss, so
// `report_check --require_server` cannot pass a run whose reads failed.
TEST(ClientTest, LoadgenCountsFailedReadsAsErrors) {
  Config config;
  config.Set("source", "borg");
  config.Set("events", "500");
  config.Set("seed", "5");
  auto trace = BuildAccessTrace(config);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  uint64_t reads = 0;
  for (const StateAccess& a : *trace) {
    reads += a.op == OpType::kGet ? 1 : 0;
  }
  ASSERT_GT(reads, 0u);

  auto listen = net::TcpListen(0);
  ASSERT_TRUE(listen.ok()) << listen.status().ToString();
  auto port = net::TcpLocalPort(*listen);
  ASSERT_TRUE(port.ok());
  std::thread fake(ServeFailingReads, *listen);
  LoadgenOptions lopts;
  lopts.port = *port;
  lopts.clients = 1;
  lopts.shards = 2;
  auto result = RunLoadgen(*trace, lopts);
  fake.join();
  net::CloseFd(*listen);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ops_sent, trace->size());
  EXPECT_EQ(result->errors, reads);
  EXPECT_EQ(result->ops_acked, trace->size() - reads);
  EXPECT_EQ(result->replay.not_found, 0u);
}

// The end-to-end acceptance gate: a multi-client loadgen replay of a Borg
// trace through 4 wire shards loses nothing and converges to exactly the
// state an in-process single-store oracle replay produces.
TEST(ServerTest, LoadgenReplayMatchesInProcessOracle) {
  Config config;
  config.Set("source", "borg");
  config.Set("events", "4000");
  config.Set("seed", "17");
  auto trace = BuildAccessTrace(config);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_GT(trace->size(), 1000u);

  ScopedTempDir tmp("gadget-server-test");
  ServerOptions sopts;
  sopts.shards = 4;
  sopts.store.engine = "lsm";
  sopts.store.dir = tmp.path() + "/db";
  auto server = Server::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LoadgenOptions lopts;
  lopts.port = (*server)->port();
  lopts.clients = 8;
  lopts.shards = 4;
  lopts.batch_size = 16;
  lopts.pipeline_depth = 4;
  auto result = RunLoadgen(*trace, lopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Zero lost or duplicated operations.
  EXPECT_EQ(result->ops_sent, trace->size());
  EXPECT_EQ(result->ops_acked, result->ops_sent);
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->replay.ops, result->ops_acked);
  // The client-side routing histogram covers the whole trace.
  uint64_t shard_total = 0;
  for (uint64_t n : result->shard_ops) {
    shard_total += n;
  }
  EXPECT_EQ(shard_total, trace->size());
  EXPECT_GE(result->shard_skew, 1.0);

  // Oracle: the same trace replayed into one in-process MemStore.
  StoreOptions oracle_opts;
  oracle_opts.engine = "mem";
  auto oracle = OpenStore(oracle_opts);
  ASSERT_TRUE(oracle.ok());
  auto oracle_result = ReplayTrace(*trace, oracle->get());
  ASSERT_TRUE(oracle_result.ok()) << oracle_result.status().ToString();

  // Every distinct key must agree over the wire: same value or same absence.
  std::set<std::string> keys;
  std::string key;
  for (const StateAccess& a : *trace) {
    EncodeStateKeyTo(a.key, &key);
    keys.insert(key);
  }
  auto client = Client::Connect((*server)->port(), 1);
  ASSERT_TRUE(client.ok());
  uint64_t checked = 0;
  for (const std::string& k : keys) {
    std::string expect;
    std::string got;
    const Status se = (*oracle)->Get(k, &expect);
    ASSERT_TRUE(se.ok() || se.IsNotFound());
    const Status sg = (*client)->Get(k, &got);
    if (se.IsNotFound()) {
      EXPECT_TRUE(sg.IsNotFound()) << "key " << checked << " present only over the wire";
    } else {
      ASSERT_TRUE(sg.ok()) << sg.ToString();
      EXPECT_EQ(got, expect) << "key " << checked << " diverged";
    }
    ++checked;
  }
  EXPECT_EQ(checked, keys.size());
  ASSERT_TRUE((*oracle)->Close().ok());
  (*server)->Stop();
}

}  // namespace
}  // namespace wire
}  // namespace gadget
