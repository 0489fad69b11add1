// Batched store API: WriteBatch / MultiGet semantics, batch-vs-single
// equivalence per engine, the stats accounting contract, the group-commit
// WAL record format, and batched replay's read-your-writes guarantee.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/gadget/evaluator.h"
#include "src/stores/kvstore.h"
#include "src/stores/lsm/version.h"
#include "src/stores/lsm/wal.h"
#include "src/streams/state_access.h"

namespace gadget {
namespace {

constexpr const char* kEngines[] = {"mem", "lsm", "lethe", "btree", "faster"};

std::unique_ptr<KVStore> MustOpen(const std::string& engine, const std::string& dir) {
  StoreOptions opts;
  opts.engine = engine;
  opts.dir = dir;
  auto store = OpenStore(opts);
  EXPECT_TRUE(store.ok()) << engine << ": " << store.status().ToString();
  return store.ok() ? std::move(*store) : nullptr;
}

// ------------------------------------------------- in-batch ordering

class BatchEngineTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScopedTempDir>();
    store_ = MustOpen(GetParam(), dir_->path() + "/db");
    ASSERT_NE(store_, nullptr);
  }
  void TearDown() override {
    if (store_ != nullptr) {
      EXPECT_TRUE(store_->Close().ok());
    }
  }
  std::unique_ptr<ScopedTempDir> dir_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(BatchEngineTest, EntriesApplyInInsertionOrder) {
  WriteBatch wb;
  wb.Put("k", "first");
  wb.Delete("k");
  wb.Put("k", "second");
  wb.Put("gone", "x");
  wb.Delete("gone");
  ASSERT_TRUE(store_->Write(wb).ok());

  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "second");
  EXPECT_TRUE(store_->Get("gone", &value).IsNotFound());
}

TEST_P(BatchEngineTest, MultiGetEdgeCases) {
  ASSERT_TRUE(store_->Put("a", "va").ok());
  ASSERT_TRUE(store_->Put("b", "vb").ok());

  // Missing keys and duplicates in one call; duplicates resolve independently.
  std::vector<std::string> keys = {"a", "missing", "a", "b", "also-missing"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(store_->MultiGet(keys, &values, &statuses).ok());
  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(statuses.size(), keys.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "va");
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], "va");
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ(values[3], "vb");
  EXPECT_TRUE(statuses[4].IsNotFound());

  // A key written earlier in the same Write call is visible to a MultiGet
  // issued right after (the batch is fully applied before Write returns).
  WriteBatch wb;
  wb.Put("c", "vc");
  wb.Delete("a");
  ASSERT_TRUE(store_->Write(wb).ok());
  keys = {"c", "a"};
  ASSERT_TRUE(store_->MultiGet(keys, &values, &statuses).ok());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "vc");
  EXPECT_TRUE(statuses[1].IsNotFound());

  // Empty key vector: resized outputs, Ok overall.
  keys.clear();
  ASSERT_TRUE(store_->MultiGet(keys, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
}

TEST_P(BatchEngineTest, BatchCountersTrackCallsAndOps) {
  const StoreStats before = store_->stats();

  WriteBatch wb;
  wb.Put("x", "1");
  wb.Merge("x", "2");
  wb.Delete("y");
  ASSERT_TRUE(store_->Write(wb).ok());

  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(store_->MultiGet({"x", "y"}, &values, &statuses).ok());

  // Empty batches still count as one call carrying zero ops.
  WriteBatch empty;
  ASSERT_TRUE(store_->Write(empty).ok());

  const StoreStats after = store_->stats();
  EXPECT_EQ(after.batches - before.batches, 3u);
  EXPECT_EQ(after.batched_ops - before.batched_ops, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BatchEngineTest, ::testing::ValuesIn(kEngines));

// ------------------------------------- batch-vs-single equivalence

// Deterministic op mix over a small key space: puts, merges (or RMW where the
// engine lacks merge), deletes, with keys colliding often enough to exercise
// ordering within batches.
struct MixOp {
  WriteBatch::Op op;
  std::string key;
  std::string value;
};

std::vector<MixOp> MakeMix(size_t n) {
  std::vector<MixOp> ops;
  ops.reserve(n);
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::string key = "key" + std::to_string(x % 37);
    switch (x % 10) {
      case 0:
        ops.push_back({WriteBatch::Op::kDelete, key, ""});
        break;
      case 1:
      case 2:
      case 3:
        ops.push_back({WriteBatch::Op::kMerge, key, "m" + std::to_string(i % 7)});
        break;
      default:
        ops.push_back({WriteBatch::Op::kPut, key, std::string(1 + i % 40, 'v')});
        break;
    }
  }
  return ops;
}

Status ApplySingle(KVStore* store, const MixOp& op, bool has_merge) {
  switch (op.op) {
    case WriteBatch::Op::kPut:
      return store->Put(op.key, op.value);
    case WriteBatch::Op::kMerge:
      return has_merge ? store->Merge(op.key, op.value)
                       : store->ReadModifyWrite(op.key, op.value);
    case WriteBatch::Op::kDelete:
      return store->Delete(op.key);
  }
  return Status::Internal("unreachable");
}

// Final state probe: Get every key the mix ever touched.
std::map<std::string, std::string> ProbeState(KVStore* store, const std::vector<MixOp>& ops) {
  std::map<std::string, std::string> state;
  for (const MixOp& op : ops) {
    if (state.count(op.key) != 0) {
      continue;
    }
    std::string value;
    Status s = store->Get(op.key, &value);
    state[op.key] = s.ok() ? value : (s.IsNotFound() ? "<absent>" : "<error>");
  }
  return state;
}

TEST_P(BatchEngineTest, Batch64MatchesSingleOps) {
  const std::vector<MixOp> mix = MakeMix(512);
  const bool has_merge = store_->supports_merge();

  // Path A: one call per op on the fixture's store.
  for (const MixOp& op : mix) {
    ASSERT_TRUE(ApplySingle(store_.get(), op, has_merge).ok());
  }
  const StoreStats single = store_->stats();

  // Path B: the same ops in WriteBatches of 64 on a fresh store.
  std::unique_ptr<KVStore> batched = MustOpen(GetParam(), dir_->path() + "/db-batched");
  ASSERT_NE(batched, nullptr);
  WriteBatch wb;
  for (size_t i = 0; i < mix.size(); ++i) {
    switch (mix[i].op) {
      case WriteBatch::Op::kPut:
        wb.Put(mix[i].key, mix[i].value);
        break;
      case WriteBatch::Op::kMerge:
        wb.Merge(mix[i].key, mix[i].value);
        break;
      case WriteBatch::Op::kDelete:
        wb.Delete(mix[i].key);
        break;
    }
    if (wb.size() == 64 || i + 1 == mix.size()) {
      ASSERT_TRUE(batched->Write(wb).ok());
      wb.Clear();
    }
  }
  const StoreStats grouped = batched->stats();

  // Identical surviving state...
  EXPECT_EQ(ProbeState(store_.get(), mix), ProbeState(batched.get(), mix));

  // ...and identical per-op accounting; only batches/batched_ops may differ.
  EXPECT_EQ(single.puts, grouped.puts);
  EXPECT_EQ(single.merges, grouped.merges);
  EXPECT_EQ(single.deletes, grouped.deletes);
  EXPECT_EQ(single.rmws, grouped.rmws);
  EXPECT_EQ(single.bytes_written, grouped.bytes_written);
  EXPECT_EQ(single.batches, 0u);
  EXPECT_EQ(grouped.batches, (mix.size() + 63) / 64);
  EXPECT_EQ(grouped.batched_ops, mix.size());

  EXPECT_TRUE(batched->Close().ok());
}

// bytes_written must agree ACROSS engines too — same op set, same number,
// regardless of how each engine spells merge internally.
TEST(BatchStatsDriftTest, BytesWrittenAgreeAcrossEnginesAndPaths) {
  const std::vector<MixOp> mix = MakeMix(256);
  uint64_t expected = 0;
  for (const MixOp& op : mix) {
    expected += op.key.size() + op.value.size();  // delete value is empty
  }

  for (const char* engine : kEngines) {
    ScopedTempDir dir;
    std::unique_ptr<KVStore> single = MustOpen(engine, dir.path() + "/s");
    ASSERT_NE(single, nullptr);
    const bool has_merge = single->supports_merge();
    for (const MixOp& op : mix) {
      ASSERT_TRUE(ApplySingle(single.get(), op, has_merge).ok());
    }
    EXPECT_EQ(single->stats().bytes_written, expected) << engine << " single-op path";
    EXPECT_TRUE(single->Close().ok());

    std::unique_ptr<KVStore> batched = MustOpen(engine, dir.path() + "/b");
    ASSERT_NE(batched, nullptr);
    WriteBatch wb;
    for (const MixOp& op : mix) {
      switch (op.op) {
        case WriteBatch::Op::kPut:
          wb.Put(op.key, op.value);
          break;
        case WriteBatch::Op::kMerge:
          wb.Merge(op.key, op.value);
          break;
        case WriteBatch::Op::kDelete:
          wb.Delete(op.key);
          break;
      }
    }
    ASSERT_TRUE(batched->Write(wb).ok());
    EXPECT_EQ(batched->stats().bytes_written, expected) << engine << " batched path";
    EXPECT_TRUE(batched->Close().ok());
  }
}

// ------------------------------------------- batched replay (evaluator)

std::vector<StateAccess> WriteThenReadTrace(uint64_t n) {
  // Put key i immediately followed by Get key i: with batch_size > 1 the get
  // lands while the put is still buffered, so it exercises the
  // read-your-writes flush rule. Every 5th key is probed but never written.
  std::vector<StateAccess> trace;
  trace.reserve(2 * n);
  for (uint64_t i = 0; i < n; ++i) {
    if (i % 5 != 0) {
      trace.push_back(StateAccess{OpType::kPut, StateKey{i, 0}, 64, i});
    }
    trace.push_back(StateAccess{OpType::kGet, StateKey{i, 0}, 0, i});
  }
  return trace;
}

TEST(BatchedReplayTest, ReadYourWritesMatchesUnbatchedReplay) {
  const std::vector<StateAccess> trace = WriteThenReadTrace(1'000);
  const uint64_t expected_not_found = 200;  // the every-5th never-written probes

  for (uint64_t batch : {1ull, 64ull}) {
    for (const char* engine : {"mem", "lsm"}) {
      ScopedTempDir dir;
      std::unique_ptr<KVStore> store = MustOpen(engine, dir.path() + "/db");
      ASSERT_NE(store, nullptr);
      ReplayOptions opts;
      opts.batch_size = batch;
      auto result = ReplayTrace(trace, store.get(), opts);
      ASSERT_TRUE(result.ok()) << engine << "/batch=" << batch;
      EXPECT_EQ(result->ops, trace.size()) << engine << "/batch=" << batch;
      // A get that missed its just-buffered put would inflate this count.
      EXPECT_EQ(result->not_found, expected_not_found) << engine << "/batch=" << batch;
      const StoreStats stats = store->stats();
      EXPECT_EQ(stats.puts, 800u) << engine << "/batch=" << batch;
      EXPECT_EQ(stats.gets, 1'000u) << engine << "/batch=" << batch;
      EXPECT_TRUE(store->Close().ok());
    }
  }
}

// Gets, puts, merges and deletes over 50 keys.
std::vector<StateAccess> MixedTrace(uint64_t n) {
  std::vector<StateAccess> trace;
  trace.reserve(n);
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (uint64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto op = static_cast<OpType>(x % 4);
    const bool sized = op == OpType::kPut || op == OpType::kMerge;
    trace.push_back(
        StateAccess{op, StateKey{(x >> 8) % 50, 7}, sized ? static_cast<uint32_t>(1 + i % 30) : 0, i});
  }
  return trace;
}

// A batch-1 replay makes exactly the single-op calls one call per op makes:
// no Write or MultiGet at all, and every per-op counter equal.
TEST_P(BatchEngineTest, Batch1ReplayMakesTheSingleOpCalls) {
  const std::vector<StateAccess> trace = MixedTrace(2'000);
  const bool has_merge = store_->supports_merge();
  std::string key;
  std::string value;
  for (const StateAccess& a : trace) {
    EncodeStateKeyTo(a.key, &key);
    const std::string operand(a.value_size, 'v');
    Status s;
    switch (a.op) {
      case OpType::kGet:
        s = store_->Get(key, &value);
        break;
      case OpType::kPut:
        s = store_->Put(key, operand);
        break;
      case OpType::kMerge:
        s = has_merge ? store_->Merge(key, operand) : store_->ReadModifyWrite(key, operand);
        break;
      case OpType::kDelete:
        s = store_->Delete(key);
        break;
    }
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  }
  const StoreStats single = store_->stats();

  std::unique_ptr<KVStore> replayed = MustOpen(GetParam(), dir_->path() + "/db-replayed");
  ASSERT_NE(replayed, nullptr);
  auto result = ReplayTrace(trace, replayed.get(), ReplayOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ops, trace.size());
  const StoreStats stats = replayed->stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.batched_ops, 0u);
  EXPECT_EQ(stats.gets, single.gets);
  EXPECT_EQ(stats.puts, single.puts);
  EXPECT_EQ(stats.merges, single.merges);
  EXPECT_EQ(stats.deletes, single.deletes);
  EXPECT_EQ(stats.rmws, single.rmws);
  EXPECT_EQ(stats.bytes_written, single.bytes_written);
  EXPECT_EQ(stats.bytes_read, single.bytes_read);
  EXPECT_TRUE(replayed->Close().ok());
}

// At any width a run of one op is the single-op call. Each get followed by a
// put of its key (the incremental-window pattern) cuts the pending reads at
// one key, so every get is a Get, and only the writes are batched.
TEST(BatchedReplayTest, OneKeyReadRunsAsGet) {
  std::vector<StateAccess> trace;
  for (uint64_t i = 0; i < 100; ++i) {
    trace.push_back(StateAccess{OpType::kGet, StateKey{i, 0}, 0, i});
    trace.push_back(StateAccess{OpType::kPut, StateKey{i, 0}, 16, i});
  }
  for (const char* engine : {"mem", "btree"}) {
    ScopedTempDir dir;
    std::unique_ptr<KVStore> store = MustOpen(engine, dir.path() + "/db");
    ASSERT_NE(store, nullptr);
    ReplayOptions opts;
    opts.batch_size = 32;
    auto result = ReplayTrace(trace, store.get(), opts);
    ASSERT_TRUE(result.ok()) << engine;
    EXPECT_EQ(result->ops, trace.size()) << engine;
    EXPECT_EQ(result->not_found, 100u) << engine;
    const StoreStats stats = store->stats();
    EXPECT_EQ(stats.gets, 100u) << engine;
    EXPECT_EQ(stats.puts, 100u) << engine;
    // Writes of 32, 32, 32 and the trailing 4; no MultiGet.
    EXPECT_EQ(stats.batches, 4u) << engine;
    EXPECT_EQ(stats.batched_ops, 100u) << engine;
    EXPECT_TRUE(store->Close().ok());
  }
}

// ------------------------------------------------ whole-call MultiGet errors

// An engine that refuses a closed store fails MultiGet for every key, not
// just in its return value: callers that read only the per-key statuses (the
// server) must see the error too.
TEST(ClosedStoreTest, MultiGetErrorReachesEveryKey) {
  for (const char* engine : {"btree", "faster"}) {
    ScopedTempDir dir;
    std::unique_ptr<KVStore> store = MustOpen(engine, dir.path() + "/db");
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Put("k", "v").ok());
    ASSERT_TRUE(store->Close().ok());
    std::vector<std::string> values;
    std::vector<Status> statuses;
    const Status s = store->MultiGet({"k", "missing"}, &values, &statuses);
    EXPECT_FALSE(s.ok()) << engine;
    ASSERT_EQ(statuses.size(), 2u) << engine;
    for (const Status& st : statuses) {
      EXPECT_FALSE(st.ok() || st.IsNotFound()) << engine << ": " << st.ToString();
    }
  }
}

// ----------------------------------------------- group-commit WAL records

TEST(WalBatchTest, BatchRecordRoundTripsInOrder) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "solo", "s"}}, /*sync=*/false).ok());
    ASSERT_TRUE((*wal)
                    ->AppendGroup({{RecType::kValue, "a", "1"},
                                   {RecType::kMergeStack, "b", "2"},
                                   {RecType::kTombstone, "c", ""}},
                                  /*sync=*/true)
                    .ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }

  std::vector<std::tuple<RecType, std::string, std::string>> ops;
  auto replayed = ReplayWal(path, [&](RecType type, std::string_view key,
                                      std::string_view value) {
    ops.emplace_back(type, std::string(key), std::string(value));
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 4u);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0], std::make_tuple(RecType::kValue, "solo", "s"));
  EXPECT_EQ(ops[1], std::make_tuple(RecType::kValue, "a", "1"));
  EXPECT_EQ(ops[2], std::make_tuple(RecType::kMergeStack, "b", "2"));
  EXPECT_EQ(ops[3], std::make_tuple(RecType::kTombstone, "c", ""));
}

TEST(WalBatchTest, EmptyGroupWritesNothing) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  auto wal = WalWriter::Create(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendGroup({}, /*sync=*/false).ok());
  EXPECT_EQ((*wal)->size(), 0u);
  ASSERT_TRUE((*wal)->Close().ok());
}

TEST(WalBatchTest, TornBatchRecordIsAllOrNothing) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "durable", "yes"}}, /*sync=*/false).ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 8; ++i) {
      keys.push_back("batch" + std::to_string(i));
    }
    const std::string value(32, 'v');
    std::vector<WalWriter::GroupOp> group;
    for (const std::string& key : keys) {
      group.push_back({RecType::kValue, key, value});
    }
    ASSERT_TRUE((*wal)->AppendGroup(group, /*sync=*/false).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }

  // Tear the tail off the batch record: the crc covers the whole payload, so
  // even the intact leading entries must NOT replay.
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  data.resize(data.size() - 5);
  ASSERT_TRUE(WriteStringToFile(path, data).ok());

  std::vector<std::string> keys;
  auto replayed = ReplayWal(path, [&](RecType, std::string_view key, std::string_view) {
    keys.emplace_back(key);
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 1u);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], "durable");
}

// Crash recovery through the store: a database directory whose manifest
// points at a WAL containing a group-commit record (the state after a crash
// between commit and memtable flush) must come back with the batch applied.
TEST(WalBatchTest, LsmReplaysGroupCommitRecordOnOpen) {
  ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/db";
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  ManifestData manifest;
  manifest.next_file_number = 2;
  manifest.wal_numbers = {1};
  ASSERT_TRUE(SaveManifest(dir, manifest).ok());
  {
    auto wal = WalWriter::Create(dir + "/wal-1.log");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)
                    ->AppendGroup({{RecType::kValue, "a", "1"},
                                   {RecType::kValue, "b", "2"},
                                   {RecType::kTombstone, "a", ""}},
                                  /*sync=*/true)
                    .ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }

  std::unique_ptr<KVStore> store = MustOpen("lsm", dir);
  ASSERT_NE(store, nullptr);
  std::string value;
  EXPECT_TRUE(store->Get("a", &value).IsNotFound());
  ASSERT_TRUE(store->Get("b", &value).ok());
  EXPECT_EQ(value, "2");
  EXPECT_TRUE(store->Close().ok());
}

TEST(WalBatchTest, LsmDropsTornGroupCommitRecordOnOpen) {
  ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/db";
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  ManifestData manifest;
  manifest.next_file_number = 2;
  manifest.wal_numbers = {1};
  ASSERT_TRUE(SaveManifest(dir, manifest).ok());
  const std::string wal_path = dir + "/wal-1.log";
  {
    auto wal = WalWriter::Create(wal_path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "synced", "v"}}, /*sync=*/true).ok());
    ASSERT_TRUE(
        (*wal)
            ->AppendGroup({{RecType::kValue, "torn1", "x"}, {RecType::kValue, "torn2", "y"}},
                          /*sync=*/false)
            .ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::string data;
  ASSERT_TRUE(ReadFileToString(wal_path, &data).ok());
  data.resize(data.size() - 3);  // the crash happened mid-batch-record
  ASSERT_TRUE(WriteStringToFile(wal_path, data).ok());

  std::unique_ptr<KVStore> store = MustOpen("lsm", dir);
  ASSERT_NE(store, nullptr);
  std::string value;
  ASSERT_TRUE(store->Get("synced", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(store->Get("torn1", &value).IsNotFound());
  EXPECT_TRUE(store->Get("torn2", &value).IsNotFound());
  EXPECT_TRUE(store->Close().ok());
}

}  // namespace
}  // namespace gadget
