// Tests for the pipelined LSM write path: the immutable-memtable queue (a
// Put never flushes inline), read correctness across memtable layers and
// against a model in every layout, empty merge operands in every layer,
// cross-writer WAL group commit, graduated backpressure counters, and
// parallel subcompactions.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/lsm/lsm_store.h"
#include "src/stores/memstore.h"

namespace gadget {
namespace {

LsmOptions PipelineOptions() {
  LsmOptions opts;
  opts.write_buffer_size = 8 * 1024;
  opts.max_bytes_level_base = 128 * 1024;
  opts.target_file_size = 16 * 1024;
  opts.max_immutable_memtables = 4;
  return opts;
}

LsmStore* AsLsm(const StatusOr<std::unique_ptr<KVStore>>& store) {
  return static_cast<LsmStore*>(store->get());
}

// Fills the store until `n` memtables have been sealed onto the immutable
// queue. Requires the flusher paused and n < max_immutable_memtables.
void SealMemtables(KVStore* store, LsmStore* lsm, size_t n, const std::string& tag,
                   std::map<std::string, std::string>* expected) {
  const std::string value(512, 'v');
  for (int i = 0; lsm->TEST_NumImmutables() < n; ++i) {
    ASSERT_LT(i, 10'000) << "memtable never sealed";
    std::string key = tag + std::to_string(i);
    ASSERT_TRUE(store->Put(key, value).ok());
    (*expected)[key] = value;
  }
}

TEST(LsmPipelineTest, PutNeverFlushesInline) {
  ScopedTempDir dir;
  auto store = LsmStore::Open(dir.path(), PipelineOptions());
  ASSERT_TRUE(store.ok());
  auto* lsm = AsLsm(store);
  lsm->TEST_PauseFlusher(true);

  std::map<std::string, std::string> expected;
  SealMemtables(store->get(), lsm, 3, "seal", &expected);

  // Three memtables were sealed but the flusher is held: every Put above
  // returned without building an SSTable.
  EXPECT_EQ(lsm->TEST_NumImmutables(), 3u);
  EXPECT_EQ(lsm->NumFilesAtLevel(0), 0);
  EXPECT_EQ(lsm->stats().flushes, 0u);

  // Reads see all layers while the queue is held.
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }

  // Release the flusher: the queue drains oldest-first into L0.
  lsm->TEST_PauseFlusher(false);
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ(lsm->TEST_NumImmutables(), 0u);
  EXPECT_GT(lsm->NumFilesAtLevel(0) + lsm->NumFilesAtLevel(1), 0);
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmPipelineTest, ReadsResolveAcrossMemtableLayers) {
  ScopedTempDir dir;
  auto store = LsmStore::Open(dir.path(), PipelineOptions());
  ASSERT_TRUE(store.ok());
  auto* lsm = AsLsm(store);
  lsm->TEST_PauseFlusher(true);

  // Layer 0 (oldest, sealed): base value + first operand; a key that will be
  // deleted later; a key that will be overwritten later.
  ASSERT_TRUE((*store)->Put("merge-key", "base").ok());
  ASSERT_TRUE((*store)->Merge("merge-key", "+a").ok());
  ASSERT_TRUE((*store)->Put("dead-key", "soon gone").ok());
  ASSERT_TRUE((*store)->Put("over-key", "old").ok());
  ASSERT_TRUE((*store)->Merge("orphan", "+1").ok());
  std::map<std::string, std::string> filler;
  SealMemtables(store->get(), lsm, 1, "fill-a", &filler);

  // Layer 1 (sealed): operand only, delete, overwrite.
  ASSERT_TRUE((*store)->Merge("merge-key", "+b").ok());
  ASSERT_TRUE((*store)->Delete("dead-key").ok());
  ASSERT_TRUE((*store)->Put("over-key", "new").ok());
  ASSERT_TRUE((*store)->Merge("orphan", "+2").ok());
  SealMemtables(store->get(), lsm, 2, "fill-b", &filler);

  // Active layer: one more operand.
  ASSERT_TRUE((*store)->Merge("merge-key", "+c").ok());

  auto verify = [&] {
    std::string got;
    ASSERT_TRUE((*store)->Get("merge-key", &got).ok());
    EXPECT_EQ(got, "base+a+b+c");  // operands in write order across layers
    EXPECT_TRUE((*store)->Get("dead-key", &got).IsNotFound());
    ASSERT_TRUE((*store)->Get("over-key", &got).ok());
    EXPECT_EQ(got, "new");
    ASSERT_TRUE((*store)->Get("orphan", &got).ok());
    EXPECT_EQ(got, "+1+2");  // operands with no base anywhere
  };
  verify();

  // Same answers after the queue drains into SSTables.
  lsm->TEST_PauseFlusher(false);
  ASSERT_TRUE((*store)->Flush().ok());
  verify();
  ASSERT_TRUE((*store)->Close().ok());
}

// Every read path against a std::map model over one data set in four
// layouts: the active memtable only, sealed immutables, several L0 files,
// and after an L0->L1 compaction. Each phase reads every key and some absent
// ones through Get and through MultiGet in batches of 1, 7 and 64 (with
// duplicates), with and without pool admission. The pool holds four blocks,
// so the reads both hit it and miss it.
TEST(LsmPipelineTest, ReadsMatchModelInEveryLayout) {
  ScopedTempDir dir;
  LsmOptions opts = PipelineOptions();
  opts.write_buffer_size = 64 * 1024;  // a round of ops stays in one memtable
  opts.l0_compaction_trigger = 4;
  BufferPoolOptions pool_opts;
  pool_opts.capacity_bytes = 16 * 1024;
  pool_opts.shards = 1;
  auto store = LsmStore::Open(dir.path(), opts, std::make_shared<BufferPool>(pool_opts));
  ASSERT_TRUE(store.ok());
  auto* lsm = AsLsm(store);

  // Put replaces, Merge appends bytes, Delete erases.
  std::map<std::string, std::string> model;
  auto put = [&](const std::string& key, const std::string& value) {
    ASSERT_TRUE((*store)->Put(key, value).ok());
    model[key] = value;
  };
  auto merge = [&](const std::string& key, const std::string& operand) {
    ASSERT_TRUE((*store)->Merge(key, operand).ok());
    model[key] += operand;
  };
  auto del = [&](const std::string& key) {
    ASSERT_TRUE((*store)->Delete(key).ok());
    model.erase(key);
  };
  constexpr uint32_t kKeys = 300;
  auto key_of = [](uint32_t i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03u", i);
    return std::string(key);
  };
  Pcg32 rng(53);
  auto random_ops = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::string key = key_of(rng.NextBounded(kKeys));
      const uint32_t dice = rng.NextBounded(10);
      if (dice < 4) {
        put(key, std::string(8 + rng.NextBounded(120), static_cast<char>('a' + dice)));
      } else if (dice < 7) {
        merge(key, "+" + std::to_string(i));
      } else if (dice < 8) {
        merge(key, "");  // still makes an absent key present
      } else {
        del(key);
      }
    }
  };

  auto check = [&](const char* phase, const std::string& key, const Status& s,
                   const std::string& got) {
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << phase << " " << key << ": " << s.ToString();
    } else if (s.ok()) {
      EXPECT_EQ(got, it->second) << phase << " " << key;
    } else {
      ADD_FAILURE() << phase << " " << key << ": " << s.ToString();
    }
  };
  auto verify = [&](const char* phase) {
    // The key space with every third key twice in a row, the keys outside
    // it, and absent keys below, inside and above the key range.
    std::vector<std::string> keys;
    for (uint32_t i = 0; i < kKeys; ++i) {
      keys.push_back(key_of(i));
      if (i % 3 == 0) {
        keys.push_back(key_of(i));
      }
    }
    for (const auto& entry : model) {
      if (entry.first[0] != 'k') {
        keys.push_back(entry.first);
      }
    }
    keys.insert(keys.end(), {"a-absent", "k150x", "zz-absent"});
    for (bool fill : {true, false}) {
      ReadOptions ropts;
      ropts.fill_cache = fill;
      for (const std::string& key : keys) {
        std::string got;
        check(phase, key, (*store)->Get(key, &got, ropts), got);
      }
      for (size_t batch : {1, 7, 64}) {
        for (size_t at = 0; at < keys.size(); at += batch) {
          const std::vector<std::string> chunk(
              keys.begin() + static_cast<std::ptrdiff_t>(at),
              keys.begin() + static_cast<std::ptrdiff_t>(std::min(keys.size(), at + batch)));
          std::vector<std::string> values;
          std::vector<Status> statuses;
          EXPECT_TRUE((*store)->MultiGet(chunk, &values, &statuses, ropts).ok()) << phase;
          for (size_t i = 0; i < chunk.size(); ++i) {
            check(phase, chunk[i], statuses[i], values[i]);
          }
        }
      }
    }
  };

  // 1. The active memtable only.
  lsm->TEST_PauseFlusher(true);
  put("chain", "base");
  put("tomb", "old");
  random_ops(300);
  ASSERT_EQ(lsm->TEST_NumImmutables(), 0u);
  verify("memtable");

  // 2. Two sealed immutables under the active memtable.
  SealMemtables(store->get(), lsm, 1, "seal-a", &model);
  merge("chain", "+imm");
  random_ops(300);
  SealMemtables(store->get(), lsm, 2, "seal-b", &model);
  random_ops(100);
  ASSERT_EQ(lsm->NumFilesAtLevel(0), 0);
  verify("immutables");

  // 3. The queue and the memtable flushed into three L0 files.
  lsm->TEST_PauseFlusher(false);
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_EQ(lsm->NumFilesAtLevel(0), 3);
  ASSERT_EQ(lsm->stats().compactions, 0u);
  verify("L0");

  // 4. A fourth L0 file triggers the L0->L1 compaction. Then one L0 file and
  // the memtable go on top: a merge chain spans memtable, L0 and L1, and an
  // L0 tombstone sits under later merges.
  merge("chain", "+l1");
  random_ops(300);
  ASSERT_TRUE((*store)->Flush().ok());
  for (int i = 0; lsm->stats().compactions == 0 || lsm->NumFilesAtLevel(0) > 0; ++i) {
    ASSERT_LT(i, 2000) << "the L0->L1 compaction never ran";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(lsm->NumFilesAtLevel(1), 0);
  merge("chain", "+l0");
  del("tomb");
  random_ops(150);
  ASSERT_TRUE((*store)->Flush().ok());
  merge("chain", "+mem");
  merge("tomb", "+after");
  random_ops(150);
  ASSERT_EQ(model["chain"], "base+imm+l1+l0+mem");
  ASSERT_EQ(model["tomb"], "+after");
  verify("L1");

  const StoreStats stats = lsm->stats();
  EXPECT_GT(stats.io_batches, 0u);  // the miss path ran...
  EXPECT_GT(stats.cache_hits, 0u);  // ...and so did the pool-hit path
  ASSERT_TRUE((*store)->Close().ok());
}

// An empty merge operand makes an absent key present, as in MemStore: on an
// absent key, on a tombstone, and after a non-empty operand, with the empty
// operand in the same layer as the older records or in a newer one. Every
// key is read through Get and MultiGet as the records move from the active
// memtable down to the last level, through an L0->L1 compaction that is
// bottommost and one that is not.
TEST(LsmPipelineTest, EmptyOperandMakesKeyPresentInEveryLayer) {
  ScopedTempDir dir;
  LsmOptions opts = PipelineOptions();
  opts.write_buffer_size = 64 * 1024;
  opts.num_levels = 3;
  // One output file per compaction, so L2 is one file that spans every key
  // written before it.
  opts.compaction_threads = 1;
  opts.target_file_size = 1ull << 30;
  opts.max_bytes_level_base = 1ull << 30;  // no L1->L2 until reopened smaller
  std::unique_ptr<KVStore> store;
  auto reopen = [&](uint64_t level_base, int l0_trigger) {
    if (store != nullptr) {
      ASSERT_TRUE(store->Close().ok());
      store.reset();
    }
    opts.max_bytes_level_base = level_base;
    opts.l0_compaction_trigger = l0_trigger;
    auto opened = LsmStore::Open(dir.path(), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store = std::move(*opened);
  };
  auto lsm = [&] { return static_cast<LsmStore*>(store.get()); };
  auto wait_for = [&](const char* what, const std::function<bool()>& done) {
    for (int i = 0; !done(); ++i) {
      ASSERT_LT(i, 2000) << what << " never happened";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  MemStore model;
  std::vector<std::string> keys;
  auto merge = [&](const std::string& key, const std::string& operand) {
    ASSERT_TRUE(store->Merge(key, operand).ok());
    ASSERT_TRUE(model.Merge(key, operand).ok());
  };
  auto put = [&](const std::string& key, const std::string& value) {
    ASSERT_TRUE(store->Put(key, value).ok());
    ASSERT_TRUE(model.Put(key, value).ok());
  };
  auto del = [&](const std::string& key) {
    ASSERT_TRUE(store->Delete(key).ok());
    ASSERT_TRUE(model.Delete(key).ok());
  };
  // The records older than the empty operand, and in the same layer the
  // operand itself; `split` keys take their operand in second_half().
  auto first_half = [&](const std::string& p) {
    for (const char* k : {"absent", "tomb", "after", "twice", "tomb-split", "after-split",
                          "twice-split", "gone"}) {
      keys.push_back(p + k);
    }
    merge(p + "absent", "");
    put(p + "tomb", "old");
    del(p + "tomb");
    merge(p + "tomb", "");
    merge(p + "after", "x");
    merge(p + "after", "");
    merge(p + "twice", "");
    merge(p + "twice", "");
    put(p + "tomb-split", "old");
    del(p + "tomb-split");
    merge(p + "after-split", "x");
    merge(p + "twice-split", "");
    del(p + "gone");
  };
  auto second_half = [&](const std::string& p) {
    merge(p + "tomb-split", "");
    merge(p + "after-split", "");
    merge(p + "twice-split", "");
  };
  auto verify = [&](const char* layer) {
    for (const std::string& key : keys) {
      std::string got;
      std::string want;
      const Status s = store->Get(key, &got);
      const Status w = model.Get(key, &want);
      ASSERT_TRUE(w.ok() || w.IsNotFound());
      EXPECT_EQ(s.code(), w.code()) << layer << " Get " << key << ": " << s.ToString();
      if (s.ok() && w.ok()) {
        EXPECT_EQ(got, want) << layer << " Get " << key;
      }
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    EXPECT_TRUE(store->MultiGet(keys, &values, &statuses).ok()) << layer;
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string want;
      const Status w = model.Get(keys[i], &want);
      EXPECT_EQ(statuses[i].code(), w.code())
          << layer << " MultiGet " << keys[i] << ": " << statuses[i].ToString();
      if (statuses[i].ok() && w.ok()) {
        EXPECT_EQ(values[i], want) << layer << " MultiGet " << keys[i];
      }
    }
  };

  // 1. The active memtable.
  ASSERT_NO_FATAL_FAILURE(reopen(1ull << 30, 4));
  lsm()->TEST_PauseFlusher(true);
  first_half("m-");
  second_half("m-");
  verify("memtable");

  // 2. A sealed immutable under the active memtable.
  first_half("i-");
  std::map<std::string, std::string> filler;
  SealMemtables(store.get(), lsm(), 1, "seal", &filler);
  second_half("i-");
  verify("immutables");

  // 3. Three L0 files, the split keys' halves in different ones.
  lsm()->TEST_PauseFlusher(false);
  first_half("z-");
  ASSERT_TRUE(store->Flush().ok());
  second_half("z-");
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_EQ(lsm()->NumFilesAtLevel(0), 3);
  ASSERT_EQ(lsm()->stats().compactions, 0u);
  verify("L0");

  // 4. A fourth L0 file triggers a bottommost L0->L1 compaction (L2 is
  // empty): stacks become values, tombstones go.
  first_half("b-");
  second_half("b-");
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_NO_FATAL_FAILURE(wait_for("bottommost L0->L1", [&] {
    return lsm()->stats().compactions > 0 && lsm()->NumFilesAtLevel(0) == 0;
  }));
  ASSERT_EQ(lsm()->NumFilesAtLevel(1), 1);
  verify("L1, bottommost");

  // 5. A tiny L1 target moves L1 into L2, one file spanning every key so far.
  ASSERT_NO_FATAL_FAILURE(reopen(1, 4));
  ASSERT_NO_FATAL_FAILURE(wait_for("L1->L2", [&] { return lsm()->NumFilesAtLevel(1) == 0; }));
  ASSERT_EQ(lsm()->NumFilesAtLevel(2), 1);
  verify("L2");

  // 6. The "n-" keys sort inside that L2 file, so their L0->L1 compaction is
  // not bottommost: stacks stay stacks and tombstones stay.
  ASSERT_NO_FATAL_FAILURE(reopen(1ull << 30, 2));
  first_half("n-");
  ASSERT_TRUE(store->Flush().ok());
  second_half("n-");
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_NO_FATAL_FAILURE(
      wait_for("L0->L1 over L2", [&] { return lsm()->NumFilesAtLevel(0) == 0; }));
  ASSERT_EQ(lsm()->NumFilesAtLevel(1), 1);
  ASSERT_EQ(lsm()->NumFilesAtLevel(2), 1);
  verify("L1 over L2");

  // 7. And down into the last level.
  ASSERT_NO_FATAL_FAILURE(reopen(1, 2));
  ASSERT_NO_FATAL_FAILURE(
      wait_for("L1->L2 again", [&] { return lsm()->NumFilesAtLevel(1) == 0; }));
  verify("L2 again");
  ASSERT_TRUE(store->Close().ok());
}

TEST(LsmPipelineTest, BatchIsOneWalGroupRecord) {
  ScopedTempDir dir;
  auto store = LsmStore::Open(dir.path(), PipelineOptions());
  ASSERT_TRUE(store.ok());
  WriteBatch batch;
  for (int i = 0; i < 7; ++i) {
    batch.Put("b" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE((*store)->Write(batch).ok());
  // The whole batch went through the commit queue as one group of 7 ops.
  EXPECT_GE((*store)->stats().wal_group_size_max, 7u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmPipelineTest, ConcurrentWritersGroupCommit) {
  ScopedTempDir dir;
  LsmOptions opts = PipelineOptions();
  opts.write_buffer_size = 256 * 1024;  // keep the test in the WAL/memtable
  opts.sync_writes = true;              // a slow leader lets followers pile up
  auto store = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, "val" + std::to_string(i)).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  StoreStats stats = (*store)->stats();
  EXPECT_EQ(stats.puts, static_cast<uint64_t>(kThreads * kOpsPerThread));
  // With 8 writers racing a syncing leader, at least one append must have
  // carried two or more writers.
  EXPECT_GT(stats.wal_group_commits, 0u);
  EXPECT_GE(stats.wal_group_size_max, 2u);
  // Fewer fsyncs than logical writes is the whole point of group commit.
  EXPECT_LT(stats.wal_fsyncs, stats.puts);

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; i += 37) {
      std::string got;
      std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
      EXPECT_EQ(got, "val" + std::to_string(i));
    }
  }
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmPipelineTest, SlowdownTierTriggersBeforeStall) {
  ScopedTempDir dir;
  LsmOptions opts = PipelineOptions();
  opts.l0_compaction_trigger = 64;  // keep compaction out of the picture
  opts.l0_slowdown_limit = 1;       // slow down as soon as one L0 file exists
  opts.l0_stall_limit = 1000;       // never hard-stall on L0
  auto store = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  std::string value(1024, 'x');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), value).ok()) << i;
  }
  ASSERT_TRUE((*store)->Flush().ok());
  StoreStats stats = (*store)->stats();
  EXPECT_GT(stats.slowdown_micros, 0u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmPipelineTest, FullImmutableQueueStallsWriters) {
  ScopedTempDir dir;
  LsmOptions opts = PipelineOptions();
  opts.max_immutable_memtables = 2;
  auto store = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  auto* lsm = AsLsm(store);
  lsm->TEST_PauseFlusher(true);
  std::map<std::string, std::string> expected;
  SealMemtables(store->get(), lsm, 2, "seal", &expected);

  // The queue is at capacity; the next memtable-filling write must block in
  // the stall tier until the flusher is released.
  std::thread unpauser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    lsm->TEST_PauseFlusher(false);
  });
  const std::string value(512, 'v');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Put("post" + std::to_string(i), value).ok()) << i;
  }
  unpauser.join();
  EXPECT_GT((*store)->stats().stall_micros, 0u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmPipelineTest, ParallelSubcompactionsPreserveData) {
  ScopedTempDir dir;
  LsmOptions opts = PipelineOptions();
  opts.compaction_threads = 4;
  opts.l0_compaction_trigger = 2;
  auto store = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());

  // Overwrites, deletes, and merge stacks churned through enough flushes
  // that multi-input compactions (and their sub-range splits) must run.
  std::map<std::string, std::string> expected;
  Pcg32 rng(29);
  for (int i = 0; i < 6000; ++i) {
    std::string key = "k" + std::to_string(rng.NextBounded(500));
    uint32_t dice = rng.NextBounded(10);
    if (dice < 7) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(key, value).ok());
      expected[key] = value;
    } else if (dice < 9) {
      ASSERT_TRUE((*store)->Merge(key, "+m").ok());
      expected[key] += "+m";
    } else {
      ASSERT_TRUE((*store)->Delete(key).ok());
      expected.erase(key);
    }
  }
  ASSERT_TRUE((*store)->Flush().ok());
  StoreStats stats = (*store)->stats();
  EXPECT_GT(stats.compactions, 0u);

  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }
  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(i);
    if (expected.count(key)) {
      continue;
    }
    std::string got;
    EXPECT_TRUE((*store)->Get(key, &got).IsNotFound()) << key;
  }
  ASSERT_TRUE((*store)->Close().ok());
}

}  // namespace
}  // namespace gadget
