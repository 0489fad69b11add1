// Tests for the pipelined LSM write path: the immutable-memtable queue (a
// Put never flushes inline), read correctness across memtable layers,
// cross-writer WAL group commit, graduated backpressure counters, and
// parallel subcompactions.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/lsm/lsm_store.h"

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
