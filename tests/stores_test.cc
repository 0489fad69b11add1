// Engine-level tests shared across all four KV stores plus engine-specific
// behaviour (LSM compaction & reopen, FASTER regions, B+tree invariants) and
// randomized differential tests against the in-memory reference store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

#include "src/common/coding.h"
#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/btree/btree_store.h"
#include "src/stores/faster/faster_store.h"
#include "src/stores/kvstore.h"
#include "src/stores/lsm/lsm_store.h"
#include "src/stores/memstore.h"

namespace gadget {
namespace {

// -------------------------------------------------- cross-engine contract

class StoreContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScopedTempDir>();
    StoreOptions opts;
    opts.engine = GetParam();
    opts.dir = dir_->path() + "/db";
    auto store = OpenStore(opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
  }

  void TearDown() override {
    if (store_ != nullptr) {
      EXPECT_TRUE(store_->Close().ok());
    }
  }

  std::unique_ptr<ScopedTempDir> dir_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(StoreContractTest, PutGetDelete) {
  ASSERT_TRUE(store_->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_TRUE(store_->Get("k", &value).IsNotFound());
}

TEST_P(StoreContractTest, GetMissingIsNotFound) {
  std::string value;
  EXPECT_TRUE(store_->Get("nope", &value).IsNotFound());
}

TEST_P(StoreContractTest, OverwriteReplacesValue) {
  ASSERT_TRUE(store_->Put("k", "old").ok());
  ASSERT_TRUE(store_->Put("k", "new and longer").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "new and longer");
}

TEST_P(StoreContractTest, DeleteMissingKeyIsHarmless) {
  EXPECT_TRUE(store_->Delete("ghost").ok());
}

TEST_P(StoreContractTest, ReadModifyWriteAppends) {
  ASSERT_TRUE(store_->ReadModifyWrite("k", "a").ok());
  ASSERT_TRUE(store_->ReadModifyWrite("k", "b").ok());
  ASSERT_TRUE(store_->ReadModifyWrite("k", "c").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "abc");
}

TEST_P(StoreContractTest, MergeOrRmwEquivalence) {
  // Merge where supported, RMW otherwise — same observable semantics (§5.5).
  auto update = [&](std::string_view key, std::string_view op) {
    if (store_->supports_merge()) {
      return store_->Merge(key, op);
    }
    return store_->ReadModifyWrite(key, op);
  };
  ASSERT_TRUE(store_->Put("k", "base|").ok());
  ASSERT_TRUE(update("k", "m1|").ok());
  ASSERT_TRUE(update("k", "m2").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "base|m1|m2");
}

TEST_P(StoreContractTest, ManyKeysSurviveFlush) {
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store_->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store_->Flush().ok());
  std::string value;
  for (int i = 0; i < n; i += 13) {
    ASSERT_TRUE(store_->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST_P(StoreContractTest, LargeValues) {
  std::string big(300000, 'X');
  ASSERT_TRUE(store_->Put("big", big).ok());
  std::string value;
  ASSERT_TRUE(store_->Get("big", &value).ok());
  EXPECT_EQ(value, big);
}

TEST_P(StoreContractTest, EmptyValue) {
  ASSERT_TRUE(store_->Put("k", "").ok());
  std::string value = "sentinel";
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "");
}

TEST_P(StoreContractTest, StatsCountOperations) {
  ASSERT_TRUE(store_->Put("a", "1").ok());
  std::string value;
  // status intentionally ignored: this test asserts on the counters, not
  // the outcomes.
  (void)store_->Get("a", &value);
  (void)store_->Delete("a");
  StoreStats stats = store_->stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.gets, 1u);
  EXPECT_EQ(stats.deletes, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, StoreContractTest,
                         ::testing::Values("mem", "lsm", "lethe", "faster", "btree"),
                         [](const auto& spec) { return std::string(spec.param); });

// -------------------------------------------------- differential (property)

class StoreDifferentialTest : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(StoreDifferentialTest, MatchesReferenceUnderRandomOps) {
  const auto& [engine, seed] = GetParam();
  ScopedTempDir dir;
  auto store_or = OpenStore({.engine = engine, .dir = dir.path() + "/db"});
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  std::map<std::string, std::string> reference;

  Pcg32 rng(static_cast<uint64_t>(seed));
  const int kOps = 20000;
  const int kKeySpace = 200;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "key" + std::to_string(rng.NextBounded(kKeySpace));
    uint32_t dice = rng.NextBounded(100);
    if (dice < 35) {  // put
      std::string value = "v" + std::to_string(rng.NextU32() % 100000);
      ASSERT_TRUE(store->Put(key, value).ok());
      reference[key] = value;
    } else if (dice < 60) {  // merge/rmw append
      std::string op = "+" + std::to_string(rng.NextU32() % 100);
      if (store->supports_merge()) {
        ASSERT_TRUE(store->Merge(key, op).ok());
      } else {
        ASSERT_TRUE(store->ReadModifyWrite(key, op).ok());
      }
      reference[key] += op;
    } else if (dice < 75) {  // delete
      ASSERT_TRUE(store->Delete(key).ok());
      reference.erase(key);
    } else {  // get
      std::string value;
      Status s = store->Get(key, &value);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_TRUE(s.IsNotFound()) << "key " << key << " op " << i << ": " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << "key " << key << " op " << i << ": " << s.ToString();
        EXPECT_EQ(value, it->second) << "key " << key << " op " << i;
      }
    }
  }
  // Final sweep: every key must match.
  for (int k = 0; k < kKeySpace; ++k) {
    std::string key = "key" + std::to_string(k);
    std::string value;
    Status s = store->Get(key, &value);
    auto it = reference.find(key);
    if (it == reference.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(value, it->second) << key;
    }
  }
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    EnginesBySeeds, StoreDifferentialTest,
    ::testing::Combine(::testing::Values("lsm", "lethe", "faster", "btree"),
                       ::testing::Values(1, 2, 3)),
    [](const auto& spec) {
      return std::string(std::get<0>(spec.param)) + "_seed" +
             std::to_string(std::get<1>(spec.param));
    });

// ------------------------------------------------------------ LSM specifics

LsmOptions SmallLsmOptions() {
  LsmOptions opts;
  opts.write_buffer_size = 64 * 1024;  // force frequent flushes
  opts.max_bytes_level_base = 256 * 1024;
  opts.target_file_size = 64 * 1024;
  return opts;
}

TEST(LsmStoreTest, CompactionKeepsDataCorrect) {
  ScopedTempDir dir;
  auto store_or = LsmStore::Open(dir.path(), SmallLsmOptions());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  const int n = 5000;
  std::string value(100, 'v');
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i % 500), value + std::to_string(i)).ok());
  }
  // Multiple flushes must have happened and compaction must have run.
  StoreStats stats = store->stats();
  EXPECT_GT(stats.flushes, 2u);
  for (int k = 0; k < 500; ++k) {
    std::string got;
    ASSERT_TRUE(store->Get("key" + std::to_string(k), &got).ok()) << k;
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST(LsmStoreTest, ReopenRecoversData) {
  ScopedTempDir dir;
  {
    auto store = LsmStore::Open(dir.path(), SmallLsmOptions());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Delete("key7").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = LsmStore::Open(dir.path(), SmallLsmOptions());
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("key42", &value).ok());
  EXPECT_EQ(value, "v42");
  EXPECT_TRUE((*store)->Get("key7", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmStoreTest, ReopenWithoutCleanCloseReplaysWal) {
  ScopedTempDir dir;
  {
    LsmOptions opts;  // default large buffer: nothing flushes
    auto store = LsmStore::Open(dir.path(), opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("durable", "yes").ok());
    // Simulate a crash: leak the store without Close() by only flushing the
    // WAL (Close would flush the memtable). We cannot literally crash here,
    // so reopen after a Close that flushed nothing is approximated by
    // closing and verifying the data comes back either via WAL or SSTable.
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = LsmStore::Open(dir.path(), LsmOptions());
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("durable", &value).ok());
  EXPECT_EQ(value, "yes");
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmStoreTest, MergeSurvivesFlushAndCompaction) {
  ScopedTempDir dir;
  LsmOptions opts = SmallLsmOptions();
  auto store_or = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  ASSERT_TRUE(store->Put("acc", "base").ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store->Merge("acc", ",“" + std::to_string(i)).ok());
    // Interleave unrelated churn to force flushes between operands.
    ASSERT_TRUE(store->Put("churn" + std::to_string(i % 97), std::string(500, 'c')).ok());
  }
  std::string value;
  ASSERT_TRUE(store->Get("acc", &value).ok());
  EXPECT_TRUE(value.starts_with("base"));
  EXPECT_TRUE(value.ends_with("999"));
  ASSERT_TRUE(store->Close().ok());
}

TEST(LsmStoreTest, LetheReclaimsTombstonesFaster) {
  // Delete-aware mode must compact tombstone-laden files even when size
  // triggers would not fire.
  ScopedTempDir dir;
  LsmOptions opts = SmallLsmOptions();
  opts.delete_aware = true;
  opts.delete_persistence_ms = 50;
  auto store_or = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  auto* lsm = static_cast<LsmStore*>(store.get());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), std::string(100, 'v')).ok());
  }
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  uint64_t compactions_before = store->stats().compactions;
  // Wait past the delete-persistence threshold: the background thread must
  // pick up the tombstone-laden files on its own.
  for (int spin = 0; spin < 100 && store->stats().compactions == compactions_before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(store->stats().compactions, compactions_before);
  (void)lsm;
  ASSERT_TRUE(store->Close().ok());
}

// --------------------------------------------------------- FASTER specifics

TEST(FasterStoreTest, InPlaceUpdatesInMutableRegion) {
  ScopedTempDir dir;
  FasterOptions opts;
  auto store_or = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto* faster = static_cast<FasterStore*>(store_or->get());
  ASSERT_TRUE((*store_or)->Put("k", "12345678").ok());
  uint64_t tail_before = faster->tail_address();
  ASSERT_TRUE((*store_or)->Put("k", "abcdefgh").ok());  // same size -> in place
  EXPECT_EQ(faster->tail_address(), tail_before);
  EXPECT_EQ(faster->in_place_updates(), 1u);
  std::string value;
  ASSERT_TRUE((*store_or)->Get("k", &value).ok());
  EXPECT_EQ(value, "abcdefgh");
  // Different size -> append.
  ASSERT_TRUE((*store_or)->Put("k", "longer value").ok());
  EXPECT_GT(faster->tail_address(), tail_before);
  ASSERT_TRUE((*store_or)->Close().ok());
}

TEST(FasterStoreTest, EvictionToDiskKeepsReadsWorking) {
  ScopedTempDir dir;
  FasterOptions opts;
  opts.log_memory_bytes = 64 * 1024;  // tiny memory window
  auto store_or = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto* faster = static_cast<FasterStore*>(store_or->get());
  const int n = 6000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*store_or)->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  EXPECT_GT(faster->head_address(), 0u);  // eviction happened
  std::string value;
  for (int i = 0; i < n; i += 41) {  // old keys now live on disk
    ASSERT_TRUE((*store_or)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
  ASSERT_TRUE((*store_or)->Close().ok());
}

TEST(FasterStoreTest, RecoveryRebuildsIndex) {
  ScopedTempDir dir;
  {
    auto store = FasterStore::Open(dir.path(), FasterOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Put("b", "2").ok());
    ASSERT_TRUE((*store)->Put("a", "3").ok());
    ASSERT_TRUE((*store)->Delete("b").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = FasterStore::Open(dir.path(), FasterOptions());
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("a", &value).ok());
  EXPECT_EQ(value, "3");
  EXPECT_TRUE((*store)->Get("b", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

// --------------------------------------------------------- B+tree specifics

TEST(BTreeStoreTest, SplitsMaintainInvariants) {
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 512;  // tiny pages force deep trees
  auto store_or = BTreeStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto* btree = static_cast<BTreeStore*>(store_or->get());
  const int n = 3000;
  Pcg32 rng(5);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  // Random insertion order stresses splits everywhere in the tree.
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  for (int i : order) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    ASSERT_TRUE((*store_or)->Put(key, "val" + std::to_string(i)).ok());
  }
  EXPECT_GT(btree->height(), 2u);
  ASSERT_TRUE(btree->CheckInvariants().ok());
  std::string value;
  for (int i = 0; i < n; i += 17) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    ASSERT_TRUE((*store_or)->Get(key, &value).ok()) << key;
    EXPECT_EQ(value, "val" + std::to_string(i));
  }
  ASSERT_TRUE((*store_or)->Close().ok());
}

TEST(BTreeStoreTest, OverflowValues) {
  ScopedTempDir dir;
  auto store_or = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store_or.ok());
  std::string big(50000, 'O');
  ASSERT_TRUE((*store_or)->Put("big", big).ok());
  ASSERT_TRUE((*store_or)->Put("small", "s").ok());
  std::string value;
  ASSERT_TRUE((*store_or)->Get("big", &value).ok());
  EXPECT_EQ(value, big);
  // Replacing a large value must release and rebuild the chain.
  std::string bigger(120000, 'P');
  ASSERT_TRUE((*store_or)->Put("big", bigger).ok());
  ASSERT_TRUE((*store_or)->Get("big", &value).ok());
  EXPECT_EQ(value, bigger);
  ASSERT_TRUE((*store_or)->Close().ok());
}

TEST(BTreeStoreTest, PersistsAcrossReopen) {
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 1024;
  {
    auto store = BTreeStore::Open(dir.path(), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Delete("key500").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = BTreeStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  auto* btree = static_cast<BTreeStore*>(store->get());
  ASSERT_TRUE(btree->CheckInvariants().ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("key999", &value).ok());
  EXPECT_EQ(value, "v999");
  EXPECT_TRUE((*store)->Get("key500", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, TreeThatFitsThePoolWritesNothingBeforeFlush) {
  // The pool is a write-back cache: a tree that fits it writes no page
  // until Flush, however many pages are dirty.
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 512;
  const int n = 30000;
  auto key_of = [](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    return std::string(key);
  };
  // A leaf entry takes at least 12 + 9 + 2 + 2 = 25 bytes (slot, key, tag,
  // "v0"), so a 512-byte leaf (12-byte header) holds at most 20 keys and the
  // tree has more than 1,024 leaf pages.
  static_assert(30000 / ((512 - 12) / 25) > 1024);
  {
    auto pool = std::make_shared<BufferPool>(BufferPoolOptions{.capacity_bytes = 4 << 20});
    auto store = BTreeStore::Open(dir.path(), opts, pool);
    ASSERT_TRUE(store.ok());
    auto* btree = static_cast<BTreeStore*>(store->get());
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) {
      order[static_cast<size_t>(i)] = i;
    }
    Pcg32 rng(9);
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
    }
    for (int i : order) {
      ASSERT_TRUE((*store)->Put(key_of(i), "v" + std::to_string(i)).ok());
    }
    EXPECT_EQ(pool->overshoots(), 0u);
    EXPECT_EQ((*store)->stats().flushes, 0u);
    // Every node page is dirty (page 0 is the meta page, and no value
    // overflows), and Flush writes each exactly once.
    const uint64_t node_pages = btree->num_pages() - 1;
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ((*store)->stats().flushes, node_pages);
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ((*store)->stats().flushes, node_pages);
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Reopen on a fresh pool: every read comes from the page file.
  auto store = BTreeStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().ok());
  std::string value;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*store)->Get(key_of(i), &value).ok()) << i;
    ASSERT_EQ(value, "v" + std::to_string(i));
  }
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, ResidentDescentTakesNoPoolPins) {
  // A fresh tree on a pool that fits it is all dirty, and a descent reads
  // dirty pages from the store's own table: Gets and an in-place Write take
  // no pool pin, yet every level they read counts as a cache hit. After
  // Flush nothing is dirty, so a Get pins every level in the pool again.
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 512;
  constexpr int kKeys = 2000;
  constexpr int kGets = 100;
  constexpr int kBatch = 32;
  auto key_of = [](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    return std::string(key);
  };
  auto pool = std::make_shared<BufferPool>(BufferPoolOptions{.capacity_bytes = 4 << 20});
  auto store = BTreeStore::Open(dir.path(), opts, pool);
  ASSERT_TRUE(store.ok());
  auto* btree = static_cast<BTreeStore*>(store->get());
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE((*store)->Put(key_of(i), std::string(8, 'a')).ok());
  }
  const uint64_t height = btree->height();
  const uint64_t pages = btree->num_pages();
  ASSERT_GE(height, 3u);
  ASSERT_EQ(pool->overshoots(), 0u);

  const uint64_t pins = pool->pins();
  const StoreStats before = (*store)->stats();
  std::string value;
  for (int i = 0; i < kGets; ++i) {
    ASSERT_TRUE((*store)->Get(key_of(i * 7), &value).ok()) << i;
    ASSERT_EQ(value, std::string(8, 'a'));
  }
  WriteBatch batch;
  for (int i = 0; i < kBatch; ++i) {
    batch.Put(key_of(i * 13), std::string(8, 'b'));  // same length: in place
  }
  ASSERT_TRUE((*store)->Write(batch).ok());
  ASSERT_EQ(btree->num_pages(), pages);  // no split
  EXPECT_EQ(pool->pins(), pins);
  const StoreStats after = (*store)->stats();
  EXPECT_EQ(after.cache_hits - before.cache_hits, (kGets + kBatch) * height);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_EQ(after.cache_pins, before.cache_pins);

  ASSERT_TRUE((*store)->Flush().ok());
  const uint64_t flushed_pins = pool->pins();
  ASSERT_TRUE((*store)->Get(key_of(13), &value).ok());
  EXPECT_EQ(value, std::string(8, 'b'));
  EXPECT_EQ(pool->pins() - flushed_pins, height);
  ASSERT_TRUE(btree->CheckInvariants().ok());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, FreeListLinkOutsideTheFileIsCorruption) {
  // A freed three-page overflow chain is the free list, and its second page
  // links to page 2^30, past the end of the file. Splits take their pages
  // from the end of the file and never read the list. The first overflow Put
  // takes the list's head; the next must fail rather than follow the link
  // (or skip it and leak the page behind it), and the tree must still read.
  ScopedTempDir dir;
  constexpr uint32_t kPage = 4096;
  const std::string path = dir.path() + "/btree.db";
  {
    auto store = BTreeStore::Open(dir.path(), BTreeOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Put("big", std::string(3 * (kPage - 8), 'o')).ok());
    ASSERT_TRUE((*store)->Put("big", "small").ok());  // frees the chain
    ASSERT_TRUE((*store)->Close().ok());
  }
  std::string file;
  ASSERT_TRUE(ReadFileToString(path, &file).ok());
  const uint32_t head = DecodeFixed32(file.data() + 12);  // meta page field
  ASSERT_NE(head, 0u);
  ASSERT_LT(static_cast<size_t>(head) * kPage, file.size());
  const uint32_t second = DecodeFixed32(file.data() + static_cast<size_t>(head) * kPage);
  ASSERT_NE(second, 0u);
  ASSERT_LT(static_cast<size_t>(second) * kPage, file.size());
  const uint32_t far = 1u << 30;
  std::memcpy(&file[static_cast<size_t>(second) * kPage], &far, 4);
  ASSERT_TRUE(WriteStringToFile(path, file, /*sync=*/false).ok());

  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto* btree = static_cast<BTreeStore*>(store->get());
  auto key_of = [](int i) { return "k" + std::to_string(1000 + i); };
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Put(key_of(i), std::string(40, 's')).ok()) << i;
  }
  ASSERT_EQ(btree->height(), 2u);  // the root leaf split
  ASSERT_TRUE((*store)->Put("c", std::string(1200, 'c')).ok());  // takes the head
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status put = (*store)->Put("d", std::string(1200, 'd'));
    EXPECT_TRUE(put.IsCorruption()) << put.ToString();
    EXPECT_NE(put.ToString().find(path), std::string::npos) << put.ToString();
  }
  std::string value;
  ASSERT_TRUE((*store)->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE((*store)->Get("big", &value).ok());
  EXPECT_EQ(value, "small");
  ASSERT_TRUE((*store)->Get("c", &value).ok());
  EXPECT_EQ(value, std::string(1200, 'c'));
  EXPECT_TRUE((*store)->Get("d", &value).IsNotFound());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Get(key_of(i), &value).ok()) << i;
  }
  ASSERT_TRUE(btree->CheckInvariants().ok());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, ChainLinkToADirtyPageFreesNothing) {
  // Two three-page overflow values whose second pages both link to the page
  // the next split will take: a dirty leaf past the end of the file. The
  // overwrite and the delete that meet these chains must take effect and
  // report the corruption, but free no page of a chain they could not walk
  // whole. A page freed while a slot still named it would be handed to a
  // later value as well; a page freed twice would loop the free list.
  ScopedTempDir dir;
  constexpr uint32_t kPage = 4096;
  const std::string path = dir.path() + "/btree.db";
  const std::string chain_value(3 * (kPage - 8), 'o');
  {
    auto store = BTreeStore::Open(dir.path(), BTreeOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("big", chain_value).ok());   // pages 2, 3, 4
    ASSERT_TRUE((*store)->Put("big2", chain_value).ok());  // pages 5, 6, 7
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  std::string file;
  ASSERT_TRUE(ReadFileToString(path, &file).ok());
  const uint32_t split_page = DecodeFixed32(file.data() + 8);  // the meta page's next page
  ASSERT_EQ(split_page, 8u);
  ASSERT_EQ(file.size(), static_cast<size_t>(split_page) * kPage);
  for (const uint32_t second : {3u, 6u}) {
    ASSERT_EQ(DecodeFixed32(file.data() + static_cast<size_t>(second) * kPage), second + 1);
    std::memcpy(&file[static_cast<size_t>(second) * kPage], &split_page, 4);
  }
  ASSERT_TRUE(WriteStringToFile(path, file, /*sync=*/false).ok());

  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto* btree = static_cast<BTreeStore*>(store->get());
  auto key_of = [](int i) { return "k" + std::to_string(1000 + i); };
  int keys = 0;
  while (btree->height() == 1) {
    ASSERT_TRUE((*store)->Put(key_of(keys++), std::string(40, 's')).ok()) << keys;
  }
  ASSERT_GT(btree->num_pages(), split_page);  // the root leaf split into it

  const std::string fresh(3 * (kPage - 8), 'n');
  const Status put = (*store)->Put("big", fresh);
  EXPECT_TRUE(put.IsCorruption()) << put.ToString();
  EXPECT_NE(put.ToString().find(path), std::string::npos) << put.ToString();
  ASSERT_TRUE((*store)->Put("big", fresh).ok());  // the retry frees a chain it wrote
  const Status del = (*store)->Delete("big2");
  EXPECT_TRUE(del.IsCorruption()) << del.ToString();
  ASSERT_TRUE((*store)->Delete("big2").ok());
  // Two values that take their pages from the free list.
  ASSERT_TRUE((*store)->Put("c", std::string(3 * (kPage - 8), 'c')).ok());
  ASSERT_TRUE((*store)->Put("d", std::string(2 * (kPage - 8), 'd')).ok());

  auto check = [&](KVStore* s) {
    std::string value;
    ASSERT_TRUE(s->Get("big", &value).ok());
    EXPECT_EQ(value, fresh);
    EXPECT_TRUE(s->Get("big2", &value).IsNotFound());
    ASSERT_TRUE(s->Get("c", &value).ok());
    EXPECT_EQ(value, std::string(3 * (kPage - 8), 'c'));
    ASSERT_TRUE(s->Get("d", &value).ok());
    EXPECT_EQ(value, std::string(2 * (kPage - 8), 'd'));
    ASSERT_TRUE(s->Get("a", &value).ok());
    EXPECT_EQ(value, "1");
    for (int i = 0; i < keys; ++i) {
      ASSERT_TRUE(s->Get(key_of(i), &value).ok()) << i;
    }
    ASSERT_TRUE(static_cast<BTreeStore*>(s)->CheckInvariants().ok());
  };
  check(store->get());
  ASSERT_TRUE((*store)->Close().ok());
  auto reopened = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  check(reopened->get());
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST(BTreeStoreTest, RejectsSyncWrites) {
  // The B+tree has no log to sync; asking for synced writes must fail
  // rather than silently run unsynced.
  ScopedTempDir dir;
  auto store = OpenStore({.engine = "btree", .dir = dir.path() + "/db", .sync_writes = true});
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument()) << store.status().ToString();
  EXPECT_FALSE(FileExists(dir.path() + "/db"));  // refused before touching the disk
}

// Randomized ops against a MemStore oracle, with the pool at three sizes:
// one that fits the tree (nothing is written back before Flush), and 8 and
// 2 pages, far smaller than the tree, where the pressure write-back runs
// throughout.
// Each phase reopens the store on a fresh pool, checks every key, runs
// ops, checks the tree and flushes.
class BTreePoolOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreePoolOracleTest, MatchesMemStoreAcrossFlushAndReopen) {
  constexpr uint32_t kPage = 512;
  constexpr int kKeys = 500;
  const uint64_t pool_pages = GetParam();  // 0: a pool that fits the tree
  BTreeOptions opts;
  opts.page_size = kPage;
  BufferPoolOptions popts;
  popts.capacity_bytes = pool_pages == 0 ? (8 << 20) : pool_pages * kPage;
  popts.shards = 1;
  ScopedTempDir dir;
  MemStore oracle;
  Pcg32 rng(pool_pages + 1);
  auto random_key = [&] { return "key" + std::to_string(rng.NextBounded(kKeys)); };
  auto random_value = [&] {
    // One value in ten is longer than a quarter page and overflows.
    const uint32_t len =
        rng.NextBounded(10) == 0 ? kPage / 4 + 1 + rng.NextBounded(1500) : rng.NextBounded(40);
    return std::string(len, static_cast<char>('a' + rng.NextBounded(26)));
  };
  auto check = [&](const std::string& key, const Status& got_status, const std::string& got) {
    std::string want;
    const Status want_status = oracle.Get(key, &want);
    ASSERT_EQ(got_status.ok(), want_status.ok()) << key << ": " << got_status.ToString();
    ASSERT_TRUE(got_status.ok() || got_status.IsNotFound()) << got_status.ToString();
    if (want_status.ok()) {
      ASSERT_EQ(got, want) << key;
    }
  };
  auto check_all = [&](KVStore* store) {
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = "key" + std::to_string(k);
      std::string got;
      const Status s = store->Get(key, &got);
      check(key, s, got);
    }
  };
  for (int phase = 0; phase < 3; ++phase) {
    auto pool = std::make_shared<BufferPool>(popts);
    auto store_or = BTreeStore::Open(dir.path(), opts, pool);
    ASSERT_TRUE(store_or.ok());
    KVStore* store = store_or->get();
    auto* btree = static_cast<BTreeStore*>(store);
    check_all(store);
    for (int i = 0; i < 2000; ++i) {
      const uint32_t dice = rng.NextBounded(100);
      if (dice < 30) {
        const std::string key = random_key();
        const std::string value = random_value();
        ASSERT_TRUE(store->Put(key, value).ok());
        ASSERT_TRUE(oracle.Put(key, value).ok());
      } else if (dice < 50) {
        // The B+tree runs a batched merge as an eager read-modify-write.
        WriteBatch batch;
        const uint32_t count = 1 + rng.NextBounded(8);
        for (uint32_t j = 0; j < count; ++j) {
          batch.Merge(random_key(), "+" + std::to_string(rng.NextBounded(100)));
        }
        ASSERT_TRUE(store->Write(batch).ok());
        ASSERT_TRUE(oracle.Write(batch).ok());
      } else if (dice < 60) {
        const std::string key = random_key();
        ASSERT_TRUE(store->Delete(key).ok());
        ASSERT_TRUE(oracle.Delete(key).ok());
      } else if (dice < 80) {
        const std::string key = random_key();
        std::string got;
        const Status s = store->Get(key, &got);
        check(key, s, got);
      } else {
        std::vector<std::string> keys(1 + rng.NextBounded(8));
        for (std::string& key : keys) {
          key = random_key();
        }
        std::vector<std::string> values;
        std::vector<Status> statuses;
        ASSERT_TRUE(store->MultiGet(keys, &values, &statuses).ok());
        for (size_t j = 0; j < keys.size(); ++j) {
          check(keys[j], statuses[j], values[j]);
        }
      }
    }
    ASSERT_TRUE(btree->CheckInvariants().ok()) << "phase " << phase;
    if (pool_pages == 0) {
      EXPECT_EQ(pool->overshoots(), 0u);
      EXPECT_EQ(store->stats().flushes, 0u);  // nothing written back before Flush
    } else {
      EXPECT_GT(pool->overshoots(), 0u);
      EXPECT_GT(store->stats().flushes, 0u);  // pressure write-back ran
    }
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(btree->CheckInvariants().ok()) << "phase " << phase;
    check_all(store);
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = BTreeStore::Open(dir.path(), opts, std::make_shared<BufferPool>(popts));
  ASSERT_TRUE(store.ok());
  check_all(store->get());
  ASSERT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().ok());
  ASSERT_TRUE((*store)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BTreePoolOracleTest, ::testing::Values(0, 8, 2),
                         [](const auto& spec) {
                           return spec.param == 0 ? std::string("fits")
                                                  : std::to_string(spec.param) + "pages";
                         });

// The slotted page's edges against a std::map, at the default 4 KiB page and
// the same three pool sizes: binary keys from 0 bytes to the key bound (NUL,
// 0xff, prefixes shared far past the slot's 8-byte prefix), values on both
// sides of the quarter-page inline limit, overwrites that grow and shrink a
// record (so pages compact), RMWs that push a value from inline to overflow,
// and whole key groups deleted and refilled (so leaves empty and refill).
// Each phase reopens the store on a fresh pool and ends with Flush.
class BTreeLayoutOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeLayoutOracleTest, EdgeKeysAndValuesMatchMapAcrossFlushAndReopen) {
  constexpr uint32_t kPage = 4096;
  const size_t max_key = MaxKeyBytes(kPage);
  const uint64_t pool_pages = GetParam();  // 0: a pool that fits the tree
  BTreeOptions opts;
  opts.page_size = kPage;
  BufferPoolOptions popts;
  popts.capacity_bytes = pool_pages == 0 ? (8 << 20) : pool_pages * kPage;
  popts.shards = 1;
  Pcg32 rng(pool_pages + 11);
  auto random_bytes = [&](size_t len) {
    std::string out(len, '\0');
    for (char& c : out) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    return out;
  };
  std::vector<std::string> keys = {
      "", std::string(1, '\0'), std::string(2, '\0'), std::string(8, '\0'),
      std::string(9, '\0'), std::string(1, '\xff'), std::string(8, '\xff'),
      std::string(9, '\xff'), "abc", std::string("abc\0", 4), std::string("abc\0\0\0\0\0", 8),
      "abcdefgh", "abcdefghi", std::string(max_key, 'k'), std::string(max_key - 1, 'k'),
      std::string(max_key, '\xff'), std::string(max_key, '\0')};
  // Long keys that differ only near their ends.
  for (int i = 0; i < 6; ++i) {
    std::string key(max_key - static_cast<size_t>(i), 'L');
    key.back() = static_cast<char>('a' + i);
    keys.push_back(key);
  }
  // A group sharing a 14-byte prefix, deleted and refilled as a whole below.
  std::vector<std::string> group;
  for (int i = 0; i < 60; ++i) {
    group.push_back("shared-prefix-" + std::to_string(1000 + i));
  }
  keys.insert(keys.end(), group.begin(), group.end());
  for (int i = 0; i < 150; ++i) {
    keys.push_back(random_bytes(rng.NextBounded(40)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  auto random_key = [&] { return keys[rng.NextBounded(static_cast<uint32_t>(keys.size()))]; };
  auto random_value = [&] {
    // Around the inline limit (1,024 bytes at 4 KiB pages) and past a page.
    static constexpr size_t kEdges[] = {0, 1, 255, 1024, 1025, 4097};
    return random_bytes(rng.NextBounded(3) == 0 ? kEdges[rng.NextBounded(6)]
                                                : rng.NextBounded(64));
  };

  ScopedTempDir dir;
  std::map<std::string, std::string> oracle;
  auto check_all = [&](KVStore* store) {
    for (const std::string& key : keys) {
      std::string got;
      const Status s = store->Get(key, &got);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        ASSERT_TRUE(s.IsNotFound()) << key.size() << "-byte key: " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << key.size() << "-byte key: " << s.ToString();
        ASSERT_EQ(got, it->second) << key.size() << "-byte key";
      }
    }
  };
  for (int phase = 0; phase < 3; ++phase) {
    auto store_or = BTreeStore::Open(dir.path(), opts, std::make_shared<BufferPool>(popts));
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    KVStore* store = store_or->get();
    auto* btree = static_cast<BTreeStore*>(store);
    check_all(store);
    for (int i = 0; i < 1500; ++i) {
      const uint32_t dice = rng.NextBounded(100);
      if (dice < 35) {
        const std::string key = random_key();
        const std::string value = random_value();
        ASSERT_TRUE(store->Put(key, value).ok()) << key.size() << "-byte key";
        oracle[key] = value;
      } else if (dice < 50) {
        const std::string key = random_key();
        const std::string operand = random_bytes(rng.NextBounded(200));
        ASSERT_TRUE(store->ReadModifyWrite(key, operand).ok());
        oracle[key] += operand;
      } else if (dice < 65) {
        WriteBatch batch;
        const uint32_t count = 1 + rng.NextBounded(8);
        for (uint32_t j = 0; j < count; ++j) {
          const std::string key = random_key();
          const uint32_t op = rng.NextBounded(3);
          if (op == 0) {
            const std::string value = random_value();
            batch.Put(key, value);
            oracle[key] = value;
          } else if (op == 1) {
            const std::string operand = random_bytes(rng.NextBounded(100));
            batch.Merge(key, operand);
            oracle[key] += operand;
          } else {
            batch.Delete(key);
            oracle.erase(key);
          }
        }
        ASSERT_TRUE(store->Write(batch).ok());
      } else if (dice < 80) {
        const std::string key = random_key();
        ASSERT_TRUE(store->Delete(key).ok());
        oracle.erase(key);
      } else if (dice < 82) {
        // Empty the group's leaves, then refill them.
        for (const std::string& key : group) {
          ASSERT_TRUE(store->Delete(key).ok());
          oracle.erase(key);
        }
        for (const std::string& key : group) {
          const std::string value = random_bytes(rng.NextBounded(300));
          ASSERT_TRUE(store->Put(key, value).ok());
          oracle[key] = value;
        }
      } else {
        const std::string key = random_key();
        std::string got;
        const Status s = store->Get(key, &got);
        auto it = oracle.find(key);
        ASSERT_EQ(s.ok(), it != oracle.end()) << s.ToString();
        if (it != oracle.end()) {
          ASSERT_EQ(got, it->second);
        }
      }
    }
    ASSERT_TRUE(btree->CheckInvariants().ok()) << "phase " << phase;
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(btree->CheckInvariants().ok()) << "phase " << phase;
    check_all(store);
    EXPECT_GT(btree->height(), 2u);
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = BTreeStore::Open(dir.path(), opts, std::make_shared<BufferPool>(popts));
  ASSERT_TRUE(store.ok());
  check_all(store->get());
  ASSERT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().ok());
  ASSERT_TRUE((*store)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BTreeLayoutOracleTest, ::testing::Values(0, 8, 2),
                         [](const auto& spec) {
                           return spec.param == 0 ? std::string("fits")
                                                  : std::to_string(spec.param) + "pages";
                         });

TEST(BTreeStoreTest, EntryTooBigForEitherHalfOfASplitGetsItsOwnLeaf) {
  // A leaf of 60 small entries (47 bytes each with their slots) takes, in its
  // middle, the largest entry a 4 KiB page holds: the longest key with a
  // maximal inline value, 3,064 bytes. Beside either half it would overflow
  // a page, so the leaf splits at its slot and it gets a leaf of its own.
  ScopedTempDir dir;
  constexpr uint32_t kPage = 4096;
  auto key_of = [](int i) {
    char key[8];
    std::snprintf(key, sizeof(key), "a%02d", i % 100);
    return std::string(key);
  };
  const std::string big_key = "a29" + std::string(MaxKeyBytes(kPage) - 3, 'x');
  const std::string big_value(MaxInlineValue(kPage), 'v');
  {
    auto store = BTreeStore::Open(dir.path(), BTreeOptions());
    ASSERT_TRUE(store.ok());
    auto* btree = static_cast<BTreeStore*>(store->get());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE((*store)->Put(key_of(i), std::string(30, 's')).ok());
    }
    ASSERT_EQ(btree->height(), 1u);
    ASSERT_TRUE((*store)->Put(big_key, big_value).ok());
    EXPECT_EQ(btree->height(), 2u);
    EXPECT_EQ(btree->num_pages(), 5u);  // meta, root and three leaves
    ASSERT_TRUE(btree->CheckInvariants().ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().ok());
  std::string value;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE((*store)->Get(key_of(i), &value).ok()) << i;
    EXPECT_EQ(value, std::string(30, 's'));
  }
  ASSERT_TRUE((*store)->Get(big_key, &value).ok());
  EXPECT_EQ(value, big_value);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, RefusesPageFileOfTheDecodedNodeFormat) {
  // A btree.db as the decoded-node format wrote it: a meta page of magic,
  // root 1, next page 2, empty free list and height 1, then an empty leaf
  // (type 1, no keys, no next leaf). Its meta page has no format field.
  ScopedTempDir dir;
  constexpr uint32_t kPage = 4096;
  std::string file;
  for (uint32_t field : {0x42545245u, 1u, 2u, 0u, 1u}) {
    file.append(reinterpret_cast<const char*>(&field), 4);
  }
  file.resize(kPage, '\0');
  file.push_back('\x01');
  file.resize(2 * kPage, '\0');
  ASSERT_TRUE(WriteStringToFile(dir.path() + "/btree.db", file, /*sync=*/false).ok());
  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  EXPECT_NE(store.status().ToString().find(dir.path() + "/btree.db"), std::string::npos)
      << store.status().ToString();
}

TEST(BTreeStoreTest, RefusesLeafWithARecordInsideAnother) {
  // A root leaf whose record for key "" lies inside the value of "k001" and
  // is counted in the record area as if it were its own. Every other bound
  // of the page holds. Overwriting k001 in place would rewrite the inner
  // record's tag with the new value's bytes (0xfffe here), and a Get of ""
  // would then read that many bytes out of a 4 KiB page, so the page must be
  // refused when it is read.
  ScopedTempDir dir;
  constexpr uint32_t kPage = 4096;
  {
    auto store = BTreeStore::Open(dir.path(), BTreeOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("k001", std::string(64, 'a')).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  const std::string path = dir.path() + "/btree.db";
  std::string file;
  ASSERT_TRUE(ReadFileToString(path, &file).ok());
  ASSERT_EQ(file.size(), 2 * kPage);
  std::string page = file.substr(kPage);
  const BTreePage leaf(page.data(), kPage);
  ASSERT_EQ(leaf.count(), 1u);
  const auto outer = static_cast<uint16_t>(leaf.key(0).data() - page.data());
  const auto inner = static_cast<uint16_t>(outer + 4 + 2 + 8);  // 8 bytes into the value
  const uint16_t tag = 3;
  std::memcpy(&page[inner], &tag, 2);
  std::memcpy(&page[inner + 2], "abc", 3);
  // Slot 0 becomes "" (zero prefix, length 0) at `inner`; k001 moves to slot 1.
  std::string slots(2 * kSlotSize, '\0');
  std::memcpy(&slots[8], &inner, 2);
  slots.replace(kSlotSize, kSlotSize, page, kPageHeaderSize, kSlotSize);
  page.replace(kPageHeaderSize, slots.size(), slots);
  const uint16_t count = 2;
  const auto heap = static_cast<uint16_t>(outer - 5);
  std::memcpy(&page[2], &count, 2);
  std::memcpy(&page[8], &heap, 2);
  const Status check = CheckBTreePage(page);
  EXPECT_TRUE(check.IsCorruption());
  EXPECT_NE(check.ToString().find("overlap"), std::string::npos) << check.ToString();
  file.replace(kPage, kPage, page);
  ASSERT_TRUE(WriteStringToFile(path, file, /*sync=*/false).ok());

  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();  // Open reads the meta page only
  std::string value(64, 'v');
  value[8] = '\xfe';
  value[9] = '\xff';
  const Status put = (*store)->Put("k001", value);
  EXPECT_TRUE(put.IsCorruption()) << put.ToString();
  EXPECT_NE(put.ToString().find(path + ": page 1"), std::string::npos) << put.ToString();
  std::string got;
  EXPECT_TRUE((*store)->Get("", &got).IsCorruption());
  EXPECT_TRUE((*store)->Get("k001", &got).IsCorruption());
  EXPECT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().IsCorruption());
}

TEST(BTreeStoreTest, RefusesUnsupportedAndMismatchedPageSizes) {
  ScopedTempDir dir;
  for (uint32_t size : {kMinPageSize - 1, kMaxPageSize + 1}) {
    BTreeOptions opts;
    opts.page_size = size;
    auto store = BTreeStore::Open(dir.path() + "/bad", opts);
    ASSERT_FALSE(store.ok()) << size;
    EXPECT_TRUE(store.status().IsInvalidArgument()) << store.status().ToString();
  }
  {
    auto store = BTreeStore::Open(dir.path() + "/db", BTreeOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("k", "v").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  BTreeOptions other;
  other.page_size = 8192;
  auto store = BTreeStore::Open(dir.path() + "/db", other);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument()) << store.status().ToString();
}

// ---------------------------------------------------------- concurrency

TEST(StoreConcurrencyTest, TwoThreadsDisjointKeys) {
  // Fig. 14 shares one store across operators; engines must tolerate
  // concurrent access (single-writer-per-key is guaranteed by the model).
  for (const char* engine : {"lsm", "faster", "btree"}) {
    ScopedTempDir dir;
    auto store_or = OpenStore({.engine = engine, .dir = dir.path() + "/db"});
    ASSERT_TRUE(store_or.ok()) << engine;
    auto& store = *store_or;
    auto worker = [&](int id) {
      for (int i = 0; i < 2000; ++i) {
        std::string key = "t" + std::to_string(id) + "_" + std::to_string(i % 100);
        ASSERT_TRUE(store->Put(key, "v" + std::to_string(i)).ok());
        std::string value;
        Status s = store->Get(key, &value);
        ASSERT_TRUE(s.ok()) << engine << " " << s.ToString();
      }
    };
    std::thread t1(worker, 1), t2(worker, 2);
    t1.join();
    t2.join();
    ASSERT_TRUE(store->Close().ok()) << engine;
  }
}

}  // namespace
}  // namespace gadget
