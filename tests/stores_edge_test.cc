// Edge-case tests for the storage engines: boundary value sizes, key
// ordering at the encoding level, cache-pressure behaviour, FASTER region
// transitions, B+tree page boundary conditions, and Lethe-vs-LSM contrast.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/btree/btree_store.h"
#include "src/stores/faster/faster_store.h"
#include "src/stores/kvstore.h"
#include "src/stores/lsm/lsm_store.h"
#include "src/streams/state_access.h"

namespace gadget {
namespace {

// ------------------------------------------------------- value-size sweeps

class ValueSizeTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(ValueSizeTest, RoundTripsExactBytes) {
  const auto& [engine, size] = GetParam();
  ScopedTempDir dir;
  StoreOptions sopts;
  sopts.engine = engine;
  sopts.dir = dir.path() + "/db";
  auto store = OpenStore(sopts);
  ASSERT_TRUE(store.ok());
  std::string value;
  value.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    value.push_back(static_cast<char>(i * 131 + 7));
  }
  ASSERT_TRUE((*store)->Put("k", value).ok());
  std::string got;
  ASSERT_TRUE((*store)->Get("k", &got).ok());
  EXPECT_EQ(got, value);
  // Survive a flush cycle too.
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Get("k", &got).ok());
  EXPECT_EQ(got, value);
  ASSERT_TRUE((*store)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ValueSizeTest,
    ::testing::Combine(::testing::Values("lsm", "faster", "btree"),
                       ::testing::Values(0, 1, 255, 1024, 4096, 4097, 65536, 1'000'000)),
    [](const auto& spec) {
      return std::string(std::get<0>(spec.param)) + "_" +
             std::to_string(std::get<1>(spec.param)) + "b";
    });

// -------------------------------------------------------------- key quirks

TEST(KeyEdgeTest, BinaryKeysWithEmbeddedZeros) {
  for (const char* engine : {"lsm", "faster", "btree"}) {
    ScopedTempDir dir;
    auto store = OpenStore({.engine = engine, .dir = dir.path() + "/db"});
    ASSERT_TRUE(store.ok()) << engine;
    std::string k1("\x00\x01\x00", 3);
    std::string k2("\x00\x01\x00\x00", 4);  // prefix of nothing: distinct key
    ASSERT_TRUE((*store)->Put(k1, "one").ok());
    ASSERT_TRUE((*store)->Put(k2, "two").ok());
    std::string value;
    ASSERT_TRUE((*store)->Get(k1, &value).ok()) << engine;
    EXPECT_EQ(value, "one");
    ASSERT_TRUE((*store)->Get(k2, &value).ok()) << engine;
    EXPECT_EQ(value, "two");
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST(KeyEdgeTest, StateKeyEncodingAgreesWithStoreOrdering) {
  // Writes via encoded StateKeys and checks extremes round-trip.
  ScopedTempDir dir;
  auto store = OpenStore({.engine = "btree", .dir = dir.path() + "/db"});
  ASSERT_TRUE(store.ok());
  StateKey keys[] = {{0, 0}, {0, ~0ull}, {~0ull, 0}, {~0ull, ~0ull}, {1ull << 63, 42}};
  for (const StateKey& k : keys) {
    ASSERT_TRUE((*store)->Put(EncodeStateKey(k), std::to_string(k.hi ^ k.lo)).ok());
  }
  std::string value;
  for (const StateKey& k : keys) {
    ASSERT_TRUE((*store)->Get(EncodeStateKey(k), &value).ok());
    EXPECT_EQ(value, std::to_string(k.hi ^ k.lo));
  }
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(KeyEdgeTest, BTreeRefusesKeysLongerThanItsPagesTake) {
  // Every write path refuses a key past MaxKeyBytes with InvalidArgument and
  // leaves the store as it was (a batch holding one applies none of it); a
  // key at the bound round-trips with a maximal inline value.
  ScopedTempDir dir;
  const std::string path = dir.path() + "/db";
  const size_t max_key = MaxKeyBytes(BTreeOptions().page_size);
  EXPECT_GE(max_key, 1024u);
  const std::string longest(max_key, 'k');
  const std::string too_long(5000, 'x');
  const std::string big_inline(MaxInlineValue(BTreeOptions().page_size), 'v');
  {
    auto store = OpenStore({.engine = "btree", .dir = path});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    EXPECT_TRUE((*store)->Put(too_long, "v").IsInvalidArgument());
    EXPECT_TRUE((*store)->Put(std::string(max_key + 1, 'k'), "v").IsInvalidArgument());
    EXPECT_TRUE((*store)->ReadModifyWrite(too_long, "+1").IsInvalidArgument());
    WriteBatch batch;
    batch.Put("b", "2");
    batch.Merge(too_long, "+1");
    EXPECT_TRUE((*store)->Write(batch).IsInvalidArgument());
    EXPECT_EQ((*store)->stats().puts, 1u);  // refused calls count nothing
    std::string value;
    EXPECT_TRUE((*store)->Get("b", &value).IsNotFound());
    EXPECT_TRUE((*store)->Get(too_long, &value).IsNotFound());
    ASSERT_TRUE((*store)->Delete(too_long).ok());  // like any missing key
    for (int i = 0; i < 8; ++i) {
      std::string key = longest;
      key.back() = static_cast<char>('0' + i);
      ASSERT_TRUE((*store)->Put(key, big_inline).ok()) << i;
    }
    ASSERT_TRUE((*store)->Put(longest, big_inline).ok());
    ASSERT_TRUE((*store)->Get("a", &value).ok());
    EXPECT_EQ(value, "1");
    ASSERT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = OpenStore({.engine = "btree", .dir = path});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE((*store)->Get(longest, &value).ok());
  EXPECT_EQ(value, big_inline);
  EXPECT_TRUE((*store)->Get(too_long, &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

// ----------------------------------------------------------- cache pressure

TEST(CachePressureTest, LsmReadsWorkWithTinyCache) {
  ScopedTempDir dir;
  LsmOptions opts;
  opts.write_buffer_size = 16 * 1024;
  // Pathological pool: ~1 block resident.
  auto pool = std::make_shared<BufferPool>(
      BufferPoolOptions{.capacity_bytes = 4 * 1024, .shards = 1});
  auto store = LsmStore::Open(dir.path(), opts, pool);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  std::string value;
  for (int i = 0; i < 2000; i += 7) {
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  StoreStats stats = (*store)->stats();
  EXPECT_GT(stats.cache_misses, 0u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(CachePressureTest, BTreeEvictsDirtyPagesCorrectly) {
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 512;
  // 4-page pool: every leaf walk evicts. Dirty pages survive because they
  // stay pinned until written back, and a pinned frame is never evicted.
  auto pool = std::make_shared<BufferPool>(
      BufferPoolOptions{.capacity_bytes = 2 * 1024, .shards = 1});
  auto store = BTreeStore::Open(dir.path(), opts, pool);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  std::string value;
  for (int i = 0; i < 2000; i += 13) {
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  auto* btree = static_cast<BTreeStore*>(store->get());
  ASSERT_TRUE(btree->CheckInvariants().ok());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(CachePressureTest, BTreeDirtyPagesStayWithinPoolBudget) {
  // One B+tree a little larger than its 8-page pool, rewritten at random so
  // every page is dirtied again and again. Dirty pages are pinned frames,
  // and the pool gives back what it admitted over budget as soon as the
  // write-back unpins them: after every call the pool is within budget.
  constexpr uint32_t kPage = 512;
  constexpr uint64_t kCapacity = 8 * kPage;
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = kPage;
  auto pool =
      std::make_shared<BufferPool>(BufferPoolOptions{.capacity_bytes = kCapacity, .shards = 1});
  auto store = BTreeStore::Open(dir.path(), opts, pool);
  ASSERT_TRUE(store.ok());
  std::map<std::string, std::string> want;
  Pcg32 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBounded(150));
    const std::string value(20 + rng.NextBounded(40), static_cast<char>('a' + i % 26));
    ASSERT_TRUE((*store)->Put(key, value).ok());
    want[key] = value;
    ASSERT_LE(pool->usage_bytes(), kCapacity) << "after call " << i;
  }
  auto* btree = static_cast<BTreeStore*>(store->get());
  EXPECT_GT(btree->num_pages() * kPage, kCapacity + 2 * kPage);
  EXPECT_GT(pool->overshoots(), 0u);
  std::string value;
  for (const auto& [key, expected] : want) {
    ASSERT_TRUE((*store)->Get(key, &value).ok()) << key;
    ASSERT_EQ(value, expected) << key;
    ASSERT_LE(pool->usage_bytes(), kCapacity) << key;
  }
  ASSERT_TRUE(btree->CheckInvariants().ok());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(CachePressureTest, BTreeReadAfterOvershootWritesBack) {
  // Store A fills a shared 8-page pool with its dirty pages; store B's first
  // Put then overshoots the pool. A's next call is a read, and it must
  // release A's pins: write back A's dirty set and bring the pool back
  // within budget.
  constexpr uint32_t kPage = 512;
  constexpr uint64_t kCapacity = 8 * kPage;
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = kPage;
  auto pool =
      std::make_shared<BufferPool>(BufferPoolOptions{.capacity_bytes = kCapacity, .shards = 1});
  auto a = BTreeStore::Open(dir.path() + "/a", opts, pool);
  auto b = BTreeStore::Open(dir.path() + "/b", opts, pool);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto* tree_a = static_cast<BTreeStore*>(a->get());
  // Past the first root split, each leaf split adds one page: stop at 8.
  for (int i = 0; tree_a->num_pages() - 1 < 8; ++i) {
    ASSERT_TRUE((*a)->Put("key" + std::to_string(i), std::string(40, 'a')).ok());
  }
  ASSERT_EQ(tree_a->num_pages() - 1, 8u);
  ASSERT_EQ(pool->overshoots(), 0u);
  ASSERT_EQ(tree_a->stats().flushes, 0u);
  ASSERT_TRUE((*b)->Put("b", "b").ok());
  ASSERT_GT(pool->overshoots(), 0u);
  std::string value;
  ASSERT_TRUE((*a)->Get("key0", &value).ok());
  EXPECT_EQ(tree_a->stats().flushes, 8u);
  EXPECT_LE(pool->usage_bytes(), kCapacity);
  ASSERT_TRUE((*a)->Close().ok());
  ASSERT_TRUE((*b)->Close().ok());
}

TEST(CachePressureTest, SharedPoolBudgetHoldsUnderBTreeWrites) {
  // Four B+trees on one 16-page pool, written in turn. Dirty pages are
  // pinned frames inside that budget, so after any call the pool may run
  // over it only by what calls pinned since the last overshoot: each store
  // writes back at the end of its first call after one. A Put of entries
  // this small pins at most its descent (which a split cascade dirties), one
  // new right sibling per level and a new root: 2h + 1 pages at height h.
  constexpr uint32_t kPage = 512;
  constexpr uint64_t kCapacity = 16 * kPage;
  constexpr int kStores = 4;
  constexpr uint32_t kMaxHeight = 3;  // checked below
  constexpr uint64_t kBound = kCapacity + kStores * (2 * kMaxHeight + 1) * kPage;
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = kPage;
  auto pool =
      std::make_shared<BufferPool>(BufferPoolOptions{.capacity_bytes = kCapacity, .shards = 1});
  std::vector<std::unique_ptr<KVStore>> stores;
  for (int s = 0; s < kStores; ++s) {
    auto store = BTreeStore::Open(dir.path() + "/" + std::to_string(s), opts, pool);
    ASSERT_TRUE(store.ok());
    stores.push_back(std::move(*store));
  }
  std::vector<std::map<std::string, std::string>> want(kStores);
  Pcg32 rng(3);
  for (int i = 0; i < 4000; ++i) {
    const int s = i % kStores;
    const std::string key = "key" + std::to_string(rng.NextBounded(1500));
    const std::string value(20 + rng.NextBounded(40), static_cast<char>('a' + s));
    ASSERT_TRUE(stores[static_cast<size_t>(s)]->Put(key, value).ok());
    want[static_cast<size_t>(s)][key] = value;
    ASSERT_LE(pool->usage_bytes(), kBound) << "after call " << i;
  }
  // The trees outgrew the pool many times over, so the budget was under
  // pressure and every store wrote back under it.
  EXPECT_GT(pool->overshoots(), 0u);
  for (int s = 0; s < kStores; ++s) {
    auto* btree = static_cast<BTreeStore*>(stores[static_cast<size_t>(s)].get());
    EXPECT_GT(btree->num_pages() * kPage, 2 * kCapacity);
    EXPECT_LE(btree->height(), kMaxHeight);
    EXPECT_GT(btree->stats().flushes, 0u);
    ASSERT_TRUE(btree->Close().ok());
  }
  for (int s = 0; s < kStores; ++s) {
    auto store = BTreeStore::Open(dir.path() + "/" + std::to_string(s), opts);
    ASSERT_TRUE(store.ok());
    std::string value;
    for (const auto& [key, expected] : want[static_cast<size_t>(s)]) {
      ASSERT_TRUE((*store)->Get(key, &value).ok()) << s << " " << key;
      ASSERT_EQ(value, expected) << s << " " << key;
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST(CachePressureTest, BTreesWriteConcurrentlyUnderPoolPressure) {
  // Two B+trees on one 8-page pool, each written by its own thread: one
  // store's inserts overshoot on frames the other keeps pinned, and the
  // overshoot is given back as either store unpins (run under TSan in CI).
  constexpr uint32_t kPage = 512;
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = kPage;
  auto pool =
      std::make_shared<BufferPool>(BufferPoolOptions{.capacity_bytes = 8 * kPage, .shards = 1});
  std::vector<std::unique_ptr<KVStore>> stores;
  for (int s = 0; s < 2; ++s) {
    auto store = BTreeStore::Open(dir.path() + "/" + std::to_string(s), opts, pool);
    ASSERT_TRUE(store.ok());
    stores.push_back(std::move(*store));
  }
  auto writer = [&](int s) {
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "key" + std::to_string(i % 500);
      ASSERT_TRUE(
          stores[static_cast<size_t>(s)]->Put(key, std::string(40, static_cast<char>('a' + s))).ok());
    }
  };
  std::thread t0(writer, 0), t1(writer, 1);
  t0.join();
  t1.join();
  EXPECT_GT(pool->overshoots(), 0u);
  for (int s = 0; s < 2; ++s) {
    std::string value;
    for (int k = 0; k < 500; ++k) {
      ASSERT_TRUE(stores[static_cast<size_t>(s)]->Get("key" + std::to_string(k), &value).ok());
      ASSERT_EQ(value, std::string(40, static_cast<char>('a' + s)));
    }
    ASSERT_TRUE(static_cast<BTreeStore*>(stores[static_cast<size_t>(s)].get())
                    ->CheckInvariants()
                    .ok());
    ASSERT_TRUE(stores[static_cast<size_t>(s)]->Close().ok());
  }
}

// --------------------------------------------------------- FASTER specifics

TEST(FasterEdgeTest, RmwReadsBaseFromDiskRegion) {
  ScopedTempDir dir;
  FasterOptions opts;
  opts.log_memory_bytes = 8 * 1024;  // tiny window: bases evict quickly
  auto store = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("acc", "BASE-").ok());
  // Push the base record out of memory with churn.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*store)->Put("churn" + std::to_string(i), std::string(64, 'c')).ok());
  }
  auto* faster = static_cast<FasterStore*>(store->get());
  EXPECT_GT(faster->head_address(), 0u);
  ASSERT_TRUE((*store)->ReadModifyWrite("acc", "tail").ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("acc", &value).ok());
  EXPECT_EQ(value, "BASE-tail");
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(FasterEdgeTest, DeleteThenRecoverDropsKey) {
  ScopedTempDir dir;
  FasterOptions opts;
  opts.log_memory_bytes = 8 * 1024;
  {
    auto store = FasterStore::Open(dir.path(), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
    }
    for (int i = 0; i < 500; i += 2) {
      ASSERT_TRUE((*store)->Delete("k" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  std::string value;
  EXPECT_TRUE((*store)->Get("k0", &value).IsNotFound());
  ASSERT_TRUE((*store)->Get("k1", &value).ok());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(FasterEdgeTest, TruncatesTornLogTail) {
  ScopedTempDir dir;
  {
    auto store = FasterStore::Open(dir.path(), FasterOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("good", "value").ok());
    ASSERT_TRUE((*store)->Put("torn", "casualty").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Chop bytes off the log to simulate a torn write.
  std::string log;
  ASSERT_TRUE(ReadFileToString(dir.path() + "/hybrid.log", &log).ok());
  log.resize(log.size() - 5);
  ASSERT_TRUE(WriteStringToFile(dir.path() + "/hybrid.log", log).ok());

  auto store = FasterStore::Open(dir.path(), FasterOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string value;
  ASSERT_TRUE((*store)->Get("good", &value).ok());
  EXPECT_EQ(value, "value");
  EXPECT_TRUE((*store)->Get("torn", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

// ------------------------------------------------------------ Lethe vs LSM

TEST(LetheContrastTest, NamesAndConfigDiffer) {
  ScopedTempDir dir;
  auto lsm = OpenStore({.engine = "lsm", .dir = dir.path() + "/a"});
  auto lethe = OpenStore({.engine = "lethe", .dir = dir.path() + "/b"});
  ASSERT_TRUE(lsm.ok() && lethe.ok());
  EXPECT_EQ((*lsm)->name(), "lsm");
  EXPECT_EQ((*lethe)->name(), "lethe");
  EXPECT_TRUE((*lsm)->supports_merge());
  EXPECT_TRUE((*lethe)->supports_merge());
  ASSERT_TRUE((*lsm)->Close().ok());
  ASSERT_TRUE((*lethe)->Close().ok());
}

// ------------------------------------------------------------- concurrency

TEST(ConcurrencyEdgeTest, MixedOpsFourThreads) {
  ScopedTempDir dir;
  auto store = OpenStore({.engine = "lsm", .dir = dir.path() + "/db"});
  ASSERT_TRUE(store.ok());
  auto worker = [&](int id) {
    for (int i = 0; i < 1500; ++i) {
      std::string key = "t" + std::to_string(id) + "-" + std::to_string(i % 50);
      switch (i % 4) {
        case 0:
          ASSERT_TRUE(store->get()->Put(key, "v").ok());
          break;
        case 1: {
          std::string value;
          Status s = store->get()->Get(key, &value);
          ASSERT_TRUE(s.ok() || s.IsNotFound());
          break;
        }
        case 2:
          ASSERT_TRUE(store->get()->Merge(key, "+").ok());
          break;
        case 3:
          ASSERT_TRUE(store->get()->Delete(key).ok());
          break;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(worker, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_TRUE((*store)->Close().ok());
}

}  // namespace
}  // namespace gadget
