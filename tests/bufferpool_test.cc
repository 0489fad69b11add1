// Tests for the shared buffer pool and the async read path it backs:
// pin lifetime rules (pinned frames survive eviction pressure and file
// erasure), clock-hand fairness, concurrent pin/unpin vs EraseFile races
// (run under TSan in CI), both IoBackend read paths, async MultiGet
// equivalence against serial Get on every engine, a corrupt block read
// through the store, pool sharing across stores, and cold-pool crash
// restore.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file_util.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/bufferpool/io_backend.h"
#include "src/stores/kvstore.h"

namespace gadget {
namespace {

BufferPoolOptions TinyPool(uint64_t capacity, int shards = 1) {
  BufferPoolOptions opts;
  opts.capacity_bytes = capacity;
  opts.shards = shards;
  return opts;
}

// ----------------------------------------------------------- pin lifetime

TEST(BufferPoolPinTest, PinnedFramesSurviveEvictionPressure) {
  BufferPool pool(TinyPool(4 * 1024));
  PinnedBlock pinned = pool.InsertBlock(1, 0, std::string(1024, 'p'));
  ASSERT_TRUE(static_cast<bool>(pinned));
  // Flood the pool far past capacity: every unpinned frame gets evicted at
  // some point, the pinned one must not.
  for (uint64_t i = 1; i <= 200; ++i) {
    pool.InsertBlock(1, i * 4096, std::string(1024, 'x'));
  }
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_EQ(pinned.data(), std::string(1024, 'p'));
  PinnedBlock again = pool.Lookup(1, 0);
  ASSERT_TRUE(static_cast<bool>(again));
  EXPECT_EQ(again.data(), std::string(1024, 'p'));
}

TEST(BufferPoolPinTest, DoomedFrameStaysReadableUntilLastPinDrops) {
  BufferPool pool(TinyPool(64 * 1024));
  PinnedBlock pinned = pool.InsertBlock(3, 0, "doomed-bytes");
  pool.EraseFile(3);
  // Off the table: new lookups miss...
  EXPECT_FALSE(pool.Lookup(3, 0));
  // ...but the outstanding pin still reads valid storage.
  EXPECT_EQ(pinned.data(), "doomed-bytes");
  pinned.Release();
  EXPECT_FALSE(pool.Lookup(3, 0));
}

TEST(BufferPoolPinTest, ReleaseIsIdempotentAndMoveSafe) {
  BufferPool pool(TinyPool(64 * 1024));
  PinnedBlock a = pool.InsertBlock(1, 0, "abc");
  PinnedBlock b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(b.data(), "abc");
  b.Release();
  b.Release();
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(BufferPoolPinTest, InsertOvershootsWhenEverythingIsPinned) {
  BufferPool pool(TinyPool(2 * 1024));
  std::vector<PinnedBlock> pins;
  for (uint64_t i = 0; i < 8; ++i) {
    pins.push_back(pool.InsertBlock(1, i * 4096, std::string(1024, 'x')));
  }
  // 8KB pinned in a 2KB pool: usage overshoots rather than evicting pins,
  // and every insert past the second is counted.
  EXPECT_GE(pool.usage_bytes(), 8 * 1024u);
  EXPECT_EQ(pool.overshoots(), 6u);
  for (auto& p : pins) {
    EXPECT_TRUE(static_cast<bool>(pool.Lookup(1, (&p - pins.data()) * 4096)));
  }
  pins.clear();
  // With pins gone, the overshoot is given back as they drop...
  EXPECT_LE(pool.usage_bytes(), 2 * 1024u);
  // ...and the next insert fits without another one.
  pool.InsertBlock(1, 9 * 4096, std::string(1024, 'y'));
  EXPECT_LE(pool.usage_bytes(), 2 * 1024u + 1024u);
  EXPECT_EQ(pool.overshoots(), 6u);
}

// ------------------------------------------------------ clock-hand fairness

TEST(BufferPoolClockTest, SecondChanceKeepsReReferencedFrames) {
  // One shard so the clock order is deterministic.
  BufferPool pool(TinyPool(4 * 1024));
  // Fill the pool with 4 frames, then keep re-referencing frame 0.
  for (uint64_t i = 0; i < 4; ++i) {
    pool.InsertBlock(1, i * 4096, std::string(1024, 'a' + static_cast<char>(i)));
  }
  for (int round = 0; round < 8; ++round) {
    EXPECT_TRUE(static_cast<bool>(pool.Lookup(1, 0)));  // sets the reference bit
    // Insert a fresh frame: the hand must pass over the referenced frame 0
    // (clearing its bit) and evict one of the cold ones instead.
    pool.InsertBlock(2, static_cast<uint64_t>(round) * 4096, std::string(1024, 'z'));
  }
  EXPECT_TRUE(static_cast<bool>(pool.Lookup(1, 0)));
  EXPECT_GT(pool.evictions(), 0u);
}

TEST(BufferPoolClockTest, ColdFramesRotateOutEvenly) {
  BufferPool pool(TinyPool(8 * 1024));
  // Stream 64 single-use frames through an 8-frame pool: every insert must
  // succeed and the pool must never exceed capacity once nothing is pinned.
  for (uint64_t i = 0; i < 64; ++i) {
    pool.InsertBlock(1, i * 4096, std::string(1024, 'x'));
    EXPECT_LE(pool.usage_bytes(), 8 * 1024u);
  }
  EXPECT_EQ(pool.evictions(), 64u - 8u);
}

// --------------------------------------------------- concurrent pin/unpin

TEST(BufferPoolConcurrencyTest, PinUnpinEraseFileRaces) {
  BufferPool pool(TinyPool(64 * 1024, /*shards=*/4));
  std::atomic<bool> stop{false};
  // Writers insert blocks for files 1..4, readers pin/read/unpin, an eraser
  // repeatedly drops whole files. TSan (CI leg) checks the synchronization;
  // the assertions check no reader ever observes freed storage.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t file = 1 + (i % 4);
        pool.InsertBlock(file, (i * 4096) % (64 * 4096),
                         std::string(512, static_cast<char>('a' + t)));
        ++i;
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, &stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t file = 1 + (i % 4);
        if (PinnedBlock h = pool.Lookup(file, (i * 4096) % (64 * 4096))) {
          ASSERT_EQ(h.data().size(), 512u);
          char c = h.data()[0];
          ASSERT_TRUE(c == 'a' || c == 'b');
        }
        ++i;
      }
    });
  }
  threads.emplace_back([&pool, &stop] {
    uint64_t file = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      pool.EraseFile(1 + (file++ % 4));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) {
    th.join();
  }
}

// ------------------------------------------------------------- io backend

// Both block-read paths: the io_uring ring (skipped where the kernel refuses
// it) and the pread-worker fallback, which try_io_uring = false forces.
class IoBackendTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !io_.using_io_uring()) {
      GTEST_SKIP() << "io_uring_setup refused; the pread pool serves this host";
    }
    ASSERT_EQ(io_.using_io_uring(), GetParam());
  }

  IoBackend io_{/*try_io_uring=*/GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Paths, IoBackendTest, ::testing::Bool(), [](const auto& spec) {
  return std::string(spec.param ? "Ring" : "PreadPool");
});

TEST_P(IoBackendTest, BatchedReadsMatchFileContents) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/blob";
  std::string blob;
  for (int i = 0; i < 64; ++i) {
    blob += std::string(1024, static_cast<char>('a' + i % 26));
  }
  ASSERT_TRUE(WriteStringToFile(path, blob).ok());
  int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  std::vector<IoRead> reads(16);
  std::vector<IoRead*> ptrs;
  for (size_t i = 0; i < reads.size(); ++i) {
    reads[i].fd = fd;
    reads[i].offset = i * 4096;
    reads[i].length = 1024;
    ptrs.push_back(&reads[i]);
  }
  io_.ReadBatch(ptrs);
  for (size_t i = 0; i < reads.size(); ++i) {
    ASSERT_TRUE(reads[i].status.ok()) << reads[i].status.ToString();
    EXPECT_EQ(reads[i].out, blob.substr(i * 4096, 1024));
  }
  EXPECT_GE(io_.batches(), 1u);
  EXPECT_GT(io_.in_flight_max(), 1u);
  ::close(fd);
}

TEST_P(IoBackendTest, ShortAndFailedReadsReportPerRead) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/short";
  ASSERT_TRUE(WriteStringToFile(path, std::string(100, 's')).ok());
  int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  IoRead past_eof;  // starts beyond EOF: must fail, not hang
  past_eof.fd = fd;
  past_eof.offset = 4096;
  past_eof.length = 64;
  IoRead bad_fd;
  bad_fd.fd = -1;
  bad_fd.offset = 0;
  bad_fd.length = 64;
  IoRead good;
  good.fd = fd;
  good.offset = 0;
  good.length = 100;
  io_.ReadBatch({&past_eof, &bad_fd, &good});
  EXPECT_FALSE(past_eof.status.ok());
  EXPECT_FALSE(bad_fd.status.ok());
  ASSERT_TRUE(good.status.ok());
  EXPECT_EQ(good.out, std::string(100, 's'));
  ::close(fd);
}

// --------------------------------------- async MultiGet vs serial Get

class MultiGetEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MultiGetEquivalenceTest, BatchedReadsMatchSerialGets) {
  const std::string engine = GetParam();
  ScopedTempDir dir;
  StoreOptions sopts;
  sopts.engine = engine;
  sopts.dir = dir.path() + "/db";
  // Pool far below the working set so MultiGet actually misses and batches.
  sopts.buffer_pool.capacity_bytes = 16 * 1024;
  sopts.buffer_pool.shards = 1;
  auto store = OpenStore(sopts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        (*store)->Put("key" + std::to_string(i), "value-" + std::to_string(i * 7)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());

  // Mix of hits, misses and repeats, large enough to span many blocks.
  std::vector<std::string> keys;
  for (int i = 0; i < n; i += 3) {
    keys.push_back("key" + std::to_string(i));
  }
  keys.push_back("absent-1");
  keys.push_back("key0");
  keys.push_back("absent-2");

  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_EQ((*store)->MultiGet(keys, &values, &statuses).code(), StatusCode::kOk);
  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(statuses.size(), keys.size());

  std::string serial;
  for (size_t i = 0; i < keys.size(); ++i) {
    Status s = (*store)->Get(keys[i], &serial);
    EXPECT_EQ(s.code(), statuses[i].code()) << keys[i];
    if (s.ok()) {
      EXPECT_EQ(serial, values[i]) << keys[i];
    }
  }
  ASSERT_TRUE((*store)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MultiGetEquivalenceTest,
                         ::testing::Values("mem", "lsm", "lethe", "faster", "btree"));

TEST(AsyncMultiGetTest, CacheMissWaveBatchesIo) {
  ScopedTempDir dir;
  StoreOptions sopts;
  sopts.engine = "lsm";
  sopts.dir = dir.path() + "/db";
  sopts.buffer_pool.capacity_bytes = 8 * 1024;  // ~2 blocks: everything misses
  sopts.buffer_pool.shards = 1;
  auto store = OpenStore(sopts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 4000; i += 17) {
    keys.push_back("key" + std::to_string(i));
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE((*store)->MultiGet(keys, &values, &statuses).ok());
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  StoreStats stats = (*store)->stats();
  EXPECT_GT(stats.io_batches, 0u);
  // The wave issued more than one read concurrently — the acceptance
  // criterion behind the async read path.
  EXPECT_GT(stats.io_in_flight_max, 1u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(ReadOptionsTest, NoFillLeavesPoolCold) {
  ScopedTempDir dir;
  StoreOptions sopts;
  sopts.engine = "lsm";
  sopts.dir = dir.path() + "/db";
  auto store = OpenStore(sopts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  std::string value;
  ASSERT_TRUE((*store)->Get("key100", &value, no_fill).ok());
  // The same uncached read again: still a miss, because the first one was
  // not admitted.
  StoreStats before = (*store)->stats();
  ASSERT_TRUE((*store)->Get("key100", &value, no_fill).ok());
  StoreStats after = (*store)->stats();
  EXPECT_GT(after.cache_misses, before.cache_misses);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  ASSERT_TRUE((*store)->Close().ok());
}

// ------------------------------------------------------------ shared pool

// A data block whose bytes no longer match its CRC, read through the store
// on a fresh pool: that key's Get and MultiGet entry are Corruption while
// keys elsewhere still resolve, and verify_checksums=false reads it anyway.
TEST(ReadOptionsTest, CorruptBlockFailsOnlyItsReads) {
  ScopedTempDir dir;
  StoreOptions sopts;
  sopts.engine = "lsm";
  sopts.dir = dir.path() + "/db";
  auto key_of = [](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    return std::string(key);
  };
  auto value_of = [](int i) { return "value-" + std::to_string(i) + std::string(100, '.'); };
  {
    auto store = OpenStore(sopts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)->Put(key_of(i), value_of(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Flip one byte inside key0005's value, in the first data block of the
  // store's one table.
  auto names = ListDir(sopts.dir);
  ASSERT_TRUE(names.ok());
  std::string sst;
  for (const std::string& name : *names) {
    if (name.ends_with(".sst")) {
      ASSERT_TRUE(sst.empty()) << "more than one table";
      sst = sopts.dir + "/" + name;
    }
  }
  ASSERT_FALSE(sst.empty());
  std::string raw;
  ASSERT_TRUE(ReadFileToString(sst, &raw).ok());
  const size_t at = raw.find(value_of(5));
  ASSERT_NE(at, std::string::npos);
  raw[at] ^= 0x01;  // 'v' -> 'w'
  ASSERT_TRUE(WriteStringToFile(sst, raw).ok());

  auto store = OpenStore(sopts);  // its own, cold pool
  ASSERT_TRUE(store.ok());
  std::string value;
  EXPECT_TRUE((*store)->Get(key_of(5), &value).IsCorruption());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  const Status multi =
      (*store)->MultiGet({key_of(5), key_of(150), "key-absent"}, &values, &statuses);
  EXPECT_TRUE(multi.IsCorruption()) << multi.ToString();
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].IsCorruption()) << statuses[0].ToString();
  ASSERT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ(values[1], value_of(150));
  EXPECT_TRUE(statuses[2].IsNotFound()) << statuses[2].ToString();

  ReadOptions unverified;
  unverified.verify_checksums = false;
  const Status s = (*store)->Get(key_of(5), &value, unverified);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(value, "w" + value_of(5).substr(1));
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(SharedPoolTest, TwoStoresShareOnePool) {
  ScopedTempDir dir;
  auto pool = std::make_shared<BufferPool>(TinyPool(256 * 1024, /*shards=*/2));
  StoreOptions a;
  a.engine = "lsm";
  a.dir = dir.path() + "/a";
  a.shared_pool = pool;
  StoreOptions b;
  b.engine = "btree";
  b.dir = dir.path() + "/b";
  b.shared_pool = pool;
  auto sa = OpenStore(a);
  auto sb = OpenStore(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*sa)->Put("lsm" + std::to_string(i), std::string(64, 'a')).ok());
    ASSERT_TRUE((*sb)->Put("bt" + std::to_string(i), std::string(64, 'b')).ok());
  }
  ASSERT_TRUE((*sa)->Flush().ok());
  ASSERT_TRUE((*sb)->Flush().ok());
  std::string value;
  for (int i = 0; i < 500; i += 11) {
    ASSERT_TRUE((*sa)->Get("lsm" + std::to_string(i), &value).ok());
    ASSERT_TRUE((*sb)->Get("bt" + std::to_string(i), &value).ok());
  }
  // Both engines report the same pool-wide counters.
  EXPECT_EQ((*sa)->stats().cache_misses, (*sb)->stats().cache_misses);
  EXPECT_LE(pool->usage_bytes(), pool->capacity_bytes() + 64 * 1024);
  ASSERT_TRUE((*sa)->Close().ok());
  // Closing one store must not disturb the other's cached data.
  ASSERT_TRUE((*sb)->Get("bt22", &value).ok());
  ASSERT_TRUE((*sb)->Close().ok());
}

// -------------------------------------------------- cold-pool crash restore

TEST(ColdRestoreTest, RestartWithFreshPoolServesAllData) {
  ScopedTempDir dir;
  const std::string db = dir.path() + "/db";
  StoreOptions sopts;
  sopts.engine = "lsm";
  sopts.dir = db;
  {
    auto store = OpenStore(sopts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    // No Close(): simulate a crash. SSTs + manifest are durable post-flush.
  }
  // Restart with a brand-new (cold) pool, as harness recovery does.
  sopts.shared_pool = std::make_shared<BufferPool>(TinyPool(64 * 1024, /*shards=*/2));
  auto restored = OpenStore(sopts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(sopts.shared_pool->hits(), 0u);
  std::string value;
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE((*restored)->MultiGet(keys, &values, &statuses).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok()) << i;
    EXPECT_EQ(values[static_cast<size_t>(i)], "v" + std::to_string(i));
  }
  ASSERT_TRUE((*restored)->Close().ok());
}

}  // namespace
}  // namespace gadget
