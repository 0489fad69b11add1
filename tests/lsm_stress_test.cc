// Stress and failure-injection tests for the LSM engine: simulated crashes
// (recovery from a mid-run directory snapshot), WAL windows and a refused
// WAL reservation, merge-stack survival across deep compaction, bloom
// parameter sweeps, and write stalls.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <filesystem>
#include <map>

#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/lsm/bloom.h"
#include "src/stores/lsm/lsm_store.h"

namespace gadget {
namespace {

namespace fs = std::filesystem;

LsmOptions TinyOptions() {
  LsmOptions opts;
  opts.write_buffer_size = 32 * 1024;
  opts.max_bytes_level_base = 128 * 1024;
  opts.target_file_size = 32 * 1024;
  opts.l0_compaction_trigger = 2;
  return opts;
}

// Copies the live database directory — the moral equivalent of the state a
// crash would leave behind (manifest + SSTs are synced; WAL tail may be
// partially flushed).
void SnapshotDir(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    std::error_code ec;
    fs::copy_file(entry.path(), fs::path(to) / entry.path().filename(),
                  fs::copy_options::overwrite_existing, ec);
  }
}

TEST(LsmCrashTest, RecoversFromMidRunSnapshot) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string snap = dir.path() + "/snapshot";
  std::map<std::string, std::string> expected;
  {
    auto store = LsmStore::Open(live, TinyOptions());
    ASSERT_TRUE(store.ok());
    Pcg32 rng(11);
    for (int i = 0; i < 4000; ++i) {
      std::string key = "k" + std::to_string(rng.NextBounded(400));
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(key, value).ok());
      expected[key] = value;
    }
    // Crash point: snapshot while the store is live (no Close, no final
    // memtable flush — the snapshot sees SSTs + the current WAL).
    ASSERT_TRUE((*store)->Flush().ok());  // make WAL/memtable boundary clean
    for (int i = 0; i < 50; ++i) {
      std::string key = "post" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(key, "wal-only").ok());
      expected[key] = "wal-only";
    }
    // Concurrent background compaction may delete files between the manifest
    // copy and the data copy; retry until a consistent snapshot lands (a
    // crash-consistent snapshot is atomic, which a file-by-file copy of a
    // live directory is not).
    for (int attempt = 0; attempt < 10; ++attempt) {
      // status intentionally ignored: a missing snapshot dir on the first
      // attempt is expected.
      (void)RemoveDirRecursively(snap);
      SnapshotDir(live, snap);
      auto check = LsmStore::Open(snap, TinyOptions());
      if (check.ok()) {
        ASSERT_TRUE((*check)->Close().ok());
        break;
      }
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Recover from the snapshot: SST data plus WAL-replayed tail. (Recovery
  // flushed the replayed WAL and removed it, so this second open is clean.)
  auto store = LsmStore::Open(snap, TinyOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  int missing = 0;
  for (const auto& [key, value] : expected) {
    std::string got;
    Status s = (*store)->Get(key, &got);
    if (!s.ok() || got != value) {
      ++missing;
    }
  }
  EXPECT_EQ(missing, 0);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmStressTest, MergeStacksSurviveDeepCompaction) {
  ScopedTempDir dir;
  auto store = LsmStore::Open(dir.path(), TinyOptions());
  ASSERT_TRUE(store.ok());
  // Many keys accumulate operands across multiple flush/compaction cycles
  // without ever receiving a base value.
  const int kKeys = 50;
  const int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(
          (*store)->Merge("acc" + std::to_string(k), "[" + std::to_string(round) + "]").ok());
    }
    if (round % 10 == 0) {
      // Churn forces flushes between operand batches.
      ASSERT_TRUE((*store)->Put("churn", std::string(4000, 'c')).ok());
    }
  }
  for (int k = 0; k < kKeys; ++k) {
    std::string value;
    ASSERT_TRUE((*store)->Get("acc" + std::to_string(k), &value).ok()) << k;
    // All operands in order: starts with round 0, ends with the last round.
    EXPECT_TRUE(value.starts_with("[0]")) << value.substr(0, 20);
    EXPECT_TRUE(value.ends_with("[" + std::to_string(kRounds - 1) + "]"));
    // Operand count = number of '[' characters.
    EXPECT_EQ(static_cast<int>(std::count(value.begin(), value.end(), '[')), kRounds);
  }
  auto* lsm = static_cast<LsmStore*>(store->get());
  EXPECT_GT(lsm->TotalSstBytes(), 0u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmStressTest, DeleteEverythingThenReuseKeys) {
  ScopedTempDir dir;
  auto store = LsmStore::Open(dir.path(), TinyOptions());
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(
          (*store)->Put("k" + std::to_string(i), "r" + std::to_string(round)).ok());
    }
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE((*store)->Delete("k" + std::to_string(i)).ok());
    }
  }
  for (int i = 0; i < 1000; i += 37) {
    std::string value;
    EXPECT_TRUE((*store)->Get("k" + std::to_string(i), &value).IsNotFound()) << i;
  }
  // Resurrect a few keys after the mass delete.
  ASSERT_TRUE((*store)->Put("k5", "alive").ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("k5", &value).ok());
  EXPECT_EQ(value, "alive");
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmStressTest, ReopenLoopPreservesData) {
  ScopedTempDir dir;
  std::map<std::string, std::string> expected;
  Pcg32 rng(13);
  for (int generation = 0; generation < 5; ++generation) {
    auto store = LsmStore::Open(dir.path(), TinyOptions());
    ASSERT_TRUE(store.ok()) << generation;
    for (int i = 0; i < 800; ++i) {
      std::string key = "g" + std::to_string(rng.NextBounded(300));
      if (rng.NextBounded(10) < 8) {
        std::string value = "gen" + std::to_string(generation) + "-" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        expected[key] = value;
      } else {
        ASSERT_TRUE((*store)->Delete(key).ok());
        expected.erase(key);
      }
    }
    for (const auto& [key, value] : expected) {
      std::string got;
      ASSERT_TRUE((*store)->Get(key, &got).ok()) << key << " gen " << generation;
      ASSERT_EQ(got, value);
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
}

// Parameterized bloom-filter sweep: false-positive rate must fall as bits
// per key grow.
class BloomSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(BloomSweepTest, FprWithinBudget) {
  const int bits_per_key = GetParam();
  BloomFilterBuilder builder(bits_per_key);
  for (int i = 0; i < 5000; ++i) {
    builder.AddKey("present" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  int fp = 0;
  const int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    if (BloomFilterMayContain(filter, "absent" + std::to_string(i))) {
      ++fp;
    }
  }
  double fpr = static_cast<double>(fp) / kProbes;
  // Theoretical FPR ~ 0.6185^bits; allow 3x headroom.
  double budget = 3.0 * std::pow(0.6185, bits_per_key);
  EXPECT_LT(fpr, std::max(budget, 0.002)) << "bits=" << bits_per_key;
}

INSTANTIATE_TEST_SUITE_P(BitsPerKey, BloomSweepTest, ::testing::Values(4, 8, 10, 14, 20),
                         [](const auto& spec) {
                           return "bits" + std::to_string(spec.param);
                         });

// Crash with a non-empty immutable queue: several memtables were sealed
// (each owning a retired WAL generation) but none flushed. Recovery must
// replay all live generations oldest-first so later overwrites win.
TEST(LsmCrashTest, RecoversImmutableQueueFromWalGenerations) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string snap = dir.path() + "/snapshot";
  LsmOptions opts = TinyOptions();
  opts.write_buffer_size = 8 * 1024;
  opts.max_immutable_memtables = 4;
  std::map<std::string, std::string> expected;
  {
    auto store = LsmStore::Open(live, opts);
    ASSERT_TRUE(store.ok());
    auto* lsm = static_cast<LsmStore*>(store->get());
    lsm->TEST_PauseFlusher(true);
    // Three generations of writes to the SAME keys: every rotation seals a
    // memtable whose WAL generation recovery must replay in order, or stale
    // generations would shadow the newer values.
    for (int generation = 0; generation < 3; ++generation) {
      for (int i = 0; i < 40; ++i) {
        std::string key = "k" + std::to_string(i);
        std::string value = "gen" + std::to_string(generation) + "-" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        expected[key] = value;
      }
      const std::string pad(512, 'p');
      for (int i = 0; lsm->TEST_NumImmutables() < static_cast<size_t>(generation + 1); ++i) {
        ASSERT_LT(i, 10'000);
        std::string key = "pad" + std::to_string(generation) + "-" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, pad).ok());
        expected[key] = pad;
      }
    }
    // A few records that only exist in the active memtable's WAL.
    for (int i = 0; i < 10; ++i) {
      std::string key = "active" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(key, "tail").ok());
      expected[key] = "tail";
    }
    ASSERT_EQ(lsm->TEST_NumImmutables(), 3u);
    ASSERT_EQ(lsm->NumFilesAtLevel(0), 0);  // nothing flushed: WALs only
    SnapshotDir(live, snap);
    lsm->TEST_PauseFlusher(false);
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = LsmStore::Open(snap, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }
  ASSERT_TRUE((*store)->Close().ok());
}

// Same crash shape plus a torn tail on the NEWEST (active) WAL generation:
// the sealed generations must replay completely; only the torn record of the
// active generation may be lost.
TEST(LsmCrashTest, TornActiveWalTailLosesOnlyTheTail) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string snap = dir.path() + "/snapshot";
  LsmOptions opts = TinyOptions();
  opts.write_buffer_size = 8 * 1024;
  opts.max_immutable_memtables = 4;
  std::map<std::string, std::string> sealed_expected;
  {
    auto store = LsmStore::Open(live, opts);
    ASSERT_TRUE(store.ok());
    auto* lsm = static_cast<LsmStore*>(store->get());
    lsm->TEST_PauseFlusher(true);
    const std::string pad(512, 'p');
    for (int generation = 0; generation < 2; ++generation) {
      for (int i = 0; lsm->TEST_NumImmutables() < static_cast<size_t>(generation + 1); ++i) {
        ASSERT_LT(i, 10'000);
        std::string key = "g" + std::to_string(generation) + "-" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, pad).ok());
        sealed_expected[key] = pad;
      }
    }
    ASSERT_TRUE((*store)->Put("active-key", "may be torn").ok());
    SnapshotDir(live, snap);
    lsm->TEST_PauseFlusher(false);
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Tear the newest WAL in the snapshot (highest generation number).
  fs::path newest;
  uint64_t newest_number = 0;
  for (const auto& entry : fs::directory_iterator(snap)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".log")) {
      uint64_t n = std::stoull(name.substr(4));
      if (n >= newest_number) {
        newest_number = n;
        newest = entry.path();
      }
    }
  }
  ASSERT_FALSE(newest.empty());
  const auto size = fs::file_size(newest);
  ASSERT_GT(size, 4u);
  fs::resize_file(newest, size - 3);  // torn mid-record
  auto store = LsmStore::Open(snap, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& [key, value] : sealed_expected) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }
  // The torn record itself is allowed to be gone, but a lookup must still be
  // well-formed (found with the right value, or cleanly NotFound).
  std::string got;
  Status s = (*store)->Get("active-key", &got);
  EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  if (s.ok()) {
    EXPECT_EQ(got, "may be torn");
  }
  ASSERT_TRUE((*store)->Close().ok());
}

// Crash window between manifest install and retired-WAL unlink: the
// manifest already says the old generation is flushed, but its file is still
// on disk (the unlink, or the directory sync making it durable, never
// happened). Recovery's floor rule must delete the stale log instead of
// replaying it — replaying would let its old records shadow newer flushed
// values.
TEST(LsmCrashTest, StaleWalLeftByCrashedUnlinkIsNotReplayed) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string pre = dir.path() + "/pre";
  const std::string snap = dir.path() + "/snapshot";
  LsmOptions opts = TinyOptions();
  opts.l0_compaction_trigger = 100;  // no compaction: snapshots stay stable
  {
    auto store = LsmStore::Open(live, opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "stale").ok());
    }
    SnapshotDir(live, pre);  // captures the WAL holding the "stale" records
    ASSERT_TRUE((*store)->Flush().ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "fresh").ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());  // "fresh" now in SSTables; old WALs retired
    SnapshotDir(live, snap);
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Reconstruct the crash state: the post-flush image plus the long-retired
  // WAL file that the crash prevented from being unlinked durably.
  std::string stale_wal;
  uint64_t stale_number = 0;
  for (const auto& entry : fs::directory_iterator(pre)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".log")) {
      stale_wal = name;
      stale_number = std::stoull(name.substr(4));
    }
  }
  ASSERT_FALSE(stale_wal.empty());
  ASSERT_FALSE(fs::exists(fs::path(snap) / stale_wal));  // retired before the snapshot
  fs::copy_file(fs::path(pre) / stale_wal, fs::path(snap) / stale_wal);

  auto store = LsmStore::Open(snap, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int i = 0; i < 60; ++i) {
    std::string got;
    ASSERT_TRUE((*store)->Get("k" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ(got, "fresh") << "stale wal-" << stale_number << " was replayed";
  }
  // Recovery garbage-collected the below-floor log.
  EXPECT_FALSE(fs::exists(fs::path(snap) / stale_wal));
  ASSERT_TRUE((*store)->Close().ok());
}

// Crash window between SSTable creation and manifest install: the new table
// is on disk but no manifest references it. Recovery must come up cleanly
// from the manifest it has, ignoring the orphan — losing only un-acked work.
TEST(LsmCrashTest, OrphanSstableFromCrashedFlushIsIgnored) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string snap = dir.path() + "/snapshot";
  LsmOptions opts = TinyOptions();
  opts.l0_compaction_trigger = 100;
  std::map<std::string, std::string> expected;
  {
    auto store = LsmStore::Open(live, opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 200; ++i) {
      std::string key = "k" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(key, "v" + std::to_string(i)).ok());
      expected[key] = "v" + std::to_string(i);
    }
    ASSERT_TRUE((*store)->Flush().ok());
    SnapshotDir(live, snap);
    ASSERT_TRUE((*store)->Close().ok());
  }
  // An SSTable written (even garbage) but never installed in the manifest.
  ASSERT_TRUE(WriteStringToFile(snap + "/999999.sst", "torn flush leftovers").ok());
  auto store = LsmStore::Open(snap, opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
  ASSERT_TRUE((*store)->Close().ok());
}

// The inverse ordering violation: a manifest that references an SSTable
// whose data never became durable. The durability contract (DESIGN.md)
// prevents this state by syncing the table and its directory entry before
// the manifest installs; if it ever appears, recovery must fail loudly
// rather than open a store with silent holes.
TEST(LsmCrashTest, ManifestReferencingMissingSstableFailsLoudly) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string snap = dir.path() + "/snapshot";
  LsmOptions opts = TinyOptions();
  opts.l0_compaction_trigger = 100;
  {
    auto store = LsmStore::Open(live, opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    SnapshotDir(live, snap);
    ASSERT_TRUE((*store)->Close().ok());
  }
  bool removed = false;
  for (const auto& entry : fs::directory_iterator(snap)) {
    if (entry.path().extension() == ".sst") {
      fs::remove(entry.path());
      removed = true;
    }
  }
  ASSERT_TRUE(removed);
  auto store = LsmStore::Open(snap, opts);
  EXPECT_FALSE(store.ok());
}

// The path of the store's one WAL generation in `dir`.
std::string OnlyWal(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".log")) {
      EXPECT_TRUE(found.empty()) << "second WAL generation " << name;
      found = entry.path().string();
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

// Reopens `dir` and checks that every key reads its expected value.
void ExpectReopenReads(const std::string& dir, const std::map<std::string, std::string>& expected) {
  auto store = LsmStore::Open(dir, LsmOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }
  ASSERT_TRUE((*store)->Close().ok());
}

// Unsynced writes are acknowledged once their record is in the mapped WAL,
// that is, in the page cache: a copy of the live files (what `kill -9`
// leaves) holds every one of them. The copy's WAL is longer than the bytes
// logged, because the log reserves whole windows and only Close truncates.
TEST(LsmCrashTest, LiveWalCopyHoldsEveryUnsyncedAck) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string snap = dir.path() + "/snapshot";
  std::map<std::string, std::string> expected;
  auto store = LsmStore::Open(live, LsmOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i % 200);
    const std::string op = "+" + std::to_string(i);
    if (i % 3 == 0) {
      ASSERT_TRUE((*store)->Put(key, op).ok());
      expected[key] = op;
    } else {
      ASSERT_TRUE((*store)->Merge(key, op).ok());
      expected[key] += op;
    }
  }
  const uint64_t logged = (*store)->stats().wal_bytes;
  SnapshotDir(live, snap);
  auto copied = FileSize(OnlyWal(snap));
  ASSERT_TRUE(copied.ok());
  EXPECT_GT(*copied, logged);
  ExpectReopenReads(snap, expected);
  ASSERT_TRUE((*store)->Close().ok());
}

// A record that straddles a window boundary, and a WriteBatch larger than a
// whole window, survive the same crash copy.
TEST(LsmCrashTest, WalRecordsSpanningWindowsSurviveACrashCopy) {
  ScopedTempDir dir;
  const std::string live = dir.path() + "/live";
  const std::string snap = dir.path() + "/snapshot";
  const size_t window = MappedLogFile::kWindowBytes;
  std::map<std::string, std::string> expected;
  auto store = LsmStore::Open(live, LsmOptions());
  ASSERT_TRUE(store.ok());
  // Two values of 0.4 windows each: the third record straddles the boundary.
  for (int i = 0; i < 3; ++i) {
    const std::string key = "straddle" + std::to_string(i);
    expected[key] = std::string(window * 2 / 5, static_cast<char>('a' + i));
    ASSERT_TRUE((*store)->Put(key, expected[key]).ok());
  }
  ASSERT_GT((*store)->stats().wal_bytes, window);
  WriteBatch batch;
  for (int i = 0; i < 6; ++i) {
    const std::string key = "batch" + std::to_string(i);
    expected[key] = std::string(window / 4, static_cast<char>('p' + i));
    batch.Put(key, expected[key]);
  }
  ASSERT_TRUE((*store)->Write(batch).ok());
  ASSERT_GT((*store)->stats().wal_bytes, 2 * window + window / 2);
  SnapshotDir(live, snap);
  ExpectReopenReads(snap, expected);
  ASSERT_TRUE((*store)->Close().ok());
}

// Lowers the process's file-size limit and ignores SIGXFSZ, restoring both on
// destruction: a WAL window that would end past the limit cannot be
// allocated (EFBIG).
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    ok_ = ::getrlimit(RLIMIT_FSIZE, &old_) == 0;
    rlimit lowered = old_;
    lowered.rlim_cur = bytes;
    ok_ = ok_ && ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;
  bool ok() const { return ok_; }

 private:
  rlimit old_{};
  void (*old_handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

// A WAL append that needs a window the filesystem refuses fails with an
// IoError and poisons the store, without a crash (the mapping never reaches
// past the reserved bytes, so no store faults). Every write acknowledged
// before it survives a reopen.
TEST(LsmCrashTest, RefusedWalWindowPoisonsWithoutCrash) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/db";
  std::map<std::string, std::string> acked;
  Status refused;
  {
    auto store = LsmStore::Open(path, LsmOptions());
    ASSERT_TRUE(store.ok());
    {
      // Room for the first window and a little more, not for the second.
      FileSizeLimit limit(MappedLogFile::kWindowBytes + 4096);
      ASSERT_TRUE(limit.ok());
      const std::string value(1000, 'v');
      for (int i = 0; i < 1000 && refused.ok(); ++i) {
        const std::string key = "k" + std::to_string(i);
        refused = (*store)->Put(key, value);
        if (refused.ok()) {
          acked[key] = value;
        }
      }
    }
    EXPECT_TRUE(refused.IsIoError()) << refused.ToString();
    EXPECT_GT(acked.size(), 200u);
    EXPECT_LT(acked.size(), 300u);
    // Poisoned: later writes fail too, and so does Close, which leaves the
    // WAL for recovery.
    EXPECT_FALSE((*store)->Put("after", "x").ok());
    EXPECT_FALSE((*store)->Close().ok());
  }
  ExpectReopenReads(path, acked);
  auto store = LsmStore::Open(path, LsmOptions());
  ASSERT_TRUE(store.ok());
  std::string got;
  EXPECT_TRUE((*store)->Get("after", &got).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmBackpressureTest, HeavyWritesDoNotWedge) {
  ScopedTempDir dir;
  LsmOptions opts = TinyOptions();
  opts.l0_stall_limit = 4;  // aggressive stalls
  auto store = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  std::string value(2'000, 'x');
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), value).ok()) << i;
  }
  StoreStats stats = (*store)->stats();
  EXPECT_GT(stats.compactions, 0u);  // background thread kept up
  ASSERT_TRUE((*store)->Close().ok());
}

}  // namespace
}  // namespace gadget
