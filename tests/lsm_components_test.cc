// Unit tests for LSM internals: bloom filter, buffer pool plumbing, memtable,
// SSTable builder/reader/iterator, WAL, manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/coding.h"
#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/lsm/bloom.h"
#include "src/stores/lsm/memtable.h"
#include "src/stores/lsm/sstable.h"
#include "src/stores/lsm/version.h"
#include "src/stores/lsm/wal.h"

namespace gadget {
namespace {

// -------------------------------------------------------------------- bloom

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 1000; ++i) {
    builder.AddKey("key" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(BloomFilterMayContain(filter, "key" + std::to_string(i)));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; ++i) {
    builder.AddKey("key" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (BloomFilterMayContain(filter, "absent" + std::to_string(i))) {
      ++fp;
    }
  }
  // 10 bits/key should give ~1% FPR; allow 3%.
  EXPECT_LT(fp, 300);
}

TEST(BloomTest, EmptyFilterIsSafe) {
  BloomFilterBuilder builder(10);
  std::string filter = builder.Finish();
  // No keys added: any answer is allowed but must not crash; degenerate
  // filters answer true.
  // result intentionally ignored: only exercising that the probe is safe.
  (void)BloomFilterMayContain(filter, "x");
  EXPECT_TRUE(BloomFilterMayContain("", "x"));
}

// -------------------------------------------------------------- buffer pool

TEST(BufferPoolCacheTest, HitAfterInsert) {
  BufferPool pool;
  pool.InsertBlock(1, 0, "hello");
  PinnedBlock h = pool.Lookup(1, 0);
  ASSERT_TRUE(static_cast<bool>(h));
  EXPECT_EQ(h.data(), "hello");
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPoolCacheTest, EvictsUnderPressure) {
  BufferPool pool(BufferPoolOptions{.capacity_bytes = 8 * 1024, .shards = 8});
  for (uint64_t i = 0; i < 1000; ++i) {
    pool.InsertBlock(1, i * 4096, std::string(512, 'x'));
  }
  int present = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    if (pool.Lookup(1, i * 4096)) {
      ++present;
    }
  }
  EXPECT_LT(present, 64);  // most were evicted
  EXPECT_GT(present, 0);   // but the most recent stayed
}

TEST(BufferPoolCacheTest, EraseFileDropsBlocks) {
  BufferPool pool;
  pool.InsertBlock(7, 0, "a");
  pool.InsertBlock(7, 4096, "b");
  pool.InsertBlock(8, 0, "c");
  pool.EraseFile(7);
  EXPECT_FALSE(pool.Lookup(7, 0));
  EXPECT_FALSE(pool.Lookup(7, 4096));
  EXPECT_TRUE(static_cast<bool>(pool.Lookup(8, 0)));
}

// ----------------------------------------------------------------- memtable

TEST(MemTableTest, PutGet) {
  MemTable mem;
  mem.Put("a", "1");
  std::string_view value;
  EXPECT_EQ(mem.Get("a", &value), LookupState::kFound);
  EXPECT_EQ(value, "1");
  EXPECT_EQ(mem.Get("b", &value), LookupState::kNotFound);
}

TEST(MemTableTest, DeleteShadowsPut) {
  MemTable mem;
  mem.Put("a", "1");
  mem.Delete("a");
  std::string_view value;
  EXPECT_EQ(mem.Get("a", &value), LookupState::kDeleted);
}

TEST(MemTableTest, MergeOnBaseCollapses) {
  MemTable mem;
  mem.Put("a", "base");
  mem.Merge("a", "+1");
  mem.Merge("a", "+2");
  std::string_view value;
  EXPECT_EQ(mem.Get("a", &value), LookupState::kFound);
  EXPECT_EQ(value, "base+1+2");
}

TEST(MemTableTest, MergeWithoutBaseIsPartial) {
  MemTable mem;
  mem.Merge("a", "x");
  mem.Merge("a", "y");
  mem.Merge("empty", "");
  std::string_view value;
  EXPECT_EQ(mem.Get("a", &value), LookupState::kMergePartial);
  EXPECT_EQ(value, "xy");  // the operands, oldest first, as one string
  // An empty operand is still an operand, not an absent key.
  EXPECT_EQ(mem.Get("empty", &value), LookupState::kMergePartial);
  EXPECT_EQ(value, "");
}

TEST(MemTableTest, MergeAfterDelete) {
  MemTable mem;
  mem.Put("a", "old");
  mem.Delete("a");
  mem.Merge("a", "new");
  std::string_view value;
  EXPECT_EQ(mem.Get("a", &value), LookupState::kFound);
  EXPECT_EQ(value, "new");
}

TEST(MemTableTest, FlushRecordTypes) {
  MemTable mem;
  mem.Put("full", "v");
  mem.Delete("gone");
  mem.Merge("lazy", "op");
  mem.Merge("lazy", "");
  mem.Merge("lazy", "2");
  mem.Put("merged", "v");
  mem.Merge("merged", "+");
  mem.Merge("revived", "x");
  mem.Delete("revived");
  mem.Merge("revived", "y");
  std::map<std::string, std::pair<RecType, std::string>> records;
  mem.ForEachFlushRecord([&](const MemTable::FlushRecord& rec) {
    records[std::string(rec.key)] = {rec.type, std::string(rec.value)};
  });
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records["full"].first, RecType::kValue);
  EXPECT_EQ(records["gone"].first, RecType::kTombstone);
  EXPECT_EQ(records["gone"].second, "");
  // The key's operands flush as one stack operand.
  EXPECT_EQ(records["lazy"].first, RecType::kMergeStack);
  EXPECT_EQ(records["lazy"].second, std::string("\x03op2", 4));
  Operands decoded;
  ASSERT_TRUE(DecodeMergeStack(records["lazy"].second, &decoded));
  EXPECT_EQ(decoded.bytes, "op2");
  EXPECT_EQ(records["merged"].first, RecType::kValue);
  EXPECT_EQ(records["merged"].second, "v+");
  // Deleted, then merged: a full value that shadows older layers.
  EXPECT_EQ(records["revived"].first, RecType::kValue);
  EXPECT_EQ(records["revived"].second, "y");
}

TEST(MemTableTest, FlushEmitsStrictlyIncreasingBinaryKeys) {
  MemTable mem;
  std::set<std::string> written;
  Pcg32 rng(1234);
  for (int i = 0; i < 3000; ++i) {
    std::string key(1 + rng.NextBounded(12), '\0');
    for (char& c : key) {
      // Half NULs and 0xff, so prefixes and byte signedness both matter.
      const uint32_t pick = rng.NextBounded(4);
      c = pick == 0 ? '\0' : pick == 1 ? '\xff' : static_cast<char>(rng.NextU32());
    }
    if (written.size() >= 1000 && written.count(key) == 0) {
      continue;
    }
    switch (rng.NextBounded(3)) {
      case 0:
        mem.Put(key, "v");
        break;
      case 1:
        mem.Merge(key, "m");
        break;
      default:
        mem.Delete(key);
        break;
    }
    written.insert(key);
  }
  EXPECT_EQ(mem.num_keys(), written.size());
  std::vector<std::string> keys;
  mem.ForEachFlushRecord(
      [&](const MemTable::FlushRecord& rec) { keys.emplace_back(rec.key); });
  ASSERT_EQ(keys.size(), written.size());
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]) << i;
  }
  // The bytewise order SSTableBuilder checks, the same as std::set's.
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), written.begin()));
}

TEST(MemTableTest, ByteAccountingFormula) {
  // key + 32 per new key, plus the value bytes, plus operand + 8 per merge.
  // A Put or Delete takes back the bytes it supersedes (but not the 8s).
  MemTable mem;
  EXPECT_EQ(mem.ApproximateBytes(), 0u);
  mem.Put("key", std::string(1000, 'v'));  // 3 + 32 + 1000
  EXPECT_EQ(mem.ApproximateBytes(), 1035u);
  mem.Merge("key", "abcd");  // + 4 + 8
  EXPECT_EQ(mem.ApproximateBytes(), 1047u);
  mem.Merge("lazy", "xy");  // 4 + 32, + 2 + 8
  EXPECT_EQ(mem.ApproximateBytes(), 1093u);
  mem.Merge("lazy", "");  // + 0 + 8
  EXPECT_EQ(mem.ApproximateBytes(), 1101u);
  mem.Put("key", "small");  // - 1004, + 5
  EXPECT_EQ(mem.ApproximateBytes(), 102u);
  mem.Delete("lazy");  // - 2
  EXPECT_EQ(mem.ApproximateBytes(), 100u);
  mem.Merge("lazy", "zzz");  // + 3 + 8
  EXPECT_EQ(mem.ApproximateBytes(), 111u);
  mem.Delete("gone");  // 4 + 32
  EXPECT_EQ(mem.ApproximateBytes(), 147u);
  mem.Put("lazy", "");  // - 3
  EXPECT_EQ(mem.ApproximateBytes(), 144u);
}

// ------------------------------------------------------------------ sstable

TEST(SSTableTest, BuildAndPointGet) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/1.sst";
  SSTableBuilder builder(path, 4096, 10);
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(builder.Add(key, RecType::kValue, "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_entries(), 1000u);
  EXPECT_EQ(builder.smallest(), "key000000");
  EXPECT_EQ(builder.largest(), "key000999");

  BufferPool pool;
  auto reader = SSTableReader::Open(path, 1, &pool);
  ASSERT_TRUE(reader.ok());
  std::string value;
  Operands ops;
  for (int i = 0; i < 1000; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    auto st = (*reader)->Get(key, &value, &ops);
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(*st, LookupState::kFound) << key;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
  auto miss = (*reader)->Get("key9999999", &value, &ops);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, LookupState::kNotFound);
}

TEST(SSTableTest, TombstoneAndMergeRecords) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/2.sst";
  SSTableBuilder builder(path, 4096, 10);
  // A stack of two operands: the shape of the stacks in older tables, which
  // wrote one operand per merge.
  std::string stack;
  PutLengthPrefixed(&stack, "x");
  PutLengthPrefixed(&stack, "y");
  ASSERT_TRUE(builder.Add("a", RecType::kMergeStack, stack).ok());
  ASSERT_TRUE(builder.Add("b", RecType::kTombstone, "").ok());
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_tombstones(), 1u);

  auto reader = SSTableReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  std::string value;
  Operands ops;
  ops.bytes = "z";  // a newer layer's operand stays after the table's
  auto st = (*reader)->Get("a", &value, &ops);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, LookupState::kMergePartial);
  EXPECT_EQ(ops.bytes, "xyz");
  EXPECT_TRUE(ops.any);
  st = (*reader)->Get("b", &value, &ops);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, LookupState::kDeleted);
}

TEST(SSTableTest, RejectsOutOfOrderKeys) {
  ScopedTempDir dir;
  SSTableBuilder builder(dir.path() + "/3.sst", 4096, 10);
  ASSERT_TRUE(builder.Add("b", RecType::kValue, "1").ok());
  EXPECT_FALSE(builder.Add("a", RecType::kValue, "2").ok());
  EXPECT_FALSE(builder.Add("b", RecType::kValue, "3").ok());  // duplicates too
}

TEST(SSTableTest, IteratorSeesAllRecordsInOrder) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/4.sst";
  SSTableBuilder builder(path, 256, 10);  // small blocks force many blocks
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(builder.Add(key, RecType::kValue, std::string(20, 'v')).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SSTableReader::Open(path, 4, nullptr);
  ASSERT_TRUE(reader.ok());
  SSTableIterator it(*reader);
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    EXPECT_GT(std::string(it.key()), prev);
    prev = std::string(it.key());
    ++count;
    it.Next();
  }
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(count, n);
}

TEST(SSTableTest, LargeValuesSpanBlocks) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/5.sst";
  SSTableBuilder builder(path, 4096, 10);
  std::string big(100000, 'B');
  ASSERT_TRUE(builder.Add("big", RecType::kValue, big).ok());
  ASSERT_TRUE(builder.Add("small", RecType::kValue, "s").ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SSTableReader::Open(path, 5, nullptr);
  ASSERT_TRUE(reader.ok());
  std::string value;
  Operands ops;
  auto st = (*reader)->Get("big", &value, &ops);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, LookupState::kFound);
  EXPECT_EQ(value, big);
}

TEST(SSTableTest, CorruptBlockDetected) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/6.sst";
  SSTableBuilder builder(path, 4096, 10);
  ASSERT_TRUE(builder.Add("k", RecType::kValue, std::string(100, 'v')).ok());
  ASSERT_TRUE(builder.Finish().ok());
  std::string raw;
  ASSERT_TRUE(ReadFileToString(path, &raw).ok());
  raw[10] ^= 0x01;  // corrupt the data block
  ASSERT_TRUE(WriteStringToFile(path, raw).ok());
  auto reader = SSTableReader::Open(path, 6, nullptr);
  ASSERT_TRUE(reader.ok());  // footer/index still fine
  std::string value;
  Operands ops;
  auto st = (*reader)->Get("k", &value, &ops);
  EXPECT_FALSE(st.ok());
}

// ---------------------------------------------------------------------- wal

TEST(WalTest, ReplayRoundTrip) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "k1", "v1"}}, false).ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kMergeStack, "k2", "op"}}, false).ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kTombstone, "k3", ""}}, false).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::vector<std::tuple<RecType, std::string, std::string>> records;
  auto n = ReplayWal(path, [&](RecType t, std::string_view k, std::string_view v) {
    records.emplace_back(t, std::string(k), std::string(v));
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(records[0], std::make_tuple(RecType::kValue, std::string("k1"), std::string("v1")));
  EXPECT_EQ(records[2], std::make_tuple(RecType::kTombstone, std::string("k3"), std::string()));
}

TEST(WalTest, TornTailStopsCleanly) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "k1", "v1"}}, false).ok());
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "k2", "v2"}}, false).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::string raw;
  ASSERT_TRUE(ReadFileToString(path, &raw).ok());
  raw.resize(raw.size() - 3);  // simulate a crash mid-record
  ASSERT_TRUE(WriteStringToFile(path, raw).ok());
  int count = 0;
  auto n = ReplayWal(path, [&](RecType, std::string_view, std::string_view) { ++count; });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);  // first record survives, torn second is skipped
}

// Replays `path` into (key, value) pairs in log order.
std::vector<std::pair<std::string, std::string>> ReplayPairs(const std::string& path) {
  std::vector<std::pair<std::string, std::string>> out;
  auto n = ReplayWal(path, [&](RecType, std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v));
  });
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  return out;
}

// The mapped log reserves whole windows, so a live log is longer than its
// records until Close truncates it: a copy taken without Close (what a
// process crash leaves) ends in zeros, and replay stops at the first one.
TEST(WalTest, LiveCopyEndsInZeroTailAndCloseTruncatesToRecords) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  const std::string copy = dir.path() + "/copy.log";
  auto wal = WalWriter::Create(path);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "k" + std::to_string(i), "v"}}, false).ok());
  }
  ASSERT_TRUE(CopyFile(path, copy).ok());
  auto copy_size = FileSize(copy);
  ASSERT_TRUE(copy_size.ok());
  EXPECT_EQ(*copy_size, MappedLogFile::kWindowBytes);
  EXPECT_GT(*copy_size, (*wal)->size());
  const auto pairs = ReplayPairs(copy);
  ASSERT_EQ(pairs.size(), 100u);
  EXPECT_EQ(pairs[99].first, "k99");

  ASSERT_TRUE((*wal)->Close().ok());
  auto closed_size = FileSize(path);
  ASSERT_TRUE(closed_size.ok());
  EXPECT_EQ(*closed_size, (*wal)->size());
  EXPECT_EQ(ReplayPairs(path), pairs);
}

// A record that straddles a window boundary, and a group larger than one
// window, replay intact from the live file and from the closed one.
TEST(WalTest, RecordsSpanningWindowsReplayIntact) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  const std::string copy = dir.path() + "/copy.log";
  const uint64_t window = MappedLogFile::kWindowBytes;
  auto fill = [](char c, uint64_t n) { return std::string(static_cast<size_t>(n), c); };
  // 1: ends 100 bytes short of the first boundary; 2: straddles it;
  // 3: one group of three values, 1.5 windows in all, so it spans windows 2-4.
  const std::string first = fill('a', window - 120);
  const std::string second = fill('b', 5000);
  const std::string big = fill('c', window / 2);
  auto wal = WalWriter::Create(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "first", first}}, false).ok());
  ASSERT_LT((*wal)->size(), window);
  ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "second", second}}, false).ok());
  ASSERT_GT((*wal)->size(), window);
  ASSERT_TRUE((*wal)
                  ->AppendGroup({{RecType::kValue, "big1", big},
                                 {RecType::kMergeStack, "big2", big},
                                 {RecType::kValue, "big3", big}},
                                /*sync=*/true)
                  .ok());
  EXPECT_EQ((*wal)->fsyncs(), 1u);
  ASSERT_GT((*wal)->size(), 2 * window);
  ASSERT_TRUE(CopyFile(path, copy).ok());
  const std::vector<std::pair<std::string, std::string>> want = {
      {"first", first}, {"second", second}, {"big1", big}, {"big2", big}, {"big3", big}};
  EXPECT_EQ(ReplayPairs(copy), want);
  ASSERT_TRUE((*wal)->Close().ok());
  EXPECT_EQ(ReplayPairs(path), want);
}

// A record torn inside a window, with the reserved zero tail after it (a
// crash that kept only part of the record's bytes): replay applies every
// record before it and stops there.
TEST(WalTest, TornRecordBeforeZeroTailStopsThere) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  auto wal = WalWriter::Create(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "k1", "v1"}}, false).ok());
  ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "k2", "v2"}}, false).ok());
  const uint64_t intact = (*wal)->size();
  ASSERT_TRUE((*wal)->AppendGroup({{RecType::kValue, "k3", std::string(100, 'x')}}, false).ok());
  const uint64_t logged = (*wal)->size();
  std::string raw;
  ASSERT_TRUE(ReadFileToString(path, &raw).ok());
  ASSERT_TRUE((*wal)->Close().ok());
  ASSERT_EQ(raw.size(), MappedLogFile::kWindowBytes);
  // Lose the second half of the third record: zeros up to the window's end.
  const uint64_t tear = intact + (logged - intact) / 2;
  std::fill(raw.begin() + static_cast<std::ptrdiff_t>(tear), raw.end(), '\0');
  ASSERT_TRUE(WriteStringToFile(path, raw).ok());
  const std::vector<std::pair<std::string, std::string>> want = {{"k1", "v1"}, {"k2", "v2"}};
  EXPECT_EQ(ReplayPairs(path), want);
}

// ----------------------------------------------------------------- manifest

TEST(ManifestTest, SaveLoadRoundTrip) {
  ScopedTempDir dir;
  ManifestData data;
  data.next_file_number = 42;
  data.wal_numbers = {7, 11};  // two live generations: imm queue + active
  data.files.push_back({0, 3, 1000, 50, 5, 12345, std::string("\x00\x01", 2), "zz"});
  data.files.push_back({2, 9, 2000, 99, 0, 777, "a", "m"});
  ASSERT_TRUE(SaveManifest(dir.path(), data).ok());
  auto back = LoadManifest(dir.path());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->next_file_number, 42u);
  EXPECT_EQ(back->wal_numbers, (std::vector<uint64_t>{7, 11}));
  ASSERT_EQ(back->files.size(), 2u);
  EXPECT_EQ(back->files[0].level, 0);
  EXPECT_EQ(back->files[0].smallest, std::string("\x00\x01", 2));
  EXPECT_EQ(back->files[1].largest, "m");
}

TEST(ManifestTest, MissingManifestIsNotFound) {
  ScopedTempDir dir;
  auto result = LoadManifest(dir.path());
  EXPECT_TRUE(result.status().IsNotFound());
}

}  // namespace
}  // namespace gadget
