// Unit tests for src/common: status, coding, crc32c, rng, histogram, config,
// file utilities.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <set>

#include "src/common/coding.h"
#include "src/common/config.h"
#include "src/common/crc32c.h"
#include "src/common/file_util.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace gadget {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, StatusOrValue) {
  StatusOr<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  StatusOr<int> bad(Status::IoError("disk on fire"));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsIoError());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 4), 0x0123456789abcdefULL);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1u << 20, (1ull << 40) + 5, ~0ull};
  for (uint64_t v : values) {
    PutVarint64(&buf, v);
  }
  const char* p = buf.data();
  const char* end = p + buf.size();
  for (uint64_t v : values) {
    uint64_t got = 0;
    p = GetVarint64(p, end, &got);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, end);
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint32(&buf, 1u << 30);
  uint32_t v;
  EXPECT_EQ(GetVarint32(buf.data(), buf.data() + 1, &v), nullptr);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  const char* p = buf.data();
  const char* end = p + buf.size();
  std::string_view s;
  p = GetLengthPrefixed(p, end, &s);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(s, "hello");
  p = GetLengthPrefixed(p, end, &s);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(s, "");
  p = GetLengthPrefixed(p, end, &s);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(s.size(), 1000u);
}

TEST(Crc32cTest, KnownVector) {
  // CRC32C("123456789") = 0xe3069283 (Castagnoli reference value).
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, MaskUnmaskInverse) {
  uint32_t crc = Crc32c("some data");
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(Crc32cTest, Incremental) {
  uint32_t whole = Crc32c("hello world");
  uint32_t part = Crc32c(0, "hello ", 6);
  part = Crc32c(part, "world", 5);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 appendix B.4, through the chosen implementation and the table.
  std::string zeros(32, '\x00');
  std::string ones(32, '\xff');
  std::string up(32, '\0');
  std::string down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[static_cast<size_t>(i)] = static_cast<char>(i);
    down[static_cast<size_t>(i)] = static_cast<char>(31 - i);
  }
  const std::pair<const std::string*, uint32_t> kVectors[] = {
      {&zeros, 0x8a9136aau}, {&ones, 0x62a8ab43u}, {&up, 0x46dd794eu}, {&down, 0x113fdb5cu}};
  for (const auto& [bytes, want] : kVectors) {
    EXPECT_EQ(Crc32c(*bytes), want);
    EXPECT_EQ(Crc32cPortable(0, bytes->data(), bytes->size()), want);
  }
}

TEST(Crc32cTest, HardwareMatchesTable) {
#if defined(__x86_64__)
  const bool hardware = __builtin_cpu_supports("sse4.2");
#else
  const bool hardware = false;
#endif
  if (!hardware) {
    GTEST_SKIP() << "no SSE4.2: Crc32c is the table";
  }
  // Every length 0-300 from every start offset mod 8, so the 8-byte loop
  // sees unaligned loads and the byte tail every length it can have; then
  // every split of a chained computation.
  Pcg32 rng(3720);
  std::string buf(8 + 300, '\0');
  for (char& c : buf) {
    c = static_cast<char>(rng.NextU32());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(0, p, len), Crc32cPortable(0, p, len)) << offset << "+" << len;
      ASSERT_EQ(Crc32c(0x12345678u, p, len), Crc32cPortable(0x12345678u, p, len))
          << offset << "+" << len;
    }
  }
  const char* p = buf.data() + 3;
  const uint32_t whole = Crc32cPortable(0, p, 300);
  for (size_t split = 0; split <= 300; ++split) {
    ASSERT_EQ(Crc32c(Crc32c(0, p, split), p + split, 300 - split), whole) << split;
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, SeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BoundedStaysInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    EXPECT_LT(rng.NextBounded64(1000003), 1000003u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Pcg32 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Pcg32 rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(0.5);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(HistogramTest, ExactSmallValues) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.Percentile(50), 31u);
}

TEST(HistogramTest, PercentileApproximation) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 100000; ++i) {
    h.Record(i);
  }
  // ~1.5% relative error budget.
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99000.0, 99000.0 * 0.03);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 50000.0 * 0.03);
}

TEST(HistogramTest, Merge) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(ConfigTest, ParsesTypedValues) {
  auto cfg = Config::ParseString(
      "# comment\n"
      "name = tumbling\n"
      "events = 1000\n"
      "rate = 2.5\n"
      "enabled = true\n"
      "\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->GetString("name"), "tumbling");
  EXPECT_EQ(cfg->GetInt("events"), 1000);
  EXPECT_DOUBLE_EQ(cfg->GetDouble("rate"), 2.5);
  EXPECT_TRUE(cfg->GetBool("enabled"));
  EXPECT_EQ(cfg->GetInt("missing", -1), -1);
}

TEST(ConfigTest, RejectsMalformedLine) {
  EXPECT_FALSE(Config::ParseString("this has no equals sign").ok());
  EXPECT_FALSE(Config::ParseString("= value with no key").ok());
}

TEST(ConfigTest, InlineCommentsAndWhitespace) {
  auto cfg = Config::ParseString("  key =  value  # trailing\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->GetString("key"), "value");
}

TEST(FileUtilTest, WriteReadRoundTrip) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/f.bin";
  std::string payload(100000, 'q');
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload);
}

TEST(FileUtilTest, AppendAcrossBufferBoundary) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/big.bin";
  auto file = WritableFile::Create(path);
  ASSERT_TRUE(file.ok());
  std::string chunk(30000, 'a');
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*file)->Append(chunk).ok());
  }
  ASSERT_TRUE((*file)->Close().ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back.size(), 300000u);
}

TEST(FileUtilTest, RandomAccessReads) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/ra.bin";
  ASSERT_TRUE(WriteStringToFile(path, "0123456789").ok());
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  std::string out;
  ASSERT_TRUE((*file)->Read(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  EXPECT_FALSE((*file)->Read(8, 5, &out).ok());  // beyond EOF

  // PwriteAll/PreadAll: overwrite in place at an offset and read it back,
  // through the raw descriptor and through the reader.
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(PwriteAll(fd, "abc", 3, 5).ok());
  std::string back(3, '\0');
  ASSERT_TRUE(PreadAll(fd, back.data(), back.size(), 5).ok());
  EXPECT_EQ(back, "abc");
  EXPECT_FALSE(PreadAll(fd, back.data(), back.size(), 9).ok());  // runs past EOF
  ASSERT_TRUE((*file)->Read(0, 10, &out).ok());
  EXPECT_EQ(out, "01234abc89");

  // Truncate and SyncData on the same descriptor: the file shrinks.
  ASSERT_TRUE(Truncate(fd, 4, path).ok());
  ASSERT_TRUE(SyncData(fd, path).ok());
  ::close(fd);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4u);
  // A failed call names the file and carries the errno text.
  const Status bad = SyncData(-1, path);
  EXPECT_NE(bad.message().find(path + ": " + std::strerror(EBADF)), std::string::npos)
      << bad.ToString();
}

TEST(FileUtilTest, ScopedTempDirCleansUp) {
  std::string path;
  {
    ScopedTempDir dir;
    path = dir.path();
    ASSERT_TRUE(FileExists(path));
    ASSERT_TRUE(WriteStringToFile(path + "/x", "y").ok());
  }
  EXPECT_FALSE(FileExists(path));
}

TEST(HashTest, Determinism) {
  EXPECT_EQ(Hash64("abc"), Hash64("abc"));
  EXPECT_NE(Hash64("abc"), Hash64("abd"));
  EXPECT_NE(Hash64("abc", 1), Hash64("abc", 2));
}

TEST(HashTest, Mix64Bijective) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    seen.insert(Mix64(i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

}  // namespace
}  // namespace gadget
