// Observability layer tests: timeline interval math, per-engine StoreStats
// deltas, histogram JSON round-trips, concurrent timeline merges, and report
// emission and validation (DESIGN.md §5d).
#include "src/gadget/report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/multi.h"
#include "src/stores/kvstore.h"
#include "src/streams/state_access.h"

namespace gadget {
namespace {

// ops alternating put/get over a small key space — touches every engine's
// read and write path and produces a deterministic op mix.
std::vector<StateAccess> MakeTrace(uint64_t ops, uint64_t keys = 64) {
  std::vector<StateAccess> trace;
  trace.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    StateAccess a;
    a.key.hi = 7;
    a.key.lo = i % keys;
    a.op = (i % 2 == 0) ? OpType::kPut : OpType::kGet;
    a.value_size = 32;
    trace.push_back(a);
  }
  return trace;
}

StatusOr<std::unique_ptr<KVStore>> OpenEngine(const std::string& engine,
                                              const ScopedTempDir& dir) {
  StoreOptions opts;
  opts.engine = engine;
  opts.dir = dir.path() + "/" + engine;
  return OpenStore(opts);
}

// --- timeline interval math -------------------------------------------------

TEST(TimelineTest, ExactIntervals) {
  ScopedTempDir dir;
  auto store = OpenEngine("mem", dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ReplayOptions opts;
  opts.timeline_interval_ops = 100;
  auto result = ReplayTrace(MakeTrace(1000), store->get(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->timeline.size(), 10u);
  uint64_t total = 0;
  double prev_end = 0;
  for (size_t i = 0; i < result->timeline.size(); ++i) {
    const TimelineSample& s = result->timeline[i];
    EXPECT_EQ(s.index, i);
    EXPECT_EQ(s.ops, 100u);  // 1000 % 100 == 0: every interval is exact
    EXPECT_GE(s.start_seconds, prev_end - 1e-12);
    EXPECT_GE(s.end_seconds, s.start_seconds);
    prev_end = s.end_seconds;
    total += s.ops;
  }
  EXPECT_EQ(total, result->ops);
}

TEST(TimelineTest, RaggedFinalInterval) {
  ScopedTempDir dir;
  auto store = OpenEngine("mem", dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ReplayOptions opts;
  opts.timeline_interval_ops = 300;
  auto result = ReplayTrace(MakeTrace(1000), store->get(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 1000 = 3 * 300 + 100: three full intervals plus the ragged tail.
  ASSERT_EQ(result->timeline.size(), 4u);
  EXPECT_EQ(result->timeline[0].ops, 300u);
  EXPECT_EQ(result->timeline[1].ops, 300u);
  EXPECT_EQ(result->timeline[2].ops, 300u);
  EXPECT_EQ(result->timeline[3].ops, 100u);
}

TEST(TimelineTest, DisabledByDefault) {
  ScopedTempDir dir;
  auto store = OpenEngine("mem", dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto result = ReplayTrace(MakeTrace(500), store->get(), ReplayOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timeline.empty());
}

TEST(TimelineTest, BatchedIntervalsCoverEveryOp) {
  ScopedTempDir dir;
  auto store = OpenEngine("lsm", dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ReplayOptions opts;
  opts.batch_size = 32;  // batches may overshoot a boundary by up to 31 ops
  opts.timeline_interval_ops = 100;
  auto result = ReplayTrace(MakeTrace(1000), store->get(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->timeline.size(), 2u);
  uint64_t total = 0;
  for (const TimelineSample& s : result->timeline) {
    EXPECT_GT(s.ops, 0u);
    total += s.ops;
  }
  EXPECT_EQ(total, result->ops);
}

// --- StoreStats deltas per engine ---------------------------------------------

TEST(TimelineTest, StatsDeltasSumToFinalStats) {
  for (const char* engine : {"mem", "lsm", "lethe", "btree", "faster"}) {
    SCOPED_TRACE(engine);
    ScopedTempDir dir;
    auto store = OpenEngine(engine, dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ReplayOptions opts;
    opts.timeline_interval_ops = 250;
    auto result = ReplayTrace(MakeTrace(1000), store->get(), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->timeline.size(), 4u);
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t wal_bytes = 0;
    for (const TimelineSample& s : result->timeline) {
      gets += s.stats_delta.gets;
      puts += s.stats_delta.puts;
      wal_bytes += s.stats_delta.wal_bytes;
    }
    // Interval deltas partition the replay's operations exactly.
    StoreStats final_stats = (*store)->stats();
    EXPECT_EQ(gets, final_stats.gets);
    EXPECT_EQ(puts, final_stats.puts);
    EXPECT_EQ(gets, 500u);
    EXPECT_EQ(puts, 500u);
    // Durability-logging engines must surface WAL traffic.
    if (std::string(engine) != "mem" && std::string(engine) != "btree") {
      EXPECT_GT(wal_bytes, 0u);
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST(StoreStatsTest, DeltaSinceSaturatesAndKeepsGauges) {
  StoreStats later;
  later.gets = 100;
  later.wal_fsyncs = 7;
  later.level_files = {4, 2, 1};
  StoreStats earlier;
  earlier.gets = 40;
  earlier.wal_fsyncs = 9;  // racy snapshot: earlier > later must not wrap
  StoreStats delta = later.DeltaSince(earlier);
  EXPECT_EQ(delta.gets, 60u);
  EXPECT_EQ(delta.wal_fsyncs, 0u);
  EXPECT_EQ(delta.level_files, (std::vector<uint64_t>{4, 2, 1}));
}

TEST(StoreStatsTest, MergeMaxTakesWidestObservation) {
  StoreStats a;
  a.gets = 10;
  a.stall_micros = 5;
  a.level_files = {3};
  StoreStats b;
  b.gets = 4;
  b.stall_micros = 9;
  b.level_files = {1, 2};
  a.MergeMax(b);
  EXPECT_EQ(a.gets, 10u);
  EXPECT_EQ(a.stall_micros, 9u);
  EXPECT_EQ(a.level_files, (std::vector<uint64_t>{3, 2}));
}

// --- histogram JSON round-trip -----------------------------------------------

TEST(ReportJsonTest, HistogramRoundTripPreservesCountsAndPercentiles) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10'000; v += 7) {
    h.Record(v);
  }
  h.Record(1);
  h.Record(1'000'000'007);

  std::string text = HistogramToJson(h).Write();
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  LatencyHistogram restored;
  ASSERT_TRUE(HistogramFromJson(*parsed, &restored));

  EXPECT_EQ(restored.count(), h.count());
  EXPECT_EQ(restored.min(), h.min());
  EXPECT_EQ(restored.max(), h.max());
  EXPECT_DOUBLE_EQ(restored.mean(), h.mean());
  for (double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(restored.Percentile(p), h.Percentile(p)) << "p" << p;
  }
  // Bucket-wise equality: merging the restored histogram into an empty one
  // reproduces the original's serialized form byte-for-byte.
  LatencyHistogram merged;
  merged.Merge(restored);
  EXPECT_EQ(HistogramToJson(merged).Write(), text);
}

TEST(ReportJsonTest, EmptyHistogramRoundTrips) {
  LatencyHistogram h;
  auto parsed = ParseJson(HistogramToJson(h).Write());
  ASSERT_TRUE(parsed.ok());
  LatencyHistogram restored;
  ASSERT_TRUE(HistogramFromJson(*parsed, &restored));
  EXPECT_EQ(restored.count(), 0u);
  EXPECT_EQ(restored.min(), 0u);
}

TEST(ReportJsonTest, HistogramRejectsOutOfRangeBucket) {
  LatencyHistogram h;
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("count", 1);
  obj.Set("sum", 1.0);
  obj.Set("min", uint64_t{1});
  obj.Set("max", uint64_t{1});
  JsonValue buckets = JsonValue::MakeArray();
  JsonValue pair = JsonValue::MakeArray();
  pair.Append(uint64_t{1'000'000});  // far beyond any real bucket index
  pair.Append(uint64_t{1});
  buckets.Append(std::move(pair));
  obj.Set("buckets", std::move(buckets));
  EXPECT_FALSE(HistogramFromJson(obj, &h));
  EXPECT_EQ(h.count(), 0u);  // left reset, not half-restored
}

// --- concurrent-replay timeline merge ----------------------------------------

TEST(TimelineTest, ConcurrentReplayMergesSampleWise) {
  ScopedTempDir dir;
  auto store = OpenEngine("mem", dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<std::vector<StateAccess>> traces = {MakeTrace(1000), MakeTrace(1000)};
  ReplayOptions opts;
  opts.timeline_interval_ops = 250;
  auto result = ReplayConcurrently(traces, store->get(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->all_ok()) << result->FirstError().ToString();
  ReplayResult merged = result->Merged();
  // Both instances produce 4 exact intervals; the merge pairs them by index.
  ASSERT_EQ(merged.timeline.size(), 4u);
  uint64_t total = 0;
  for (const TimelineSample& s : merged.timeline) {
    EXPECT_EQ(s.ops, 500u);  // 250 from each instance
    total += s.ops;
  }
  EXPECT_EQ(total, merged.ops);
}

TEST(TimelineTest, MergeFromWidensBoundsAndMaxesStats) {
  TimelineSample a;
  a.index = 0;
  a.ops = 100;
  a.start_seconds = 0.10;
  a.end_seconds = 0.20;
  a.stats_delta.gets = 10;
  a.read_latency_ns.Record(1000);
  TimelineSample b;
  b.index = 0;
  b.ops = 50;
  b.start_seconds = 0.05;
  b.end_seconds = 0.15;
  b.stats_delta.gets = 30;
  b.read_latency_ns.Record(3000);
  a.MergeFrom(b);
  EXPECT_EQ(a.ops, 150u);
  EXPECT_DOUBLE_EQ(a.start_seconds, 0.05);
  EXPECT_DOUBLE_EQ(a.end_seconds, 0.20);
  EXPECT_DOUBLE_EQ(a.ops_per_sec, 150.0 / 0.15);
  EXPECT_EQ(a.stats_delta.gets, 30u);  // max, not sum: shared-store delta
  EXPECT_EQ(a.read_latency_ns.count(), 2u);
}

TEST(TimelineTest, ReplayResultMergeAppendsLongerTimeline) {
  ReplayResult a;
  a.timeline.resize(2);
  a.timeline[0].ops = 10;
  a.timeline[1].ops = 10;
  ReplayResult b;
  b.timeline.resize(3);
  b.timeline[0].ops = 5;
  b.timeline[1].ops = 5;
  b.timeline[2].ops = 5;
  a.MergeFrom(b);
  ASSERT_EQ(a.timeline.size(), 3u);
  EXPECT_EQ(a.timeline[0].ops, 15u);
  EXPECT_EQ(a.timeline[1].ops, 15u);
  EXPECT_EQ(a.timeline[2].ops, 5u);  // appended as-is
}

// --- report emission and validation -------------------------------------------

// A fully populated report document built from a real replay.
JsonValue MakeReportDoc() {
  ScopedTempDir dir;
  auto store = OpenEngine("mem", dir);
  EXPECT_TRUE(store.ok());
  ReplayOptions opts;
  opts.timeline_interval_ops = 200;
  auto result = ReplayTrace(MakeTrace(600), store->get(), opts);
  EXPECT_TRUE(result.ok());
  ReportMeta meta;
  meta.engine = "mem";
  meta.git = "test";
  meta.timestamp = CurrentTimestamp();
  meta.config = {{"store", "mem"}};
  return BuildReportJson(meta, *result, (*store)->stats());
}

TEST(ReportJsonTest, WriteParseValidateRoundTrip) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/report.json";
  {
    ScopedTempDir store_dir;
    auto store = OpenEngine("lsm", store_dir);
    ASSERT_TRUE(store.ok());
    ReplayOptions opts;
    opts.timeline_interval_ops = 100;
    auto result = ReplayTrace(MakeTrace(500), store->get(), opts);
    ASSERT_TRUE(result.ok());
    ReportMeta meta;
    meta.engine = "lsm";
    meta.timestamp = CurrentTimestamp();
    ASSERT_TRUE(WriteReportJson(path, meta, *result, (*store)->stats()).ok());
  }
  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(ValidateReportJson(*doc).ok()) << ValidateReportJson(*doc).ToString();
  EXPECT_EQ(doc->GetString("schema"), kReportSchema);
  EXPECT_EQ(doc->Get("result")->Get("timeline")->items().size(), 5u);
}

TEST(ReportJsonTest, ValidationCatchesMissingSections) {
  JsonValue doc = MakeReportDoc();
  EXPECT_TRUE(ValidateReportJson(doc).ok());

  JsonValue no_schema = doc;
  no_schema.Set("schema", "bogus/9");
  EXPECT_FALSE(ValidateReportJson(no_schema).ok());

  JsonValue no_result = JsonValue::MakeObject();
  no_result.Set("schema", kReportSchema);
  no_result.Set("meta", *doc.Get("meta"));
  no_result.Set("stats", *doc.Get("stats"));
  EXPECT_FALSE(ValidateReportJson(no_result).ok());

  // A document of the schema bench binaries used to write is refused like
  // any unknown schema.
  JsonValue bench = JsonValue::MakeObject();
  bench.Set("schema", "gadget.bench/1");
  bench.Set("name", "x");
  bench.Set("runs", JsonValue::MakeArray());
  const Status refused = ValidateReportJson(bench);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("unknown schema"), std::string::npos) << refused.ToString();

  EXPECT_FALSE(ValidateReportJson(JsonValue(std::string("not an object"))).ok());
}

}  // namespace
}  // namespace gadget
