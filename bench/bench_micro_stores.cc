// Engine-level micro-benchmarks (google-benchmark): point operations per
// engine, merge vs read-modify-write on growing buckets, batched writes and
// lookups, and two LSM cases nothing else measures:
//   BM_ColdRead     serial Get against MultiGet x64 through a 64 KiB pool,
//                   the only benchmark of the IoBackend read wave;
//   BM_WriterSweep  wall-clock ReplaySharded at 1, 2 and 4 writer threads
//                   on one store, unsynced and with sync_writes, with the
//                   WAL group-commit and fdatasync counters.
// Their engine counters travel as google-benchmark counters, so
// --benchmark_out=FILE --benchmark_out_format=json records them with the
// timings. GADGET_OPS bounds both cases' sizes (bench_util.h). A case that
// hits a store error is skipped with it and the binary exits 1.
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/file_util.h"
#include "src/gadget/multi.h"
#include "src/stores/kvstore.h"

namespace gadget {
namespace {

struct EngineFixture {
  explicit EngineFixture(const std::string& engine) {
    dir = std::make_unique<ScopedTempDir>();
    StoreOptions opts;
    opts.engine = engine;
    opts.dir = dir->path() + "/db";
    auto opened = OpenStore(opts);
    if (opened.ok()) {
      store = std::move(*opened);
    }
  }
  std::unique_ptr<ScopedTempDir> dir;
  std::unique_ptr<KVStore> store;
};

// Set by Fail; main() exits 1 when any case failed. Cases run on the calling
// thread (none registers ->Threads()).
bool g_failed = false;

void Fail(benchmark::State& state, const std::string& what, const Status& s) {
  g_failed = true;
  state.SkipWithError((what + ": " + s.ToString()).c_str());
}

std::string KeyOf(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%016llu", static_cast<unsigned long long>(i));
  return std::string(buf);
}

void BM_Put(benchmark::State& state, const std::string& engine) {
  EngineFixture fx(engine);
  std::string value(256, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->Put(KeyOf(i++ % 10'000), value));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_Get(benchmark::State& state, const std::string& engine) {
  EngineFixture fx(engine);
  std::string value(256, 'v');
  for (uint64_t i = 0; i < 10'000; ++i) {
    (void)fx.store->Put(KeyOf(i), value);
  }
  std::string out;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->Get(KeyOf(i++ * 7919 % 10'000), &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Growing-bucket appends: merge on the LSM vs eager RMW elsewhere — the §6.5
// mechanic behind the holistic-window results.
void BM_BucketAppend(benchmark::State& state, const std::string& engine) {
  EngineFixture fx(engine);
  std::string operand(64, 'o');
  uint64_t bucket = 0;
  uint64_t appended = 0;
  for (auto _ : state) {
    if (fx.store->supports_merge()) {
      benchmark::DoNotOptimize(fx.store->Merge(KeyOf(bucket), operand));
    } else {
      benchmark::DoNotOptimize(fx.store->ReadModifyWrite(KeyOf(bucket), operand));
    }
    // New bucket every 2000 appends, like a firing window.
    if (++appended % 2'000 == 0) {
      (void)fx.store->Delete(KeyOf(bucket));
      ++bucket;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Batched-write throughput: each iteration fills one WriteBatch of
// state.range(0) puts and commits it with a single Write() call. Keys are
// precomputed — KeyOf's snprintf costs ~100ns, enough to mask the per-op
// savings the batch path is supposed to expose.
void BM_WriteBatch(benchmark::State& state, const std::string& engine) {
  const size_t batch = static_cast<size_t>(state.range(0));
  EngineFixture fx(engine);
  std::string value(256, 'v');
  std::vector<std::string> keys;
  keys.reserve(10'000);
  for (uint64_t i = 0; i < 10'000; ++i) {
    keys.push_back(KeyOf(i));
  }
  WriteBatch wb;
  uint64_t i = 0;
  for (auto _ : state) {
    wb.Clear();  // keeps entry storage: no per-op allocation in steady state
    for (size_t j = 0; j < batch; ++j) {
      wb.Put(keys[i++ % 10'000], value);
    }
    benchmark::DoNotOptimize(fx.store->Write(wb));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}

// Vector-lookup throughput: one MultiGet of state.range(0) keys per
// iteration, striding the preloaded key space.
void BM_MultiGet(benchmark::State& state, const std::string& engine) {
  const size_t batch = static_cast<size_t>(state.range(0));
  EngineFixture fx(engine);
  std::string value(256, 'v');
  std::vector<std::string> preloaded;
  preloaded.reserve(10'000);
  for (uint64_t i = 0; i < 10'000; ++i) {
    preloaded.push_back(KeyOf(i));
    (void)fx.store->Put(preloaded.back(), value);
  }
  std::vector<std::string> keys(batch);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  uint64_t i = 0;
  for (auto _ : state) {
    for (size_t j = 0; j < batch; ++j) {
      keys[j] = preloaded[i++ * 7919 % 10'000];
    }
    benchmark::DoNotOptimize(fx.store->MultiGet(keys, &values, &statuses));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}

#define REGISTER_ENGINE_BENCH(fn)                                          \
  BENCHMARK_CAPTURE(fn, lsm, std::string("lsm"));                          \
  BENCHMARK_CAPTURE(fn, lethe, std::string("lethe"));                      \
  BENCHMARK_CAPTURE(fn, btree, std::string("btree"));                      \
  BENCHMARK_CAPTURE(fn, faster, std::string("faster"));                    \
  BENCHMARK_CAPTURE(fn, mem, std::string("mem"))

// Sweep batch width 1 -> 256; Arg(1) is the apples-to-apples baseline (one
// op per Write/MultiGet call) against which the wins are quoted.
#define REGISTER_BATCH_BENCH(fn)                                           \
  BENCHMARK_CAPTURE(fn, lsm, std::string("lsm"))                           \
      ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);                        \
  BENCHMARK_CAPTURE(fn, lethe, std::string("lethe"))                       \
      ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);                        \
  BENCHMARK_CAPTURE(fn, btree, std::string("btree"))                       \
      ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);                        \
  BENCHMARK_CAPTURE(fn, faster, std::string("faster"))                     \
      ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);                        \
  BENCHMARK_CAPTURE(fn, mem, std::string("mem"))                           \
      ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)

REGISTER_ENGINE_BENCH(BM_Put);
REGISTER_ENGINE_BENCH(BM_Get);
REGISTER_ENGINE_BENCH(BM_BucketAppend);
REGISTER_BATCH_BENCH(BM_WriteBatch);
REGISTER_BATCH_BENCH(BM_MultiGet);

// Drops the OS page cache for every file under `dir` so the cold reads
// measure device reads, not page-cache hits. POSIX_FADV_DONTNEED only evicts
// clean pages — which is all the load phase leaves behind after Flush+Close.
// Best-effort: on filesystems where it is a no-op (tmpfs) the case simply
// measures the syscall-batching win instead.
void DropPageCache(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    // DONTNEED skips dirty pages, and freshly built SSTables have not hit
    // writeback yet — flush them first so the advice actually evicts.
    (void)::fdatasync(fd);
    (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    (void)::close(fd);
  }
}

// Cold-pool reads: one LSM store whose 64 KiB buffer pool is far below the
// on-disk working set. Each iteration drops the page cache and reopens the
// store on a cold pool (outside the timed region), then reads every key
// once: serially with Get (batch 1), or with MultiGet of `batch` keys, which
// resolves all of a batch's block misses in one IoBackend wave. MultiGet
// should clearly beat the serial loop and report io_in_flight_max > 1; the
// serial loop fetches one block per miss.
void BM_ColdRead(benchmark::State& state, size_t batch) {
  const uint64_t keys = std::max<uint64_t>(std::min<uint64_t>(bench::OpsBudget(), 20'000), 512);
  ScopedTempDir dir("bench-micro-cold");
  StoreOptions opts;
  opts.engine = "lsm";
  opts.dir = dir.path() + "/db";
  {
    // Block-sized values: every key lives in its own data block, so each
    // pool miss is a distinct block fetch rather than 14 keys amortizing one.
    auto store = OpenStore(opts);
    const std::string value(4000, 'v');
    Status s = store.ok() ? Status::Ok() : store.status();
    for (uint64_t i = 0; i < keys && s.ok(); ++i) {
      s = (*store)->Put(KeyOf(i), value);
    }
    if (s.ok()) {
      s = (*store)->Flush();
    }
    if (s.ok()) {
      s = (*store)->Close();
    }
    if (!s.ok()) {
      Fail(state, "cold-read preload", s);
      return;
    }
  }
  opts.buffer_pool.capacity_bytes = 64 * 1024;
  opts.buffer_pool.shards = 2;
  std::vector<std::string> order;
  order.reserve(keys);
  for (uint64_t i = 0; i < keys; ++i) {
    order.push_back(KeyOf(i * 7919 % keys));
  }
  std::vector<std::string> group;
  std::string value;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  uint64_t io_batches = 0;
  uint64_t in_flight_max = 0;
  uint64_t misses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    DropPageCache(opts.dir);
    auto store = OpenStore(opts);
    if (!store.ok()) {
      Fail(state, "open cold", store.status());
      break;
    }
    state.ResumeTiming();
    Status s;
    for (size_t i = 0; i < keys && s.ok(); i += batch) {
      if (batch == 1) {
        s = (*store)->Get(order[i], &value);
        benchmark::DoNotOptimize(value);
        continue;
      }
      group.assign(order.begin() + i, order.begin() + std::min<uint64_t>(i + batch, keys));
      s = (*store)->MultiGet(group, &values, &statuses);
      benchmark::DoNotOptimize(values);
      for (size_t j = 0; j < statuses.size() && s.ok(); ++j) {
        s = statuses[j];
      }
    }
    state.PauseTiming();
    if (!s.ok()) {
      Fail(state, "cold read", s);
      break;
    }
    const StoreStats stats = (*store)->stats();
    io_batches += stats.io_batches;
    in_flight_max = std::max(in_flight_max, stats.io_in_flight_max);
    misses += stats.cache_misses;
    if (s = (*store)->Close(); !s.ok()) {
      Fail(state, "close cold", s);
      break;
    }
    store->reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * keys));
  state.counters["io_batches"] = benchmark::Counter(static_cast<double>(io_batches),
                                                    benchmark::Counter::kAvgIterations);
  state.counters["io_in_flight_max"] = static_cast<double>(in_flight_max);
  state.counters["cache_misses"] =
      benchmark::Counter(static_cast<double>(misses), benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_ColdRead, serial_get, size_t{1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ColdRead, multiget64, size_t{64})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Concurrent writers on one LSM store: ReplaySharded partitions one put/get
// trace by key hash (so the single-writer-per-key invariant holds) over
// state.range(0) threads, and the case times the whole call. With
// sync_writes=0 a writer seldom waits long enough for another to join its
// group: wal_group_commits counts the groups that did form, and is often 0
// at small GADGET_OPS or two threads, so that setting measures how
// wall-clock replay scales with writers. With sync_writes=1 every group
// pays one fdatasync (wal_fsyncs), which writers arriving meanwhile share:
// the cross-writer group commit and the WAL's sync path.
void BM_WriterSweep(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const bool sync_writes = state.range(1) != 0;
  const uint64_t ops = bench::OpsBudget();
  std::vector<StateAccess> trace;
  trace.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    StateAccess a;
    a.key.hi = 1;
    a.key.lo = i % 1024;
    a.op = (i % 2 == 0) ? OpType::kPut : OpType::kGet;
    a.value_size = 64;
    trace.push_back(a);
  }
  uint64_t group_commits = 0;
  uint64_t group_size_max = 0;
  uint64_t fsyncs = 0;
  uint64_t stall_micros = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto dir = std::make_unique<ScopedTempDir>("bench-micro-mt");
    StoreOptions opts;
    opts.engine = "lsm";
    opts.dir = dir->path() + "/lsm-sweep";
    opts.sync_writes = sync_writes;
    auto store = OpenStore(opts);
    if (!store.ok()) {
      Fail(state, "open lsm", store.status());
      break;
    }
    state.ResumeTiming();
    auto result = ReplaySharded(trace, store->get(), threads, ReplayOptions{});
    state.PauseTiming();
    if (!result.ok() || !result->all_ok()) {
      const Status s = result.ok() ? result->FirstError() : result.status();
      Fail(state, "replay lsm", s);
      break;
    }
    const StoreStats stats = (*store)->stats();
    group_commits += stats.wal_group_commits;
    group_size_max = std::max(group_size_max, stats.wal_group_size_max);
    fsyncs += stats.wal_fsyncs;
    stall_micros += stats.stall_micros + stats.slowdown_micros;
    if (const Status s = (*store)->Close(); !s.ok()) {
      Fail(state, "close lsm", s);
      break;
    }
    store->reset();
    dir.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * ops));
  state.counters["wal_group_commits"] = benchmark::Counter(static_cast<double>(group_commits),
                                                           benchmark::Counter::kAvgIterations);
  state.counters["wal_group_size_max"] = static_cast<double>(group_size_max);
  state.counters["wal_fsyncs"] =
      benchmark::Counter(static_cast<double>(fsyncs), benchmark::Counter::kAvgIterations);
  state.counters["stall_ms"] = benchmark::Counter(static_cast<double>(stall_micros) / 1e3,
                                                  benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WriterSweep)
    ->ArgNames({"threads", "sync_writes"})
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gadget

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gadget::g_failed ? 1 : 0;
}
