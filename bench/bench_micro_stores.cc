// Engine-level micro-benchmarks (google-benchmark): point operations per
// engine, merge vs read-modify-write on growing buckets, and block/page
// cache behaviour. These are the building blocks behind the shapes in
// Figures 12/13.
//
// When GADGET_BENCH_JSON=<path> is set, a machine-readable gadget.bench/1
// report is additionally written there after the benchmarks run: one small
// replay (OpsBudget() ops, so GADGET_OPS bounds it) per engine, labeled
// "replay/<engine>", plus a cache-miss-heavy cold-pool read leg on the LSM
// (buffer pool sized below the working set) comparing a serial Get loop
// against batched MultiGet, labeled "read_cold/lsm/serial_get" and
// "read_cold/lsm/multiget", plus a loopback wire replay against the store
// server with 1 and 4 IO threads, labeled "wire/lsm/ioT1" / "wire/lsm/ioT4"
// (the multi-reactor network-path probe). CI's bench-smoke job validates and
// archives this file.
//
// --threads=1,2,4,... additionally runs a concurrent-writer sweep against a
// single LSM instance (ReplaySharded: one trace partitioned by key hash, so
// the single-writer-per-key invariant holds) and adds one JSON run per
// thread count, labeled "replay_mt/lsm/t<N>". This is the scaling probe for
// the pipelined write path: group commit and the immutable-memtable queue
// only pay off with concurrent writers.
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/file_util.h"
#include "src/gadget/multi.h"
#include "src/server/loadgen.h"
#include "src/server/server.h"
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

// A small synthetic put/get mix over 1024 keys — enough to touch every
// engine's read and write path and accumulate nonzero StoreStats.
std::vector<StateAccess> JsonReplayTrace(uint64_t ops) {
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
  return trace;
}

// Parses "--threads=1,2,4" from argv (removing it) into a thread-count list.
std::vector<unsigned> ParseThreadsFlag(int* argc, char** argv) {
  std::vector<unsigned> threads;
  constexpr const char* kPrefix = "--threads=";
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(kPrefix, 0) != 0) {
      continue;
    }
    std::string list = arg.substr(std::string(kPrefix).size());
    size_t pos = 0;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) {
        comma = list.size();
      }
      int n = std::atoi(list.substr(pos, comma - pos).c_str());
      if (n > 0) {
        threads.push_back(static_cast<unsigned>(n));
      }
      pos = comma + 1;
    }
    // Remove the flag so google-benchmark does not reject it.
    for (int j = i; j + 1 < *argc; ++j) {
      argv[j] = argv[j + 1];
    }
    --*argc;
    break;
  }
  return threads;
}

// Replays one shared trace against a single LSM store with 1..N writer
// threads and appends one BenchRun per thread count. Prints a small table so
// the sweep is useful without the JSON report too.
bool RunThreadSweep(const std::vector<unsigned>& threads, std::vector<bench::BenchRun>* runs) {
  const uint64_t ops = bench::OpsBudget();
  const std::vector<StateAccess> trace = JsonReplayTrace(ops);
  ScopedTempDir dir("bench-micro-mt");
  bench::PrintHeader("LSM concurrent-writer sweep (one store, sharded trace)");
  std::printf("%8s %14s %14s %14s %14s\n", "threads", "kops/s", "group_commits", "max_group",
              "stall_ms");
  for (unsigned n : threads) {
    auto store = bench::OpenBenchStore("lsm", dir, "t" + std::to_string(n));
    if (!store.ok()) {
      std::fprintf(stderr, "open lsm t%u: %s\n", n, store.status().ToString().c_str());
      return false;
    }
    ReplayOptions opts;
    opts.timeline_interval_ops = ops / 4 > 0 ? ops / 4 : 1;
    auto result = ReplaySharded(trace, store->get(), n, opts);
    if (!result.ok() || !result->all_ok()) {
      Status s = result.ok() ? result->FirstError() : result.status();
      std::fprintf(stderr, "replay lsm t%u: %s\n", n, s.ToString().c_str());
      return false;
    }
    bench::BenchRun run;
    run.label = "replay_mt/lsm/t" + std::to_string(n);
    run.engine = "lsm";
    run.result = result->Merged();
    run.result.throughput_ops_per_sec = result->combined_throughput_ops_per_sec;
    run.stats = (*store)->stats();
    std::printf("%8u %14.1f %14llu %14llu %14.1f\n", n,
                result->combined_throughput_ops_per_sec / 1e3,
                static_cast<unsigned long long>(run.stats.wal_group_commits),
                static_cast<unsigned long long>(run.stats.wal_group_size_max),
                static_cast<double>(run.stats.stall_micros + run.stats.slowdown_micros) / 1e3);
    runs->push_back(std::move(run));
    Status closed = (*store)->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "close lsm t%u: %s\n", n, closed.ToString().c_str());
      return false;
    }
  }
  bench::PrintShapeNote(
      "throughput should hold or improve with writer threads: the leader "
      "commits whole groups with one fsync while followers park, and flushes "
      "run on the background queue instead of the writer's critical path");
  return true;
}

// Drops the OS page cache for every file under `dir` so the cold-read legs
// measure device reads, not page-cache hits. POSIX_FADV_DONTNEED only evicts
// clean pages — which is all the load phase leaves behind after Flush+Close.
// Best-effort: on filesystems where it is a no-op (tmpfs) the legs simply
// measure the syscall-batching win instead.
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

// Cache-miss-heavy read leg: one LSM store whose buffer pool is sized far
// below the on-disk working set, read back twice from a cold pool — once
// with a serial Get loop, once with batched MultiGet. MultiGet resolves all
// missed blocks of a batch in one IoBackend wave, so it should beat the
// serial leg and report io_in_flight_max > 1; the serial leg fetches one
// block per miss. Appends "read_cold/lsm/serial_get" and
// "read_cold/lsm/multiget" runs.
bool RunColdReadLeg(std::vector<bench::BenchRun>* runs) {
  const uint64_t keys = std::max<uint64_t>(std::min<uint64_t>(bench::OpsBudget(), 20'000), 512);
  constexpr size_t kBatch = 64;
  constexpr uint64_t kPoolBytes = 64 * 1024;
  ScopedTempDir dir("bench-micro-cold");
  const std::string db = dir.path() + "/db";
  // Block-sized values: every key lives in its own data block, so each pool
  // miss is a distinct block fetch rather than 14 keys amortizing one read.
  const std::string value(4000, 'v');
  {
    StoreOptions opts;
    opts.engine = "lsm";
    opts.dir = db;
    auto store = OpenStore(opts);
    if (!store.ok()) {
      std::fprintf(stderr, "open cold-read load store: %s\n", store.status().ToString().c_str());
      return false;
    }
    for (uint64_t i = 0; i < keys; ++i) {
      Status s = (*store)->Put(KeyOf(i), value);
      if (!s.ok()) {
        std::fprintf(stderr, "cold-read preload: %s\n", s.ToString().c_str());
        return false;
      }
    }
    if (Status s = (*store)->Flush(); !s.ok()) {
      std::fprintf(stderr, "cold-read flush: %s\n", s.ToString().c_str());
      return false;
    }
    if (Status s = (*store)->Close(); !s.ok()) {
      std::fprintf(stderr, "cold-read close: %s\n", s.ToString().c_str());
      return false;
    }
  }
  // Each leg reopens the store so both start from a cold pool.
  auto open_cold = [&db]() {
    StoreOptions opts;
    opts.engine = "lsm";
    opts.dir = db;
    opts.buffer_pool.capacity_bytes = kPoolBytes;
    opts.buffer_pool.shards = 2;
    return OpenStore(opts);
  };
  auto finish_run = [&](const char* label, KVStore* store, uint64_t ops,
                        double seconds) {
    bench::BenchRun run;
    run.label = label;
    run.engine = "lsm";
    run.result.ops = ops;
    run.result.elapsed_seconds = seconds;
    run.result.throughput_ops_per_sec = seconds > 0 ? static_cast<double>(ops) / seconds : 0;
    run.stats = store->stats();
    runs->push_back(run);
    return run;
  };

  double serial_kops = 0;
  {
    DropPageCache(db);
    auto store = open_cold();
    if (!store.ok()) {
      std::fprintf(stderr, "open cold serial: %s\n", store.status().ToString().c_str());
      return false;
    }
    std::string out;
    uint64_t not_found = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < keys; ++i) {
      Status s = (*store)->Get(KeyOf(i * 7919 % keys), &out);
      if (s.IsNotFound()) {
        ++not_found;
      } else if (!s.ok()) {
        std::fprintf(stderr, "cold serial get: %s\n", s.ToString().c_str());
        return false;
      }
    }
    double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (not_found != 0) {
      std::fprintf(stderr, "cold serial get: %llu unexpected misses\n",
                   static_cast<unsigned long long>(not_found));
      return false;
    }
    bench::BenchRun run = finish_run("read_cold/lsm/serial_get", store->get(), keys, secs);
    serial_kops = run.result.throughput_ops_per_sec / 1e3;
    (void)(*store)->Close();
  }

  DropPageCache(db);
  auto store = open_cold();
  if (!store.ok()) {
    std::fprintf(stderr, "open cold multiget: %s\n", store.status().ToString().c_str());
    return false;
  }
  std::vector<std::string> batch;
  batch.reserve(kBatch);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < keys;) {
    batch.clear();
    for (size_t j = 0; j < kBatch && i < keys; ++j, ++i) {
      batch.push_back(KeyOf(i * 7919 % keys));
    }
    Status s = (*store)->MultiGet(batch, &values, &statuses);
    if (!s.ok()) {
      std::fprintf(stderr, "cold multiget: %s\n", s.ToString().c_str());
      return false;
    }
    for (const Status& st : statuses) {
      if (!st.ok()) {
        std::fprintf(stderr, "cold multiget key: %s\n", st.ToString().c_str());
        return false;
      }
    }
  }
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  bench::BenchRun mg = finish_run("read_cold/lsm/multiget", store->get(), keys, secs);
  (void)(*store)->Close();

  bench::PrintHeader("Cold-pool read path (pool " + std::to_string(kPoolBytes / 1024) +
                     " KiB, " + std::to_string(keys) + " keys)");
  std::printf("%24s %12s %12s %14s %12s\n", "leg", "kops/s", "io_batches", "io_inflight_max",
              "cache_miss");
  std::printf("%24s %12.1f %12s %14s %12s\n", "serial Get", serial_kops, "-", "-", "-");
  std::printf("%24s %12.1f %12llu %14llu %12llu\n", "MultiGet x64",
              mg.result.throughput_ops_per_sec / 1e3,
              static_cast<unsigned long long>(mg.stats.io_batches),
              static_cast<unsigned long long>(mg.stats.io_in_flight_max),
              static_cast<unsigned long long>(mg.stats.cache_misses));
  if (serial_kops > 0) {
    std::printf("%24s %12.2fx\n", "multiget speedup", mg.result.throughput_ops_per_sec / 1e3 / serial_kops);
  }
  bench::PrintShapeNote(
      "batched MultiGet should clearly beat the serial Get loop on a cold "
      "pool: every batch's block misses are issued as one IoBackend wave "
      "(io_in_flight_max > 1) instead of one blocking read per miss");
  return true;
}

// Replays the synthetic trace over the wire against a loopback store server
// with 1 and then 4 IO threads, labeled "wire/lsm/ioT1" / "wire/lsm/ioT4" —
// the loaded-vs-report comparison for the multi-reactor network path. Client
// threads and reactors (which run the store calls themselves) share this
// host's cores, so the ioT4/ioT1 ratio is a scaling probe only when there
// are cores to spare.
bool RunWireLeg(std::vector<bench::BenchRun>* runs) {
  const uint64_t ops = bench::OpsBudget();
  const std::vector<StateAccess> trace = JsonReplayTrace(ops);
  bench::PrintHeader("wire replay (loopback loadgen vs store server, lsm)");
  std::printf("%8s %14s %14s %14s\n", "ioT", "kops/s", "writev_calls", "frames/wv max");
  for (int io_threads : {1, 4}) {
    ScopedTempDir dir("bench-micro-wire");
    wire::ServerOptions sopts;
    sopts.shards = 4;
    sopts.io_threads = io_threads;
    sopts.store.engine = "lsm";
    sopts.store.dir = dir.path() + "/db";
    auto server = wire::Server::Start(sopts);
    if (!server.ok()) {
      std::fprintf(stderr, "wire ioT%d: %s\n", io_threads, server.status().ToString().c_str());
      return false;
    }
    wire::LoadgenOptions lopts;
    lopts.port = (*server)->port();
    lopts.clients = 8;
    lopts.shards = 4;
    lopts.batch_size = 16;
    lopts.pipeline_depth = 4;
    auto result = wire::RunLoadgen(trace, lopts);
    if (!result.ok()) {
      std::fprintf(stderr, "loadgen ioT%d: %s\n", io_threads, result.status().ToString().c_str());
      return false;
    }
    if (result->ops_acked != result->ops_sent || result->errors != 0) {
      std::fprintf(stderr, "loadgen ioT%d lost operations (%llu/%llu acked, %llu errors)\n",
                   io_threads, static_cast<unsigned long long>(result->ops_acked),
                   static_cast<unsigned long long>(result->ops_sent),
                   static_cast<unsigned long long>(result->errors));
      return false;
    }
    const wire::NetStats net = (*server)->net_stats();
    bench::BenchRun run;
    run.label = "wire/lsm/ioT" + std::to_string(io_threads);
    run.engine = "lsm";
    run.result = result->replay;
    run.stats = (*server)->shard_set()->MergedStats();
    std::printf("%8d %14.1f %14llu %14llu\n", io_threads,
                result->replay.throughput_ops_per_sec / 1e3,
                static_cast<unsigned long long>(net.writev_calls),
                static_cast<unsigned long long>(net.frames_per_writev_max));
    runs->push_back(std::move(run));
    (*server)->Stop();
  }
  bench::PrintShapeNote(
      "pipelined responses should coalesce (frames/wv max well above 1), and "
      "with spare cores the ioT4 leg should out-pace ioT1: four reactors "
      "decode and drain connections in parallel instead of serializing every "
      "socket behind one epoll loop");
  return true;
}

// Replays the synthetic trace on every engine and writes the gadget.bench/1
// document to `path`, appending any `extra` runs (the thread sweep). Returns
// false on the first failure.
bool EmitMicroJson(const std::string& path, std::vector<bench::BenchRun> extra) {
  const uint64_t ops = bench::OpsBudget();
  const std::vector<StateAccess> trace = JsonReplayTrace(ops);
  ScopedTempDir dir("bench-micro-json");
  std::vector<bench::BenchRun> runs;
  for (const char* engine : {"mem", "lsm", "lethe", "btree", "faster"}) {
    auto store = bench::OpenBenchStore(engine, dir, "json");
    if (!store.ok()) {
      std::fprintf(stderr, "open %s: %s\n", engine, store.status().ToString().c_str());
      return false;
    }
    ReplayOptions opts;
    opts.timeline_interval_ops = ops / 4 > 0 ? ops / 4 : 1;
    auto result = ReplayTrace(trace, store->get(), opts);
    if (!result.ok()) {
      std::fprintf(stderr, "replay %s: %s\n", engine, result.status().ToString().c_str());
      return false;
    }
    bench::BenchRun run;
    run.label = std::string("replay/") + engine;
    run.engine = engine;
    run.result = std::move(*result);
    run.stats = (*store)->stats();
    runs.push_back(std::move(run));
    Status closed = (*store)->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "close %s: %s\n", engine, closed.ToString().c_str());
      return false;
    }
  }
  for (auto& run : extra) {
    runs.push_back(std::move(run));
  }
  Status s = bench::EmitBenchJson(path, "micro_stores", runs);
  if (!s.ok()) {
    std::fprintf(stderr, "emit %s: %s\n", path.c_str(), s.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace gadget

int main(int argc, char** argv) {
  std::vector<unsigned> threads = gadget::ParseThreadsFlag(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  std::vector<gadget::bench::BenchRun> sweep_runs;
  if (!threads.empty() && !gadget::RunThreadSweep(threads, &sweep_runs)) {
    return 1;
  }
  if (const char* json = std::getenv("GADGET_BENCH_JSON"); json != nullptr && json[0] != '\0') {
    if (!gadget::RunColdReadLeg(&sweep_runs)) {
      return 1;
    }
    if (!gadget::RunWireLeg(&sweep_runs)) {
      return 1;
    }
    if (!gadget::EmitMicroJson(json, std::move(sweep_runs))) {
      return 1;
    }
  }
  return 0;
}
