// e2ebench_round: one measured round of one e2ebench workload.
//
//   e2ebench_round key=value ...
//
// A round is: build the access trace (BuildAccessTrace), open a fresh store
// (in-process: StoreOptionsFromConfig + OpenStore; wire: boot a `gadget
// serve` child and connect), replay the whole trace once (the timed part),
// then, in a verifying round, check the store's final contents against a
// MemStore oracle that replayed the same trace. The round prints one JSON
// object on stdout, latency histograms included; the orchestrator (run.py)
// runs rounds in fresh processes and pools them.
//
// Round keys (everything else is a harness key, see src/gadget/harness.h):
//   mode          inproc | wire                                   (inproc)
//   store_dir     round directory, created here and removed at exit
//   trace         1 = traced round: wrap the store in a timing decorator
//                 (in-process) or time each frame (wire), keep sampled spans
//                 in memory, and emit per-layer metrics                (0)
//   verify        1 = after the replay, compare every distinct key against
//                 the oracle and probe the host's memory latency      (0)
//   spans_out     traced rounds write their spans here at exit (JSON lines)
//   trace_id      identifies the round's spans
//   gadget        path of the `gadget` CLI (wire mode)
//
// The wire load's shape (client threads, frames in flight, ops per frame,
// server shards and IO threads) is fixed below and printed in the round's
// env record.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/config.h"
#include "src/common/file_util.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/harness.h"
#include "src/server/client.h"
#include "src/stores/kvstore.h"

extern char** environ;

namespace gadget {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The p-th percentile of a nanosecond histogram, in microseconds.
double UsAt(const LatencyHistogram& h, double p) {
  return static_cast<double>(h.Percentile(p)) / 1000.0;
}

// [[bucket lower bound in ns, count], ...] for every nonzero bucket, so that
// run.py can pool rounds and take percentiles the way Percentile does.
JsonValue BucketsJson(const LatencyHistogram& h) {
  JsonValue out = JsonValue::MakeArray();
  for (const auto& [index, count] : h.NonzeroBuckets()) {
    JsonValue bucket = JsonValue::MakeArray();
    bucket.Append(h.BucketLowerBound(index));
    bucket.Append(count);
    out.Append(std::move(bucket));
  }
  return out;
}

// The wire load's shape. A wire round runs the client and the server on one
// CPU (PinToCurrentCpu). Spread over a shared 4-vCPU KVM guest, the client,
// the reactor and the two shard workers woke each other across vCPUs, every
// wakeup waited on the hypervisor, and 10-20% steal cut throughput by half
// or more; on one CPU the same load saw under 1.5% steal. One client thread
// keeps the client's share of that CPU the same from round to round.
constexpr int kWireClients = 1;         // client threads, one connection each
constexpr size_t kWireWindow = 8;       // frames in flight per connection
constexpr size_t kWireFrameOps = 32;    // ops per frame; a frame also closes
                                        // when the trace switches between
                                        // reads and writes
constexpr int kServerShards = 2;
constexpr int kServerIoThreads = 1;

// Pins the calling thread, and every thread and process it starts from now
// on, to the CPU it is running on.
Status PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return Status::IoError(std::string("sched_getcpu: ") + std::strerror(errno));
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    return Status::IoError(std::string("sched_setaffinity: ") + std::strerror(errno));
  }
  return Status::Ok();
}

// The number of CPUs the calling thread may run on.
int AllowedCpus() {
  cpu_set_t allowed;
  return sched_getaffinity(0, sizeof(allowed), &allowed) == 0 ? CPU_COUNT(&allowed) : 0;
}

// --- /proc readers ----------------------------------------------------------

// The "<field>:" line of /proc/<pid>/status in kB (VmRSS, VmHWM), 0 if absent.
uint64_t ProcStatusField(const std::string& status_path, const std::string& field) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  return 0;
}

// Resets the process's peak-RSS watermark to its current RSS.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Whole-machine CPU time from /proc/stat: all jiffies and stolen jiffies.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  uint64_t v = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user/nice.
    if (i < 8) {
      t.total += v;
    }
    if (i == 7) {
      t.steal = v;
    }
  }
  return t;
}

double StealPct(const CpuTimes& a, const CpuTimes& b) {
  return 100.0 * Ratio(static_cast<double>(b.steal - a.steal),
                       static_cast<double>(b.total - a.total));
}

// utime + stime of a process, in microseconds.
double ProcCpuMicros(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) {
    return 0;
  }
  std::istringstream fields(text.substr(paren + 2));
  std::string tok;
  double ticks = 0;
  for (int i = 0; fields >> tok; ++i) {
    if (i == 11 || i == 12) {  // fields 14 (utime) and 15 (stime)
      ticks += std::stod(tok);
    }
  }
  return ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Voluntary + nonvoluntary context switches summed over a process's threads.
uint64_t ProcCtxSwitches(pid_t pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  auto tasks = ListDir(task_dir);
  if (!tasks.ok()) {
    return 0;
  }
  uint64_t total = 0;
  for (const std::string& tid : *tasks) {
    const std::string status = task_dir + "/" + tid + "/status";
    total += ProcStatusField(status, "voluntary_ctxt_switches") +
             ProcStatusField(status, "nonvoluntary_ctxt_switches");
  }
  return total;
}

// Host memory latency: nanoseconds per dependent load around a 16 MiB cycle
// in scattered order. Recorded with each run because this host's memory
// latency changes by 2x or more for minutes at a time, and every layer's
// timings move with it.
double MemLatencyNs() {
  constexpr uint32_t kEntries = 4u << 20;  // a power of two
  constexpr int kLoads = 2'000'000;
  // x -> (a*x + c) mod 2^22 with a = 1 mod 4 and c odd visits every entry
  // once (Hull-Dobell), so the chase is one cycle over the whole buffer.
  std::vector<uint32_t> next(kEntries);
  for (uint32_t i = 0; i < kEntries; ++i) {
    next[i] = (i * 0x9E3779B1u + 0x7F4A7C15u) & (kEntries - 1);
  }
  uint32_t p = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kLoads; ++i) {
    p = next[p];
  }
  const auto end = Clock::now();
  if (p >= kEntries) {  // never true; keeps the chase from being optimized out
    return 0;
  }
  return static_cast<double>(Nanos(start, end)) / kLoads;
}

// The type of the filesystem holding `path` (tmpfs, ext4, ...): the longest
// mount point in /proc/self/mounts that contains it.
std::string FilesystemOf(const std::string& path) {
  std::error_code ec;
  const std::string target = std::filesystem::canonical(path, ec).string();
  std::ifstream mounts("/proc/self/mounts");
  std::string device;
  std::string mount_point;
  std::string type;
  std::string rest;
  size_t best = 0;
  std::string best_type = "unknown";
  while (mounts >> device >> mount_point >> type && std::getline(mounts, rest)) {
    const bool contains = mount_point == "/" ||
                          (target.rfind(mount_point, 0) == 0 &&
                           (target.size() == mount_point.size() ||
                            target[mount_point.size()] == '/'));
    if (contains && mount_point.size() >= best) {
      best = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

// --- tracing ----------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t start_ns;  // relative to the round's origin
  uint64_t end_ns;
};

// Sampled spans of one round, kept in memory and written at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void Add(const char* name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, Nanos(origin_, start), Nanos(origin_, end)});
  }

  Status WriteTo(const std::string& path, const std::string& trace_id,
                 const Span& root) const {
    std::string out;
    auto append = [&](const Span& s, const char* parent) {
      JsonValue j = JsonValue::MakeObject();
      j.Set("trace_id", trace_id);
      j.Set("name", s.name);
      j.Set("parent", parent);
      j.Set("start_ns", s.start_ns);
      j.Set("end_ns", s.end_ns);
      out += j.Write() + "\n";
    };
    append(root, "");
    for (const Span& s : spans_) {
      append(s, root.name);
    }
    return WriteStringToFile(path, out);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Forwards every call to the opened store and times it: per-kind latency
// histograms, op and call counts, total time inside the store, and one span
// per kSpanEvery calls. Used only in traced rounds.
class TracingStore final : public KVStore {
 public:
  static constexpr uint64_t kSpanEvery = 256;

  TracingStore(KVStore* inner, SpanLog* spans) : inner_(inner), spans_(spans) {}

  using KVStore::Get;
  using KVStore::MultiGet;

  Status Put(std::string_view key, std::string_view value) override {
    return Timed(false, "Put", 1, [&] { return inner_->Put(key, value); });
  }
  Status Get(std::string_view key, std::string* value, const ReadOptions& options) override {
    return Timed(true, "Get", 1, [&] { return inner_->Get(key, value, options); });
  }
  Status Merge(std::string_view key, std::string_view operand) override {
    return Timed(false, "Merge", 1, [&] { return inner_->Merge(key, operand); });
  }
  Status Delete(std::string_view key) override {
    return Timed(false, "Delete", 1, [&] { return inner_->Delete(key); });
  }
  Status ReadModifyWrite(std::string_view key, std::string_view operand) override {
    return Timed(false, "ReadModifyWrite", 1,
                 [&] { return inner_->ReadModifyWrite(key, operand); });
  }
  Status Write(const WriteBatch& batch) override {
    return Timed(false, "Write", batch.size(), [&] { return inner_->Write(batch); });
  }
  Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses, const ReadOptions& options) override {
    return Timed(true, "MultiGet", keys.size(),
                 [&] { return inner_->MultiGet(keys, values, statuses, options); });
  }
  bool supports_merge() const override { return inner_->supports_merge(); }
  Status Flush() override { return inner_->Flush(); }
  Status Close() override { return inner_->Close(); }
  StoreStats stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }

  const LatencyHistogram& read_ns() const { return kinds_[1].ns; }
  const LatencyHistogram& write_ns() const { return kinds_[0].ns; }
  double ops_per_call(bool read) const {
    const Kind& k = kinds_[read ? 1 : 0];
    return Ratio(static_cast<double>(k.ops), static_cast<double>(k.calls));
  }
  uint64_t total_ns() const { return kinds_[0].total_ns + kinds_[1].total_ns; }

 private:
  struct Kind {
    LatencyHistogram ns;
    uint64_t calls = 0;
    uint64_t ops = 0;
    uint64_t total_ns = 0;
  };

  template <typename Fn>
  Status Timed(bool read, const char* name, uint64_t ops, Fn&& fn) {
    const auto start = Clock::now();
    Status s = fn();
    const auto end = Clock::now();
    const uint64_t ns = Nanos(start, end);
    Kind& k = kinds_[read ? 1 : 0];
    k.ns.Record(ns);
    ++k.calls;
    k.ops += ops;
    k.total_ns += ns;
    if (++seq_ % kSpanEvery == 0) {
      spans_->Add(name, start, end);
    }
    return s;
  }

  KVStore* const inner_;
  SpanLog* const spans_;
  Kind kinds_[2];  // [0] writes, [1] reads
  uint64_t seq_ = 0;
};

// --- round result -----------------------------------------------------------

struct Round {
  uint64_t attempted = 0;   // ops issued (in-process: replayed; wire: sent)
  uint64_t failed = 0;      // ops that failed or were never acked
  uint64_t verified = 0;    // distinct keys compared against the oracle
  uint64_t mismatched = 0;  // keys whose value disagrees with the oracle
  uint64_t ops = 0;         // ops completed in the timed replay
  double replay_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double steal_pct = 0;
  LatencyHistogram read_ns;   // per read call / read frame
  LatencyHistogram write_ns;  // per write call / write frame
  JsonValue layers = JsonValue::MakeObject();
  JsonValue env = JsonValue::MakeObject();
};

JsonValue RoundJson(const Round& r, bool traced) {
  JsonValue m = JsonValue::MakeObject();
  m.Set("throughput_kops", Ratio(static_cast<double>(r.ops), r.replay_s) / 1000.0);
  m.Set("read_p50_us", UsAt(r.read_ns, 50));
  m.Set("write_p50_us", UsAt(r.write_ns, 50));
  m.Set("read_p99_us", UsAt(r.read_ns, 99));
  m.Set("write_p99_us", UsAt(r.write_ns, 99));
  m.Set("setup_s", r.setup_s);
  m.Set("peak_rss_mb", r.peak_rss_mb);
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("ok", true);
  doc.Set("attempted", r.attempted);
  doc.Set("failed", r.failed);
  doc.Set("verified", r.verified);
  doc.Set("mismatched", r.mismatched);
  doc.Set("ops", r.ops);
  doc.Set("replay_s", r.replay_s);
  doc.Set("read_samples", r.read_ns.count());
  doc.Set("write_samples", r.write_ns.count());
  doc.Set("read_buckets", BucketsJson(r.read_ns));
  doc.Set("write_buckets", BucketsJson(r.write_ns));
  doc.Set("steal_pct", r.steal_pct);
  doc.Set("metrics", std::move(m));
  doc.Set("env", r.env);
  if (traced) {
    doc.Set("layers", r.layers);
  }
  return doc;
}

// Per-layer metrics read from a store's StoreStats delta over the replay.
void StoreLayers(const std::string& engine, const StoreStats& d, uint64_t ops, JsonValue* out) {
  const bool lsm = engine == "lsm";
  const bool btree = engine == "btree";
  const double writes = static_cast<double>(d.puts + d.merges + d.deletes + d.rmws);
  const double write_amp =
      Ratio(static_cast<double>(d.io_bytes_written), static_cast<double>(d.bytes_written));
  out->Set("lsm.flushes", lsm ? d.flushes : 0);
  out->Set("lsm.compactions", lsm ? d.compactions : 0);
  out->Set("lsm.flush_s", lsm ? static_cast<double>(d.flush_micros) / 1e6 : 0.0);
  out->Set("lsm.compaction_s", lsm ? static_cast<double>(d.compaction_micros) / 1e6 : 0.0);
  out->Set("lsm.stall_s",
           lsm ? static_cast<double>(d.stall_micros + d.slowdown_micros) / 1e6 : 0.0);
  out->Set("lsm.write_amp", lsm ? write_amp : 0.0);
  out->Set("lsm.wal_bytes_per_op",
           lsm ? Ratio(static_cast<double>(d.wal_bytes), static_cast<double>(ops)) : 0.0);
  const double lookups = static_cast<double>(d.cache_hits + d.cache_misses);
  out->Set("pool.hit_rate", Ratio(static_cast<double>(d.cache_hits), lookups));
  out->Set("pool.misses_per_get",
           Ratio(static_cast<double>(d.cache_misses), static_cast<double>(d.gets)));
  out->Set("pool.evictions", d.cache_evictions);
  out->Set("pool.io_batches", d.io_batches);
  out->Set("pool.io_in_flight_max", d.io_in_flight_max);
  out->Set("btree.writeback_pages_per_write",
           btree ? Ratio(static_cast<double>(d.flushes), writes) : 0.0);
  out->Set("btree.write_amp", btree ? write_amp : 0.0);
}

// Distinct keys of the trace, encoded as the store sees them, in key order
// so the check reads each store block once.
std::vector<std::string> DistinctKeys(const std::vector<StateAccess>& trace) {
  std::unordered_set<std::string> seen;
  std::string key;
  for (const StateAccess& a : trace) {
    EncodeStateKeyTo(a.key, &key);
    seen.insert(key);
  }
  std::vector<std::string> keys(seen.begin(), seen.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The reference contents: the trace replayed op at a time into a MemStore.
StatusOr<std::unique_ptr<KVStore>> OpenOracle(const std::vector<StateAccess>& trace) {
  StoreOptions opts;
  opts.engine = "mem";
  auto oracle = OpenStore(opts);
  if (!oracle.ok()) {
    return oracle.status();
  }
  auto replay = ReplayTrace(trace, oracle->get());
  if (!replay.ok()) {
    return replay.status();
  }
  return oracle;
}

bool SameValue(const Status& want_status, const std::string& want, const Status& got_status,
               const std::string& got) {
  return want_status.IsNotFound() ? got_status.IsNotFound() : (got_status.ok() && got == want);
}

// The round's trace, timed as the trace-generation layer.
StatusOr<std::vector<StateAccess>> BuildTrace(const Config& config, Round* round) {
  const auto t0 = Clock::now();
  auto trace = BuildAccessTrace(config);
  if (!trace.ok()) {
    return trace.status();
  }
  round->layers.Set("gen.s", Seconds(t0, Clock::now()));
  round->layers.Set("gen.ops_per_event",
                    Ratio(static_cast<double>(trace->size()),
                          static_cast<double>(config.GetUint("events", 100'000))));
  return trace;
}

// --- in-process round ---------------------------------------------------------

Status RunInProcess(const Config& config, Clock::time_point origin, Round* round) {
  auto built = BuildTrace(config, round);
  if (!built.ok()) {
    return built.status();
  }
  const std::vector<StateAccess>& trace = *built;
  // The peak is taken above the resident size once the trace is built, so
  // the trace does not hide the store.
  ResetPeakRss();
  const uint64_t rss_base_kb = ProcStatusField("/proc/self/status", "VmRSS");

  const std::string dir = config.GetString("store_dir") + "/db";
  const StoreOptions sopts = StoreOptionsFromConfig(config, dir);
  auto store = OpenStore(sopts);
  if (!store.ok()) {
    return store.status();
  }
  const bool traced = config.GetBool("trace");
  SpanLog spans(origin);
  TracingStore tracer(store->get(), &spans);
  KVStore* target = traced ? static_cast<KVStore*>(&tracer) : store->get();
  ReplayOptions ropts;
  ropts.batch_size = sopts.batch_size;
  const StoreStats before = (*store)->stats();
  const CpuTimes cpu0 = ReadCpuTimes();
  const auto replay_start = Clock::now();
  round->setup_s = Seconds(origin, replay_start);
  auto result = ReplayTrace(trace, target, ropts);
  const auto replay_end = Clock::now();
  if (!result.ok()) {
    return result.status();
  }
  const CpuTimes cpu1 = ReadCpuTimes();
  const StoreStats delta = (*store)->stats().DeltaSince(before);
  const uint64_t hwm_kb = ProcStatusField("/proc/self/status", "VmHWM");
  round->peak_rss_mb = static_cast<double>(hwm_kb - std::min(hwm_kb, rss_base_kb)) / 1024.0;
  round->attempted = trace.size();
  round->ops = result->ops;
  round->failed = trace.size() - result->ops;
  round->replay_s = result->elapsed_seconds;
  round->read_ns = result->read_latency_ns;
  round->write_ns = result->write_latency_ns;
  round->steal_pct = StealPct(cpu0, cpu1);
  round->env.Set("store_fs", FilesystemOf(dir));
  round->env.Set("cpus", AllowedCpus());
  round->env.Set("client_threads", 1);  // the replay thread
  round->env.Set("server_shards", 0);
  round->env.Set("server_io_threads", 0);

  JsonValue& L = round->layers;
  if (traced) {
    // The evaluator's self time: the replay span minus the store calls in it.
    L.Set("evaluator.self_ns_per_op",
          Ratio(static_cast<double>(Nanos(replay_start, replay_end) - tracer.total_ns()),
                static_cast<double>(result->ops)));
    L.Set("evaluator.ops_per_read_call", tracer.ops_per_call(true));
    L.Set("evaluator.ops_per_write_call", tracer.ops_per_call(false));
    L.Set("store.read_mean_us", tracer.read_ns().mean() / 1000.0);
    L.Set("store.read_p99_us", UsAt(tracer.read_ns(), 99));
    L.Set("store.write_mean_us", tracer.write_ns().mean() / 1000.0);
    L.Set("store.write_p99_us", UsAt(tracer.write_ns(), 99));
  }
  StoreLayers(sopts.engine, delta, result->ops, &L);

  // Output check, outside the timed region: every distinct key against the
  // oracle, read from the engine itself rather than through the tracer.
  if (config.GetBool("verify")) {
    auto oracle = OpenOracle(trace);
    if (!oracle.ok()) {
      return oracle.status();
    }
    std::string want;
    std::string got;
    for (const std::string& k : DistinctKeys(trace)) {
      const Status sw = (*oracle)->Get(k, &want);
      const Status sg = (*store)->Get(k, &got);
      if (!sw.ok() && !sw.IsNotFound()) {
        return sw;
      }
      ++round->verified;
      if (!SameValue(sw, want, sg, got)) {
        ++round->mismatched;
      }
    }
  }
  GADGET_RETURN_IF_ERROR((*store)->Close());
  if (traced && config.Has("spans_out")) {
    const Span root{"replay", Nanos(origin, replay_start), Nanos(origin, replay_end)};
    GADGET_RETURN_IF_ERROR(
        spans.WriteTo(config.GetString("spans_out"), config.GetString("trace_id"), root));
  }
  return Status::Ok();
}

// --- wire round ---------------------------------------------------------------

// A `gadget serve` child process; stopped (SIGTERM, then waited for) on
// destruction.
class ServerProcess {
 public:
  static StatusOr<std::unique_ptr<ServerProcess>> Spawn(const std::vector<std::string>& argv,
                                                        const std::string& log_path) {
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      return Status::IoError("cannot spawn " + argv[0] + ": " + std::strerror(rc));
    }
    return std::unique_ptr<ServerProcess>(new ServerProcess(pid));
  }

  ~ServerProcess() { static_cast<void>(Stop()); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  bool Exited() {
    if (pid_ <= 0) {
      return true;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  // SIGTERM and wait; Ok only on a clean exit.
  Status Stop() {
    if (pid_ <= 0) {
      return Status::Ok();
    }
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::IoError("gadget serve did not exit cleanly");
    }
    return Status::Ok();
  }

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  pid_t pid_;
};

// The server's /proc and STATS counters at one instant.
struct ServerSnapshot {
  double cpu_us = 0;
  uint64_t ctx_switches = 0;
  JsonValue stats;

  static StatusOr<ServerSnapshot> Take(ServerProcess* server, wire::Client* client) {
    ServerSnapshot s;
    s.cpu_us = ProcCpuMicros(server->pid());
    s.ctx_switches = ProcCtxSwitches(server->pid());
    auto json = client->StatsJson();
    if (!json.ok()) {
      return json.status();
    }
    auto parsed = ParseJson(*json);
    if (!parsed.ok()) {
      return parsed.status();
    }
    s.stats = std::move(*parsed);
    return s;
  }

  uint64_t Net(const char* field) const {
    const JsonValue* net = stats.Get("net");
    return net == nullptr ? 0 : net->GetUint(field);
  }
};

StoreStats StatsFromJson(const JsonValue* j) {
  StoreStats s;
  if (j == nullptr) {
    return s;
  }
  s.gets = j->GetUint("gets");
  s.puts = j->GetUint("puts");
  s.merges = j->GetUint("merges");
  s.deletes = j->GetUint("deletes");
  s.rmws = j->GetUint("rmws");
  s.bytes_written = j->GetUint("bytes_written");
  s.io_bytes_written = j->GetUint("io_bytes_written");
  s.flushes = j->GetUint("flushes");
  s.compactions = j->GetUint("compactions");
  s.cache_hits = j->GetUint("cache_hits");
  s.cache_misses = j->GetUint("cache_misses");
  s.wal_bytes = j->GetUint("wal_bytes");
  s.flush_micros = j->GetUint("flush_micros");
  s.stall_micros = j->GetUint("stall_micros");
  s.slowdown_micros = j->GetUint("slowdown_micros");
  s.compaction_micros = j->GetUint("compaction_micros");
  s.cache_evictions = j->GetUint("cache_evictions");
  s.io_batches = j->GetUint("io_batches");
  s.io_in_flight_max = j->GetUint("io_in_flight_max");
  return s;
}

// One client thread: a closed loop over its key partition of the trace with
// up to kWireWindow frames in flight on its own connection.
struct ClientThread {
  uint64_t sent = 0;
  uint64_t acked = 0;
  uint64_t errors = 0;
  uint64_t frames = 0;
  double window_wait_s = 0;
  LatencyHistogram read_ns;
  LatencyHistogram write_ns;
  std::vector<Span> spans;
  Status status;
};

void RunClientThread(const std::vector<StateAccess>& trace, int index, bool traced,
                     Clock::time_point origin, wire::Client::Lease lease, ClientThread* st) {
  struct Frame {
    uint32_t id;
    uint64_t ops;
    bool read;
    Clock::time_point sent_at;
  };
  net::FramedConn* conn = lease.conn();
  std::vector<Frame> window;
  WriteBatch batch;
  std::vector<std::string> gets;
  std::string key;
  std::string value_buf;
  std::string frame;
  wire::Response resp;

  auto drain_one = [&]() -> Status {
    GADGET_RETURN_IF_ERROR(conn->RecvResponse(&resp));
    auto it = std::find_if(window.begin(), window.end(),
                           [&](const Frame& f) { return f.id == resp.id; });
    if (it == window.end()) {
      return Status::IoError("unmatched response id " + std::to_string(resp.id));
    }
    const Frame f = *it;
    window.erase(it);
    const auto now = Clock::now();
    const bool ok = f.read ? resp.type == wire::MsgType::kMulti : resp.type == wire::MsgType::kOk;
    if (!ok) {
      st->errors += f.ops;
      return Status::Ok();
    }
    (f.read ? st->read_ns : st->write_ns).Record(Nanos(f.sent_at, now));
    st->acked += f.ops;
    if (traced && st->frames % 64 == 0) {
      st->spans.push_back(Span{f.read ? "MultiGet" : "WriteBatch", Nanos(origin, f.sent_at),
                               Nanos(origin, now)});
    }
    ++st->frames;
    return Status::Ok();
  };
  // Sends the encoded `frame`, first waiting for a response while the window
  // is full.
  auto send = [&](uint32_t id, bool read, uint64_t ops) -> Status {
    if (window.size() >= kWireWindow) {
      const auto wait_start = Clock::now();
      while (window.size() >= kWireWindow) {
        GADGET_RETURN_IF_ERROR(drain_one());
      }
      st->window_wait_s += Seconds(wait_start, Clock::now());
    }
    window.push_back(Frame{id, ops, read, Clock::now()});
    GADGET_RETURN_IF_ERROR(conn->Send(frame));
    st->sent += ops;
    return Status::Ok();
  };
  auto flush_gets = [&]() -> Status {
    if (gets.empty()) {
      return Status::Ok();
    }
    const uint32_t id = lease.NextId();
    frame.clear();
    wire::AppendMultiGetRequest(&frame, id, gets);
    const uint64_t n = gets.size();
    gets.clear();
    return send(id, /*read=*/true, n);
  };
  auto flush_writes = [&]() -> Status {
    if (batch.empty()) {
      return Status::Ok();
    }
    const uint32_t id = lease.NextId();
    frame.clear();
    wire::AppendWriteBatchRequest(&frame, id, batch);
    const uint64_t n = batch.size();
    batch.Clear();
    return send(id, /*read=*/false, n);
  };

  // A frame closes when the trace switches between reads and writes, or at
  // kWireFrameOps ops.
  auto run = [&]() -> Status {
    for (const StateAccess& a : trace) {
      EncodeStateKeyTo(a.key, &key);
      // Key-hash partition: each key belongs to one connection, so its
      // trace order survives the fan-out.
      if (Hash64(key) % kWireClients != static_cast<uint64_t>(index)) {
        continue;
      }
      if (a.op == OpType::kGet) {
        GADGET_RETURN_IF_ERROR(flush_writes());
        gets.push_back(key);
        if (gets.size() >= kWireFrameOps) {
          GADGET_RETURN_IF_ERROR(flush_gets());
        }
        continue;
      }
      GADGET_RETURN_IF_ERROR(flush_gets());
      if (a.value_size > value_buf.size()) {
        value_buf.resize(a.value_size, 'v');  // the evaluator's synthetic values
      }
      const std::string_view value(value_buf.data(), a.value_size);
      if (a.op == OpType::kPut) {
        batch.Put(key, value);
      } else if (a.op == OpType::kMerge) {
        batch.Merge(key, value);
      } else {
        batch.Delete(key);
      }
      if (batch.size() >= kWireFrameOps) {
        GADGET_RETURN_IF_ERROR(flush_writes());
      }
    }
    GADGET_RETURN_IF_ERROR(flush_writes());
    GADGET_RETURN_IF_ERROR(flush_gets());
    while (!window.empty()) {
      GADGET_RETURN_IF_ERROR(drain_one());
    }
    return Status::Ok();
  };
  st->status = run();
}

Status RunWire(const Config& config, Clock::time_point origin, Round* round) {
  GADGET_RETURN_IF_ERROR(PinToCurrentCpu());
  auto built = BuildTrace(config, round);
  if (!built.ok()) {
    return built.status();
  }
  const std::vector<StateAccess>& trace = *built;
  const std::string root = config.GetString("store_dir");
  const std::string engine = config.GetString("store", "lsm");
  const std::vector<std::string> argv = {config.GetString("gadget"), "serve", "-",
                                         "store=" + engine,
                                         "store_dir=" + root + "/db",
                                         "port_file=" + root + "/port",
                                         "shards=" + std::to_string(kServerShards),
                                         "io_threads=" + std::to_string(kServerIoThreads)};
  auto server = ServerProcess::Spawn(argv, root + "/serve.log");
  if (!server.ok()) {
    return server.status();
  }
  std::string port_text;
  const auto boot_deadline = Clock::now() + std::chrono::seconds(30);
  while (!ReadFileToString(root + "/port", &port_text).ok() || port_text.empty() ||
         port_text.back() != '\n') {
    if ((*server)->Exited() || Clock::now() > boot_deadline) {
      return Status::IoError("gadget serve did not start; see its log");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto port = static_cast<uint16_t>(std::stoul(port_text));
  auto client = wire::Client::Connect(port, kWireClients, /*connect_budget_ms=*/5000);
  if (!client.ok()) {
    return client.status();
  }
  GADGET_RETURN_IF_ERROR((*client)->Ping());
  auto before = ServerSnapshot::Take(server->get(), client->get());
  if (!before.ok()) {
    return before.status();
  }

  const bool traced = config.GetBool("trace");
  std::vector<ClientThread> states(kWireClients);
  const CpuTimes cpu0 = ReadCpuTimes();
  const auto replay_start = Clock::now();
  round->setup_s = Seconds(origin, replay_start);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kWireClients; ++t) {
      threads.emplace_back([&, t, lease = (*client)->AcquireLease()]() mutable {
        RunClientThread(trace, t, traced, origin, std::move(lease),
                        &states[static_cast<size_t>(t)]);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  }
  const auto replay_end = Clock::now();
  const CpuTimes cpu1 = ReadCpuTimes();
  auto after = ServerSnapshot::Take(server->get(), client->get());
  if (!after.ok()) {
    return after.status();
  }
  const std::string server_status = "/proc/" + std::to_string((*server)->pid()) + "/status";
  round->peak_rss_mb = static_cast<double>(ProcStatusField(server_status, "VmHWM")) / 1024.0;

  ClientThread total;
  for (ClientThread& st : states) {
    GADGET_RETURN_IF_ERROR(st.status);
    total.sent += st.sent;
    total.acked += st.acked;
    total.errors += st.errors;
    total.frames += st.frames;
    total.window_wait_s += st.window_wait_s;
    total.read_ns.Merge(st.read_ns);
    total.write_ns.Merge(st.write_ns);
  }
  round->attempted = trace.size();
  round->ops = total.acked;
  round->failed = trace.size() - total.acked;
  round->replay_s = Seconds(replay_start, replay_end);
  round->read_ns = total.read_ns;
  round->write_ns = total.write_ns;
  round->steal_pct = StealPct(cpu0, cpu1);
  round->env.Set("store_fs", FilesystemOf(root));
  round->env.Set("cpus", AllowedCpus());
  round->env.Set("client_threads", kWireClients);
  round->env.Set("wire_window", kWireWindow);
  round->env.Set("wire_frame_ops", kWireFrameOps);
  round->env.Set("server_shards", kServerShards);
  round->env.Set("server_io_threads", kServerIoThreads);

  JsonValue& L = round->layers;
  const double acked = static_cast<double>(total.acked);
  StoreLayers(engine,
              StatsFromJson(after->stats.Get("merged"))
                  .DeltaSince(StatsFromJson(before->stats.Get("merged"))),
              total.acked, &L);
  L.Set("server.cpu_us_per_op", Ratio(after->cpu_us - before->cpu_us, acked));
  L.Set("server.ctx_switches_per_op",
        Ratio(static_cast<double>(after->ctx_switches - before->ctx_switches), acked));
  L.Set("server.frames_per_writev",
        Ratio(static_cast<double>(total.frames),
              static_cast<double>(after->Net("writev_calls") - before->Net("writev_calls"))));
  L.Set("server.outq_stall_s", static_cast<double>(after->Net("output_queue_stall_micros") -
                                                   before->Net("output_queue_stall_micros")) /
                                   1e6);
  // Shard skew: the busiest shard's ops over the mean.
  const JsonValue* per_before = before->stats.Get("per_shard");
  const JsonValue* per_after = after->stats.Get("per_shard");
  double max_ops = 0;
  double sum_ops = 0;
  if (per_before != nullptr && per_after != nullptr &&
      per_before->size() == per_after->size()) {
    for (size_t i = 0; i < per_after->size(); ++i) {
      const StoreStats d =
          StatsFromJson(&per_after->items()[i]).DeltaSince(StatsFromJson(&per_before->items()[i]));
      const double n = static_cast<double>(d.gets + d.puts + d.merges + d.deletes + d.rmws);
      max_ops = std::max(max_ops, n);
      sum_ops += n;
    }
    L.Set("server.shard_skew",
          Ratio(max_ops, sum_ops / static_cast<double>(per_after->size())));
  }
  LatencyHistogram frames_ns = total.read_ns;
  frames_ns.Merge(total.write_ns);
  L.Set("client.ops_per_frame", Ratio(acked, static_cast<double>(total.frames)));
  L.Set("client.frame_p50_us", UsAt(frames_ns, 50));
  L.Set("client.frame_p99_us", UsAt(frames_ns, 99));
  L.Set("client.window_wait_s", total.window_wait_s);

  // Output check: read every distinct key back over the wire.
  if (config.GetBool("verify")) {
    auto oracle = OpenOracle(trace);
    if (!oracle.ok()) {
      return oracle.status();
    }
    const std::vector<std::string> keys = DistinctKeys(trace);
    constexpr size_t kChunk = 256;
    std::vector<std::string> chunk;
    std::vector<std::string> values;
    std::vector<Status> statuses;
    std::string want;
    for (size_t i = 0; i < keys.size(); i += kChunk) {
      chunk.assign(keys.begin() + static_cast<ptrdiff_t>(i),
                   keys.begin() + static_cast<ptrdiff_t>(std::min(keys.size(), i + kChunk)));
      GADGET_RETURN_IF_ERROR((*client)->MultiGet(chunk, &values, &statuses));
      for (size_t j = 0; j < chunk.size(); ++j) {
        const Status sw = (*oracle)->Get(chunk[j], &want);
        ++round->verified;
        if (!SameValue(sw, want, statuses[j], values[j])) {
          ++round->mismatched;
        }
      }
    }
  }
  client->reset();
  GADGET_RETURN_IF_ERROR((*server)->Stop());

  if (traced && config.Has("spans_out")) {
    SpanLog spans(origin);
    for (const ClientThread& st : states) {
      for (const Span& s : st.spans) {
        spans.Add(s.name, origin + std::chrono::nanoseconds(s.start_ns),
                  origin + std::chrono::nanoseconds(s.end_ns));
      }
    }
    const Span root_span{"replay", Nanos(origin, replay_start), Nanos(origin, replay_end)};
    GADGET_RETURN_IF_ERROR(spans.WriteTo(config.GetString("spans_out"),
                                         config.GetString("trace_id"), root_span));
  }
  return Status::Ok();
}

}  // namespace
}  // namespace gadget

int main(int argc, char** argv) {
  const auto origin = gadget::Clock::now();
  gadget::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "argument must be key=value: %s\n", arg.c_str());
      return 2;
    }
    config.Set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  const std::string root = config.GetString("store_dir");
  if (root.empty()) {
    std::fprintf(stderr, "store_dir=DIR is required\n");
    return 2;
  }
  gadget::Status status = gadget::CreateDirIfMissing(root);
  gadget::Round round;
  if (status.ok()) {
    status = config.GetString("mode", "inproc") == "wire"
                 ? gadget::RunWire(config, origin, &round)
                 : gadget::RunInProcess(config, origin, &round);
  }
  const gadget::Status removed = gadget::RemoveDirRecursively(root);
  if (status.ok()) {
    status = removed;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (config.GetBool("verify")) {
    round.env.Set("mem_latency_ns", gadget::MemLatencyNs());
  }
  std::cout << gadget::RoundJson(round, config.GetBool("trace")).Write() << std::endl;
  return 0;
}
