#include "src/gadget/harness.h"

#include <chrono>
#include <iomanip>
#include <memory>
#include <unordered_set>

#include "src/analysis/cache_model.h"
#include "src/analysis/metrics.h"
#include "src/common/file_util.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/event_generator.h"
#include "src/gadget/report.h"
#include "src/gadget/workload.h"
#include "src/streams/trace_io.h"
#include "src/ycsb/ycsb.h"

namespace gadget {
namespace {

OperatorConfig OperatorConfigFrom(const Config& config) {
  OperatorConfig cfg;
  cfg.window_length_ms = config.GetUint("window_length_ms", cfg.window_length_ms);
  cfg.window_slide_ms = config.GetUint("window_slide_ms", cfg.window_slide_ms);
  cfg.session_gap_ms = config.GetUint("session_gap_ms", cfg.session_gap_ms);
  cfg.join_lower_ms = config.GetUint("join_lower_ms", cfg.join_lower_ms);
  cfg.join_upper_ms = config.GetUint("join_upper_ms", cfg.join_upper_ms);
  cfg.allowed_lateness_ms = config.GetUint("allowed_lateness_ms", cfg.allowed_lateness_ms);
  return cfg;
}

StatusOr<std::unique_ptr<EventSource>> SourceFrom(const Config& config,
                                                  const std::string& op) {
  const std::string source = config.GetString("source", "synthetic");
  const uint64_t events = config.GetUint("events", 100'000);
  const uint64_t seed = config.GetUint("seed", 42);
  const uint64_t wm = config.GetUint("watermark_every", 100);
  if (source.rfind("trace:", 0) == 0) {
    return MakeTraceFileSource(source.substr(6), wm);
  }
  if (source == "synthetic") {
    EventGeneratorOptions gen;
    gen.num_events = events;
    gen.seed = seed;
    gen.num_keys = config.GetUint("keys", 1'000);
    gen.key_distribution = config.GetString("key_distribution", "zipfian");
    gen.arrival_process = config.GetString("arrival", "poisson");
    gen.rate_per_sec = config.GetDouble("rate", 1'000.0);
    gen.value_size = static_cast<uint32_t>(config.GetUint("value_size", 64));
    gen.watermark_every = wm;
    gen.out_of_order_fraction = config.GetDouble("out_of_order", 0.0);
    gen.max_lateness_ms = config.GetUint("max_lateness_ms", 0);
    gen.num_streams = op.rfind("join", 0) == 0 ? 2 : 1;
    return MakeEventGenerator(gen);
  }
  auto dataset = MakeDataset(source, events, seed);
  if (!dataset.ok()) {
    return dataset.status();
  }
  return MakeReplaySource(std::move(*dataset), wm);
}

void PrintAnalysis(const std::vector<StateAccess>& trace, std::ostream& out) {
  OpComposition c = ComputeComposition(trace);
  out << "composition: get=" << c.get << " put=" << c.put << " merge=" << c.merge
      << " delete=" << c.del << " (" << c.total << " ops)\n";
  auto stack = ComputeStackDistances(trace);
  out << "temporal locality: mean stack distance " << stack.Mean() << " ("
      << stack.cold_misses << " cold)\n";
  auto seqs = CountUniqueSequences(trace, 8);
  out << "spatial locality: unique sequences l=2:" << seqs[1] << " l=4:" << seqs[3]
      << " l=8:" << seqs[7] << "\n";
  auto ttls = ComputeKeyTtls(trace);
  out << "ttl timesteps: p50=" << PercentileOf(ttls, 50) << " p90=" << PercentileOf(ttls, 90)
      << " p99.9=" << PercentileOf(ttls, 99.9) << "\n";
  auto timeline = ComputeWorkingSetTimeline(trace, 100);
  uint64_t max_ws = 0;
  for (const auto& p : timeline) {
    max_ws = std::max(max_ws, p.active_keys);
  }
  out << "working set: max " << max_ws << " active keys\n";
  uint64_t cache = RecommendCacheSize(trace, 0.1);
  out << "cache sizing: >= " << cache << " entries for <=10% LRU miss ratio\n";
  PrefetchResult prefetch = SimulatePrefetch(trace);
  out << "prefetchability: " << std::fixed << std::setprecision(3) << prefetch.hit_fraction()
      << " of accesses predictable from the previous key\n";
}

StoreOptions StoreOptionsFrom(const Config& config, std::string dir) {
  StoreOptions opts;
  opts.engine = config.GetString("store", "lsm");
  opts.dir = std::move(dir);
  // Shared buffer pool sizing (LSM/Lethe blocks + btree pages); 0 keeps the
  // BufferPoolOptions default.
  if (const uint64_t pool_bytes = config.GetUint("buffer_pool_bytes", 0); pool_bytes != 0) {
    opts.buffer_pool.capacity_bytes = pool_bytes;
  }
  opts.buffer_pool.shards =
      static_cast<uint32_t>(config.GetUint("buffer_pool_shards", opts.buffer_pool.shards));
  opts.log_memory_bytes = config.GetUint("store_log_memory_bytes", 0);
  opts.mem_stripes = config.GetUint("store_stripes", 0);
  opts.sync_writes = config.GetBool("sync_writes");
  opts.batch_size = std::max<uint64_t>(config.GetUint("batch_size", 1), 1);
  return opts;
}

ReadOptions ReadOptionsFrom(const Config& config) {
  ReadOptions ropts;
  ropts.fill_cache = config.GetBool("fill_cache", true);
  ropts.verify_checksums = config.GetBool("verify_checksums", true);
  return ropts;
}

// Writes the gadget.report/1 document when the config asks for one
// (report=<path>, the CLI's --report flag). No-op otherwise.
Status MaybeWriteReport(const Config& config, const ReplayResult& result,
                        const StoreStats& stats, const RecoveryResult* recovery,
                        std::ostream& out) {
  const std::string path = config.GetString("report");
  if (path.empty()) {
    return Status::Ok();
  }
  ReportMeta meta;
  meta.engine = config.GetString("store", "lsm");
  meta.git = GitDescribe();
  meta.timestamp = CurrentTimestamp();
  meta.batch_size = std::max<uint64_t>(config.GetUint("batch_size", 1), 1);
  meta.config = config.values();
  GADGET_RETURN_IF_ERROR(WriteReportJson(path, meta, result, stats, recovery));
  out << "report written to " << path << "\n";
  return Status::Ok();
}

// The crash/restore leg of a checkpointed replay. The latest checkpoint IS
// the crash image: a point-in-time copy of the store directory (WAL tail
// included for the LSM engines), exactly what a kill at that instant leaves
// behind — so RestoreStore exercises the full recovery path, checkpoint +
// WAL-tail replay. The restored store then replays the trace gap
// [trace_pos, limit) and every distinct trace key is compared against an
// in-memory oracle that replayed the whole trace crash-free.
StatusOr<RecoveryResult> RunRecovery(const std::vector<StateAccess>& trace,
                                     const ReplayOptions& ropts, const StoreOptions& sopts,
                                     const std::vector<CheckpointSample>& checkpoints) {
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
  };
  const CheckpointSample& last = checkpoints.back();
  RecoveryResult rec;
  rec.checkpoint_index = last.index;
  rec.checkpoint_trace_pos = last.trace_pos;

  StoreOptions restore_opts = sopts;
  restore_opts.dir = ropts.checkpoint_dir + "/restore";
  // A crash leaves no warm cache behind: restore with a cold private pool
  // rather than whatever the crashed replay had resident.
  restore_opts.shared_pool = nullptr;
  auto t0 = Clock::now();
  auto restored = RestoreStore(restore_opts, last.dir);
  if (!restored.ok()) {
    return restored.status();
  }
  rec.restore_micros = micros(t0, Clock::now());

  const uint64_t limit =
      ropts.max_ops == 0 ? trace.size() : std::min<uint64_t>(ropts.max_ops, trace.size());
  std::vector<StateAccess> gap(trace.begin() + static_cast<ptrdiff_t>(last.trace_pos),
                               trace.begin() + static_cast<ptrdiff_t>(limit));
  ReplayOptions gap_opts;
  gap_opts.batch_size = ropts.batch_size;
  auto t1 = Clock::now();
  auto gap_result = ReplayTrace(gap, restored->get(), gap_opts);
  if (!gap_result.ok()) {
    return gap_result.status();
  }
  rec.replay_gap_ops = gap_result->ops;
  rec.replay_gap_micros = micros(t1, Clock::now());

  // Oracle: the whole trace replayed crash-free into a MemStore. All engines
  // produce identical Get results for the replayer's deterministic values
  // (merge == operand append everywhere), so a key-by-key comparison proves
  // restore + gap replay converged to the crash-free state.
  StoreOptions oracle_opts;
  oracle_opts.engine = "mem";
  auto oracle = OpenStore(oracle_opts);
  if (!oracle.ok()) {
    return oracle.status();
  }
  ReplayOptions oracle_replay;
  oracle_replay.max_ops = ropts.max_ops;
  auto oracle_result = ReplayTrace(trace, oracle->get(), oracle_replay);
  if (!oracle_result.ok()) {
    return oracle_result.status();
  }
  std::unordered_set<std::string> keys;
  std::string key;
  for (uint64_t i = 0; i < limit; ++i) {
    EncodeStateKeyTo(trace[i].key, &key);
    keys.insert(key);
  }
  std::string expect;
  std::string got;
  for (const std::string& k : keys) {
    Status se = (*oracle)->Get(k, &expect);
    if (!se.ok() && !se.IsNotFound()) {
      return se;
    }
    Status sg = (*restored)->Get(k, &got);
    if (!sg.ok() && !sg.IsNotFound()) {
      return sg;
    }
    ++rec.verified_keys;
    const bool match = se.IsNotFound() ? sg.IsNotFound() : (sg.ok() && got == expect);
    if (!match) {
      ++rec.mismatched_keys;
    }
  }
  GADGET_RETURN_IF_ERROR((*oracle)->Close());
  GADGET_RETURN_IF_ERROR((*restored)->Close());
  return rec;
}

Status Evaluate(const std::vector<StateAccess>& trace, const Config& config,
                std::ostream& out) {
  const std::string engine = config.GetString("store", "lsm");
  std::string dir = config.GetString("store_dir");
  std::unique_ptr<ScopedTempDir> tmp;
  if (dir.empty()) {
    tmp = std::make_unique<ScopedTempDir>("gadget-harness");
    dir = tmp->path() + "/db";
  }
  const StoreOptions sopts = StoreOptionsFrom(config, dir);
  auto store = OpenStore(sopts);
  if (!store.ok()) {
    return store.status();
  }
  ReplayOptions ropts;
  ropts.service_rate_ops_per_sec = config.GetDouble("service_rate", 0);
  ropts.max_ops = config.GetUint("max_ops", 0);
  ropts.batch_size = sopts.batch_size;
  ropts.timeline_interval_ops = config.GetUint("timeline_interval", 0);
  ropts.checkpoint_every_ops = config.GetUint("checkpoint_every", 0);
  ropts.checkpoint_incremental = config.GetBool("checkpoint_incremental", true);
  ropts.read_options = ReadOptionsFrom(config);
  if (ropts.checkpoint_every_ops > 0) {
    ropts.checkpoint_dir = config.GetString("checkpoint_dir");
    if (ropts.checkpoint_dir.empty()) {
      ropts.checkpoint_dir = dir + ".checkpoints";  // sibling of the store dir
    }
    // Each run numbers its images from cp-000000: clear a previous run's.
    GADGET_RETURN_IF_ERROR(RemoveDirRecursively(ropts.checkpoint_dir));
  }
  auto result = ReplayTrace(trace, store->get(), ropts);
  if (!result.ok()) {
    return result.status();
  }
  out << engine << ": " << result->Summary() << "\n";
  out << "  reads:  " << result->read_latency_ns.Summary() << "\n";
  out << "  writes: " << result->write_latency_ns.Summary() << "\n";
  if (!result->timeline.empty()) {
    out << "  timeline: " << result->timeline.size() << " intervals of "
        << ropts.timeline_interval_ops << " ops\n";
  }
  std::unique_ptr<RecoveryResult> recovery;
  if (!result->checkpoints.empty()) {
    const CheckpointSample& last = result->checkpoints.back();
    out << "  checkpoints: " << result->checkpoints.size() << " every "
        << ropts.checkpoint_every_ops << " ops; last " << last.bytes << " bytes ("
        << last.files << " files, " << last.hard_links << " linked, " << last.reused
        << " reused) in " << static_cast<double>(last.duration_micros) / 1000.0 << " ms\n";
    auto rec = RunRecovery(trace, ropts, sopts, result->checkpoints);
    if (!rec.ok()) {
      return rec.status();
    }
    out << "  recovery: restore " << static_cast<double>(rec->restore_micros) / 1000.0
        << " ms + gap replay of " << rec->replay_gap_ops << " ops "
        << static_cast<double>(rec->replay_gap_micros) / 1000.0 << " ms; " << rec->verified_keys
        << " keys verified, " << rec->mismatched_keys << " mismatched\n";
    if (rec->mismatched_keys != 0) {
      out << "  WARNING: restored store diverges from a crash-free replay\n";
    }
    recovery = std::make_unique<RecoveryResult>(*rec);
  }
  const StoreStats stats = (*store)->stats();
  GADGET_RETURN_IF_ERROR(MaybeWriteReport(config, *result, stats, recovery.get(), out));
  return (*store)->Close();
}

Status RunYcsb(const Config& config, std::ostream& out) {
  const std::string which = config.GetString("ycsb_workload", "A");
  YcsbOptions opts;
  if (which == "A") {
    opts = YcsbWorkloadA();
  } else if (which == "D") {
    opts = YcsbWorkloadD();
  } else if (which == "F") {
    opts = YcsbWorkloadF();
  } else {
    return Status::InvalidArgument("ycsb_workload must be A, D or F");
  }
  opts.record_count = config.GetUint("ycsb_records", 1'000);
  opts.operation_count = config.GetUint("events", 100'000);
  opts.value_size = static_cast<uint32_t>(config.GetUint("value_size", 256));
  if (config.Has("ycsb_distribution")) {
    opts.request_distribution = config.GetString("ycsb_distribution");
  }
  opts.seed = config.GetUint("seed", 42);
  auto workload = GenerateYcsb(opts);
  if (!workload.ok()) {
    return workload.status();
  }
  out << "ycsb workload " << which << ": " << workload->run.size() << " requests over "
      << opts.record_count << " records\n";
  if (config.GetBool("analyze")) {
    PrintAnalysis(workload->run, out);
  }
  // Load phase first, unmeasured; then the measured run.
  const std::string engine = config.GetString("store", "lsm");
  std::string dir = config.GetString("store_dir");
  std::unique_ptr<ScopedTempDir> tmp;
  if (dir.empty()) {
    tmp = std::make_unique<ScopedTempDir>("gadget-ycsb");
    dir = tmp->path() + "/db";
  }
  const StoreOptions sopts = StoreOptionsFrom(config, dir);
  auto store = OpenStore(sopts);
  if (!store.ok()) {
    return store.status();
  }
  auto load = ReplayTrace(workload->load, store->get());
  if (!load.ok()) {
    return load.status();
  }
  ReplayOptions ropts;
  ropts.max_ops = config.GetUint("max_ops", 0);
  ropts.batch_size = sopts.batch_size;
  ropts.timeline_interval_ops = config.GetUint("timeline_interval", 0);
  ropts.read_options = ReadOptionsFrom(config);
  auto result = ReplayTrace(workload->run, store->get(), ropts);
  if (!result.ok()) {
    return result.status();
  }
  out << engine << ": " << result->Summary() << "\n";
  const StoreStats stats = (*store)->stats();
  GADGET_RETURN_IF_ERROR(MaybeWriteReport(config, *result, stats, /*recovery=*/nullptr, out));
  return (*store)->Close();
}

}  // namespace

StatusOr<std::vector<StateAccess>> BuildAccessTrace(const Config& config) {
  const std::string trace_in = config.GetString("trace_in");
  if (!trace_in.empty()) {
    return ReadAccessTrace(trace_in);
  }
  const std::string op = config.GetString("operator", "tumbling_incr");
  auto source = SourceFrom(config, op);
  if (!source.ok()) {
    return source.status();
  }
  auto workload = GenerateWorkload(op, **source, OperatorConfigFrom(config));
  if (!workload.ok()) {
    return workload.status();
  }
  return std::move(workload->trace);
}

StoreOptions StoreOptionsFromConfig(const Config& config, std::string dir) {
  return StoreOptionsFrom(config, std::move(dir));
}

Status RunHarness(const Config& config, std::ostream& out) {
  const std::string mode = config.GetString("mode", "online");
  if (mode == "ycsb") {
    return RunYcsb(config, out);
  }
  if (mode == "dump_events") {
    // Persist the configured event stream (watermarks included) so it can be
    // replayed later via source=trace:<path>.
    const std::string path = config.GetString("events_out");
    if (path.empty()) {
      return Status::InvalidArgument("dump_events mode requires events_out=<path>");
    }
    auto source = SourceFrom(config, config.GetString("operator", "tumbling_incr"));
    if (!source.ok()) {
      return source.status();
    }
    auto writer = EventTraceWriter::Create(path);
    if (!writer.ok()) {
      return writer.status();
    }
    Event e;
    while ((*source)->Next(&e)) {
      GADGET_RETURN_IF_ERROR((*writer)->Append(e));
    }
    GADGET_RETURN_IF_ERROR((*writer)->Finish());
    out << (*writer)->count() << " events written to " << path << "\n";
    return Status::Ok();
  }
  if (mode == "replay" || mode == "analyze") {
    const std::string path = config.GetString("trace_in");
    if (path.empty()) {
      return Status::InvalidArgument(mode + " mode requires trace_in=<path>");
    }
    auto trace = ReadAccessTrace(path);
    if (!trace.ok()) {
      return trace.status();
    }
    out << "loaded " << trace->size() << " accesses from " << path << "\n";
    if (mode == "analyze" || config.GetBool("analyze")) {
      PrintAnalysis(*trace, out);
    }
    if (mode == "replay") {
      return Evaluate(*trace, config, out);
    }
    return Status::Ok();
  }
  if (mode != "online" && mode != "offline") {
    return Status::InvalidArgument("unknown mode: " + mode);
  }

  const std::string op = config.GetString("operator", "tumbling_incr");
  auto source = SourceFrom(config, op);
  if (!source.ok()) {
    return source.status();
  }
  auto workload = GenerateWorkload(op, **source, OperatorConfigFrom(config));
  if (!workload.ok()) {
    return workload.status();
  }
  out << "operator " << op << ": " << workload->trace.size() << " accesses from "
      << workload->events_processed << " events (" << workload->watermarks << " watermarks)\n";
  if (config.GetBool("analyze")) {
    PrintAnalysis(workload->trace, out);
  }
  if (mode == "offline") {
    const std::string path = config.GetString("trace_out");
    if (path.empty()) {
      return Status::InvalidArgument("offline mode requires trace_out=<path>");
    }
    GADGET_RETURN_IF_ERROR(WriteAccessTrace(path, workload->trace));
    out << "trace written to " << path << "\n";
    return Status::Ok();
  }
  return Evaluate(workload->trace, config, out);
}

}  // namespace gadget
