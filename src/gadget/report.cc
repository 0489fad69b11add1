#include "src/gadget/report.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <utility>

#include "src/common/file_util.h"

namespace gadget {
namespace {

// Enumerates every StoreStats counter with its field name — the single list
// the JSON emitter and the validator both walk, so neither can drift from
// kvstore.h (level_files, the one gauge, is handled separately).
template <typename Fn>
void ForEachStatField(const StoreStats& s, Fn fn) {
  fn("gets", s.gets);
  fn("puts", s.puts);
  fn("merges", s.merges);
  fn("deletes", s.deletes);
  fn("rmws", s.rmws);
  fn("bytes_written", s.bytes_written);
  fn("bytes_read", s.bytes_read);
  fn("io_bytes_written", s.io_bytes_written);
  fn("io_bytes_read", s.io_bytes_read);
  fn("flushes", s.flushes);
  fn("compactions", s.compactions);
  fn("cache_hits", s.cache_hits);
  fn("cache_misses", s.cache_misses);
  fn("batches", s.batches);
  fn("batched_ops", s.batched_ops);
  fn("wal_fsyncs", s.wal_fsyncs);
  fn("wal_bytes", s.wal_bytes);
  fn("flush_micros", s.flush_micros);
  fn("stall_micros", s.stall_micros);
  fn("slowdown_micros", s.slowdown_micros);
  fn("compaction_micros", s.compaction_micros);
  fn("cache_evictions", s.cache_evictions);
  fn("cache_pins", s.cache_pins);
  fn("io_batches", s.io_batches);
  fn("io_in_flight_max", s.io_in_flight_max);
  fn("wal_group_commits", s.wal_group_commits);
  fn("wal_group_size_max", s.wal_group_size_max);
}

Status Invalid(const std::string& what) { return Status::InvalidArgument(what); }

// Checks a serialized StoreStats object carries every field ForEachStatField
// emits (numeric, by name) — a report from a stale binary fails here instead
// of silently passing downstream dashboards zeros.
Status ValidateStats(const JsonValue& stats, const std::string& where) {
  if (!stats.is_object()) {
    return Status::InvalidArgument(where + " is not an object");
  }
  Status s;
  ForEachStatField(StoreStats(), [&](const char* name, uint64_t) {
    const JsonValue* v = stats.Get(name);
    if (s.ok() && (v == nullptr || !v->is_number())) {
      s = Status::InvalidArgument(where + ": missing or non-numeric \"" + std::string(name) +
                                  "\"");
    }
  });
  return s;
}

// --- validation helpers -----------------------------------------------------

Status RequireNumber(const JsonValue& obj, const char* key, const std::string& where) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->is_number()) {
    return Invalid(where + ": missing or non-numeric \"" + key + "\"");
  }
  return Status::Ok();
}

Status RequireString(const JsonValue& obj, const char* key, const std::string& where) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->is_string()) {
    return Invalid(where + ": missing or non-string \"" + key + "\"");
  }
  return Status::Ok();
}

Status ValidateHistogram(const JsonValue& obj, const char* key, const std::string& where) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->is_object()) {
    return Invalid(where + ": missing histogram \"" + key + "\"");
  }
  LatencyHistogram h;
  if (!HistogramFromJson(*v, &h)) {
    return Invalid(where + ": histogram \"" + key + "\" does not restore");
  }
  return Status::Ok();
}

Status ValidateResult(const JsonValue& result, const std::string& where) {
  if (!result.is_object()) {
    return Invalid(where + " is not an object");
  }
  for (const char* key : {"ops", "elapsed_seconds", "throughput_ops_per_sec", "not_found"}) {
    GADGET_RETURN_IF_ERROR(RequireNumber(result, key, where));
  }
  for (const char* key : {"latency_ns", "read_latency_ns", "write_latency_ns"}) {
    GADGET_RETURN_IF_ERROR(ValidateHistogram(result, key, where));
  }
  const JsonValue* timeline = result.Get("timeline");
  if (timeline != nullptr) {
    if (!timeline->is_array()) {
      return Invalid(where + ".timeline is not an array");
    }
    for (size_t i = 0; i < timeline->items().size(); ++i) {
      const JsonValue& s = timeline->items()[i];
      std::string sw = where + ".timeline[" + std::to_string(i) + "]";
      if (!s.is_object()) {
        return Invalid(sw + " is not an object");
      }
      for (const char* key : {"index", "ops", "start_seconds", "end_seconds", "ops_per_sec"}) {
        GADGET_RETURN_IF_ERROR(RequireNumber(s, key, sw));
      }
      const JsonValue* delta = s.Get("stats_delta");
      if (delta == nullptr || !delta->is_object()) {
        return Invalid(sw + ": missing \"stats_delta\"");
      }
      GADGET_RETURN_IF_ERROR(ValidateStats(*delta, sw + ".stats_delta"));
    }
  }
  // "checkpoints" is optional (absent unless the run checkpointed), but when
  // present every sample must carry its full shape.
  const JsonValue* checkpoints = result.Get("checkpoints");
  if (checkpoints != nullptr) {
    if (!checkpoints->is_array()) {
      return Invalid(where + ".checkpoints is not an array");
    }
    for (size_t i = 0; i < checkpoints->items().size(); ++i) {
      const JsonValue& s = checkpoints->items()[i];
      std::string sw = where + ".checkpoints[" + std::to_string(i) + "]";
      if (!s.is_object()) {
        return Invalid(sw + " is not an object");
      }
      for (const char* key :
           {"index", "trace_pos", "at_seconds", "duration_micros", "bytes", "files"}) {
        GADGET_RETURN_IF_ERROR(RequireNumber(s, key, sw));
      }
    }
  }
  return Status::Ok();
}

Status ValidateRecovery(const JsonValue& recovery, const std::string& where) {
  if (!recovery.is_object()) {
    return Invalid(where + " is not an object");
  }
  for (const char* key : {"checkpoint_index", "checkpoint_trace_pos", "restore_micros",
                          "replay_gap_ops", "replay_gap_micros", "verified_keys",
                          "mismatched_keys"}) {
    GADGET_RETURN_IF_ERROR(RequireNumber(recovery, key, where));
  }
  return Status::Ok();
}

Status ValidateSingleReport(const JsonValue& doc) {
  const JsonValue* meta = doc.Get("meta");
  if (meta == nullptr || !meta->is_object()) {
    return Invalid("report: missing \"meta\"");
  }
  GADGET_RETURN_IF_ERROR(RequireString(*meta, "engine", "report.meta"));
  const JsonValue* result = doc.Get("result");
  if (result == nullptr) {
    return Invalid("report: missing \"result\"");
  }
  GADGET_RETURN_IF_ERROR(ValidateResult(*result, "report.result"));
  const JsonValue* stats = doc.Get("stats");
  if (stats == nullptr || !stats->is_object()) {
    return Invalid("report: missing \"stats\"");
  }
  GADGET_RETURN_IF_ERROR(ValidateStats(*stats, "report.stats"));
  // Optional: only checkpointed runs carry a crash/restore outcome.
  if (const JsonValue* recovery = doc.Get("recovery"); recovery != nullptr) {
    GADGET_RETURN_IF_ERROR(ValidateRecovery(*recovery, "report.recovery"));
  }
  return Status::Ok();
}

}  // namespace

std::string GitDescribe() {
  if (const char* env = std::getenv("GADGET_GIT_DESCRIBE"); env != nullptr && env[0] != '\0') {
    return env;
  }
  std::string out;
  if (FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      out += buf;
    }
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::string CurrentTimestamp() {
  std::time_t now = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

JsonValue HistogramToJson(const LatencyHistogram& h) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("count", h.count());
  obj.Set("sum", h.sum());
  obj.Set("min", h.min());
  obj.Set("max", h.max());
  JsonValue buckets = JsonValue::MakeArray();
  for (const auto& [index, count] : h.NonzeroBuckets()) {
    JsonValue pair = JsonValue::MakeArray();
    pair.Append(static_cast<uint64_t>(index));
    pair.Append(count);
    buckets.Append(std::move(pair));
  }
  obj.Set("buckets", std::move(buckets));
  return obj;
}

bool HistogramFromJson(const JsonValue& v, LatencyHistogram* out) {
  out->Reset();
  if (!v.is_object()) {
    return false;
  }
  const JsonValue* buckets = v.Get("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return false;
  }
  std::vector<std::pair<uint32_t, uint64_t>> sparse;
  sparse.reserve(buckets->items().size());
  for (const JsonValue& pair : buckets->items()) {
    if (!pair.is_array() || pair.items().size() != 2 || !pair.items()[0].is_number() ||
        !pair.items()[1].is_number()) {
      return false;
    }
    sparse.emplace_back(static_cast<uint32_t>(pair.items()[0].AsUint64()),
                        pair.items()[1].AsUint64());
  }
  return out->Restore(sparse, v.GetDouble("sum"), v.GetUint("min"), v.GetUint("max"));
}

JsonValue StoreStatsToJson(const StoreStats& s) {
  JsonValue obj = JsonValue::MakeObject();
  ForEachStatField(s, [&obj](const char* name, uint64_t value) { obj.Set(name, value); });
  JsonValue levels = JsonValue::MakeArray();
  for (uint64_t files : s.level_files) {
    levels.Append(files);
  }
  obj.Set("level_files", std::move(levels));
  return obj;
}

namespace {

// Timeline sample: interval bounds/throughput/not_found, read+write op
// counts with p50/p99/p999, bytes in/out pulled up from the stats delta,
// checkpoint count/time for the interval, and the full "stats_delta" object.
JsonValue TimelineSampleToJson(const TimelineSample& s) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("index", s.index);
  obj.Set("ops", s.ops);
  obj.Set("start_seconds", s.start_seconds);
  obj.Set("end_seconds", s.end_seconds);
  obj.Set("ops_per_sec", s.ops_per_sec);
  obj.Set("not_found", s.not_found);
  obj.Set("reads_sampled", s.read_latency_ns.count());
  obj.Set("read_p50_ns", s.read_latency_ns.Percentile(50));
  obj.Set("read_p99_ns", s.read_latency_ns.Percentile(99));
  obj.Set("read_p999_ns", s.read_latency_ns.Percentile(99.9));
  obj.Set("writes_sampled", s.write_latency_ns.count());
  obj.Set("write_p50_ns", s.write_latency_ns.Percentile(50));
  obj.Set("write_p99_ns", s.write_latency_ns.Percentile(99));
  obj.Set("write_p999_ns", s.write_latency_ns.Percentile(99.9));
  // Device traffic pulled up for timeline plots; the full delta follows.
  obj.Set("bytes_in", s.stats_delta.io_bytes_written);
  obj.Set("bytes_out", s.stats_delta.io_bytes_read);
  obj.Set("checkpoints", s.checkpoints);
  obj.Set("checkpoint_micros", s.checkpoint_micros);
  obj.Set("stats_delta", StoreStatsToJson(s.stats_delta));
  return obj;
}

// One checkpoint taken during replay: position, timing, image size/capture.
JsonValue CheckpointSampleToJson(const CheckpointSample& s) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("index", s.index);
  obj.Set("trace_pos", s.trace_pos);
  obj.Set("at_seconds", s.at_seconds);
  obj.Set("duration_micros", s.duration_micros);
  obj.Set("bytes", s.bytes);
  obj.Set("files", s.files);
  obj.Set("hard_links", s.hard_links);
  obj.Set("reused", s.reused);
  obj.Set("dir", s.dir);
  return obj;
}

// The crash/restore scenario outcome: restore + gap-replay timing and oracle
// verification counts.
JsonValue RecoveryResultToJson(const RecoveryResult& r) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("checkpoint_index", r.checkpoint_index);
  obj.Set("checkpoint_trace_pos", r.checkpoint_trace_pos);
  obj.Set("restore_micros", r.restore_micros);
  obj.Set("replay_gap_ops", r.replay_gap_ops);
  obj.Set("replay_gap_micros", r.replay_gap_micros);
  obj.Set("verified_keys", r.verified_keys);
  obj.Set("mismatched_keys", r.mismatched_keys);
  return obj;
}

// The "result" payload: scalars, full histograms, timeline array, and (when
// checkpointing ran) the "checkpoints" array.
JsonValue ReplayResultToJson(const ReplayResult& result) {
  JsonValue r = JsonValue::MakeObject();
  r.Set("ops", result.ops);
  r.Set("elapsed_seconds", result.elapsed_seconds);
  r.Set("throughput_ops_per_sec", result.throughput_ops_per_sec);
  r.Set("not_found", result.not_found);
  r.Set("latency_ns", HistogramToJson(result.latency_ns));
  r.Set("read_latency_ns", HistogramToJson(result.read_latency_ns));
  r.Set("write_latency_ns", HistogramToJson(result.write_latency_ns));
  JsonValue timeline = JsonValue::MakeArray();
  for (const TimelineSample& s : result.timeline) {
    timeline.Append(TimelineSampleToJson(s));
  }
  r.Set("timeline", std::move(timeline));
  if (!result.checkpoints.empty()) {
    JsonValue checkpoints = JsonValue::MakeArray();
    for (const CheckpointSample& s : result.checkpoints) {
      checkpoints.Append(CheckpointSampleToJson(s));
    }
    r.Set("checkpoints", std::move(checkpoints));
  }
  return r;
}

}  // namespace

JsonValue BuildReportJson(const ReportMeta& meta, const ReplayResult& result,
                          const StoreStats& stats, const RecoveryResult* recovery) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("schema", kReportSchema);

  JsonValue m = JsonValue::MakeObject();
  m.Set("engine", meta.engine);
  m.Set("git", meta.git);
  m.Set("timestamp", meta.timestamp);
  m.Set("batch_size", meta.batch_size);
  JsonValue config = JsonValue::MakeObject();
  for (const auto& [key, value] : meta.config) {
    config.Set(key, value);
  }
  m.Set("config", std::move(config));
  doc.Set("meta", std::move(m));

  doc.Set("result", ReplayResultToJson(result));
  doc.Set("stats", StoreStatsToJson(stats));
  if (recovery != nullptr) {
    doc.Set("recovery", RecoveryResultToJson(*recovery));
  }
  return doc;
}

Status WriteReportJson(const std::string& path, const ReportMeta& meta,
                       const ReplayResult& result, const StoreStats& stats,
                       const RecoveryResult* recovery) {
  std::string text = BuildReportJson(meta, result, stats, recovery).Write(/*indent=*/2);
  text += '\n';
  return WriteStringToFile(path, text);
}

Status ValidateReportJson(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Invalid("report document is not a JSON object");
  }
  std::string schema = doc.GetString("schema");
  if (schema != kReportSchema) {
    return Invalid("unknown schema \"" + schema + "\"");
  }
  return ValidateSingleReport(doc);
}

}  // namespace gadget
