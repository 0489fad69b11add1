#include "src/gadget/evaluator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "src/stores/op_coalescer.h"

namespace gadget {
namespace {

using Clock = std::chrono::steady_clock;

inline uint64_t ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Collects per-interval TimelineSamples during one replay. The replay loop
// feeds it sampled latencies (RecordLatency) and signals after ops/not_found
// advance (OnProgress); an interval closes once the cumulative op count
// reaches the next boundary — at the first store call at or after it, which
// at batch_size 1 is exactly on it — and Finish emits the trailing ragged
// interval. Each boundary takes one store->stats() snapshot, whose
// delta against the previous snapshot becomes the sample's stats_delta.
class TimelineCollector {
 public:
  // The first interval starts at `start`.
  TimelineCollector(const ReplayOptions& options, KVStore* store, ReplayResult* result,
                    Clock::time_point start)
      : interval_(options.timeline_interval_ops),
        store_(store),
        result_(result),
        start_(start),
        interval_start_time_(start),
        next_boundary_(interval_) {
    if (active()) {
      stats_at_start_ = store_->stats();
    }
  }

  bool active() const { return interval_ != 0; }

  void RecordLatency(uint64_t ns, bool is_read) {
    if (!active()) {
      return;
    }
    (is_read ? cur_read_ : cur_write_).Record(ns);
  }

  void OnProgress() {
    if (!active() || result_->ops < next_boundary_) {
      return;
    }
    CloseInterval(Clock::now());
    next_boundary_ = result_->ops + interval_;
  }

  void Finish(Clock::time_point end) {
    if (active() && result_->ops > interval_start_ops_) {
      CloseInterval(end);
    }
  }

  // Marks the current interval as containing a checkpoint (the replay time
  // it consumed is attributed to the interval it landed in).
  void NoteCheckpoint(uint64_t duration_micros) {
    if (!active()) {
      return;
    }
    ++cur_checkpoints_;
    cur_checkpoint_micros_ += duration_micros;
  }

 private:
  void CloseInterval(Clock::time_point now) {
    TimelineSample s;
    s.index = result_->timeline.size();
    s.ops = result_->ops - interval_start_ops_;
    s.start_seconds = static_cast<double>(ElapsedNs(start_, interval_start_time_)) / 1e9;
    s.end_seconds = static_cast<double>(ElapsedNs(start_, now)) / 1e9;
    double span = s.end_seconds - s.start_seconds;
    s.ops_per_sec = span > 0 ? static_cast<double>(s.ops) / span : 0;
    s.not_found = result_->not_found - not_found_at_start_;
    // Exchange against fresh histograms: a moved-from LatencyHistogram has no
    // bucket storage and would crash on the next Record.
    s.read_latency_ns = std::exchange(cur_read_, LatencyHistogram());
    s.write_latency_ns = std::exchange(cur_write_, LatencyHistogram());
    s.checkpoints = std::exchange(cur_checkpoints_, 0);
    s.checkpoint_micros = std::exchange(cur_checkpoint_micros_, 0);
    StoreStats stats_now = store_->stats();
    s.stats_delta = stats_now.DeltaSince(stats_at_start_);
    result_->timeline.push_back(std::move(s));
    interval_start_ops_ = result_->ops;
    not_found_at_start_ = result_->not_found;
    interval_start_time_ = now;
    stats_at_start_ = std::move(stats_now);
  }

  const uint64_t interval_;
  KVStore* const store_;
  ReplayResult* const result_;
  Clock::time_point start_;
  Clock::time_point interval_start_time_;
  uint64_t next_boundary_ = 0;
  uint64_t interval_start_ops_ = 0;
  uint64_t not_found_at_start_ = 0;
  StoreStats stats_at_start_;
  LatencyHistogram cur_read_;
  LatencyHistogram cur_write_;
  uint64_t cur_checkpoints_ = 0;
  uint64_t cur_checkpoint_micros_ = 0;
};

// Cuts a replay's next checkpoint (ReplayOptions::checkpoint_every_ops). The
// store state must equal the exact trace prefix [0, result->ops).
Status TakeCheckpoint(const ReplayOptions& options, KVStore* store, Clock::time_point start,
                      ReplayResult* result, TimelineCollector* tl) {
  CheckpointSample s;
  s.index = result->checkpoints.size();
  s.trace_pos = result->ops;
  char name[32];
  std::snprintf(name, sizeof(name), "cp-%06llu", static_cast<unsigned long long>(s.index));
  s.dir = options.checkpoint_dir + "/" + name;
  CheckpointOptions copts;
  if (options.checkpoint_incremental && !result->checkpoints.empty()) {
    copts.base_dir = result->checkpoints.back().dir;
  }
  auto t0 = Clock::now();
  auto info = store->Checkpoint(s.dir, copts);
  if (!info.ok()) {
    return info.status();
  }
  auto t1 = Clock::now();
  s.at_seconds = static_cast<double>(ElapsedNs(start, t1)) / 1e9;
  s.duration_micros = ElapsedNs(t0, t1) / 1000;
  s.bytes = info->bytes;
  s.files = info->files;
  s.hard_links = info->hard_links;
  s.reused = info->reused;
  tl->NoteCheckpoint(s.duration_micros);
  result->checkpoints.push_back(std::move(s));
  return Status::Ok();
}

}  // namespace

void TimelineSample::MergeFrom(const TimelineSample& other) {
  ops += other.ops;
  not_found += other.not_found;
  start_seconds = std::min(start_seconds, other.start_seconds);
  end_seconds = std::max(end_seconds, other.end_seconds);
  double span = end_seconds - start_seconds;
  ops_per_sec = span > 0 ? static_cast<double>(ops) / span : 0;
  read_latency_ns.Merge(other.read_latency_ns);
  write_latency_ns.Merge(other.write_latency_ns);
  stats_delta.MergeMax(other.stats_delta);
  checkpoints += other.checkpoints;
  checkpoint_micros += other.checkpoint_micros;
}

void ReplayResult::MergeFrom(const ReplayResult& other) {
  ops += other.ops;
  not_found += other.not_found;
  latency_ns.Merge(other.latency_ns);
  read_latency_ns.Merge(other.read_latency_ns);
  write_latency_ns.Merge(other.write_latency_ns);
  elapsed_seconds = std::max(elapsed_seconds, other.elapsed_seconds);
  throughput_ops_per_sec =
      elapsed_seconds > 0 ? static_cast<double>(ops) / elapsed_seconds : 0;
  for (size_t i = 0; i < other.timeline.size(); ++i) {
    if (i < timeline.size()) {
      timeline[i].MergeFrom(other.timeline[i]);
    } else {
      timeline.push_back(other.timeline[i]);
    }
  }
  // Checkpointing runs on one instance; appended samples keep their indices.
  checkpoints.insert(checkpoints.end(), other.checkpoints.begin(), other.checkpoints.end());
}

std::string ReplayResult::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%llu ops in %.2fs -> %.0f ops/s, p50=%.1fus p99.9=%.1fus",
                static_cast<unsigned long long>(ops), elapsed_seconds, throughput_ops_per_sec,
                static_cast<double>(latency_ns.Percentile(50)) / 1000.0,
                static_cast<double>(latency_ns.Percentile(99.9)) / 1000.0);
  return std::string(buf);
}

StatusOr<ReplayResult> ReplayTrace(const std::vector<StateAccess>& trace, KVStore* store,
                                   const ReplayOptions& options) {
  ReplayResult result;
  const uint64_t checkpoint_every =
      options.checkpoint_dir.empty() ? 0 : options.checkpoint_every_ops;
  uint64_t next_checkpoint = checkpoint_every;
  const uint64_t limit =
      options.max_ops == 0 ? trace.size() : std::min<uint64_t>(options.max_ops, trace.size());
  const double pace_ns =
      options.service_rate_ops_per_sec > 0 ? 1e9 / options.service_rate_ops_per_sec : 0;
  const uint64_t sample_every = std::max<uint64_t>(options.latency_sample_every, 1);
  uint64_t until_sample = 0;  // countdown: avoids a divide per call

  const bool has_merge = store->supports_merge();
  OpCoalescer pending(static_cast<size_t>(options.batch_size));
  std::string value;  // Get's output
  std::vector<std::string> values;  // MultiGet's output
  std::vector<Status> statuses;
  std::string key;  // reused: EncodeStateKeyTo avoids an allocation per op
  // Synthetic value bytes; contents are irrelevant, size matters.
  std::string value_buf;

  const auto start = Clock::now();
  TimelineCollector tl(options, store, &result, start);
  // Makes one store call and, every sample_every-th call, records its
  // latency: one op's at batch_size 1, the whole batch's otherwise.
  auto timed = [&](bool is_read, auto&& call) -> Status {
    const bool sampled = until_sample == 0;
    until_sample = sampled ? sample_every - 1 : until_sample - 1;
    if (!sampled) {
      return call();
    }
    const auto t0 = Clock::now();
    Status s = call();
    const uint64_t ns = ElapsedNs(t0, Clock::now());
    result.latency_ns.Record(ns);
    (is_read ? result.read_latency_ns : result.write_latency_ns).Record(ns);
    tl.RecordLatency(ns, is_read);
    return s;
  };
  // A side that holds one op makes the single-op call (Get, Put, Merge or
  // ReadModifyWrite, Delete) at every width, so a batch-1 replay makes one
  // such call per op and Write/MultiGet only ever carry two or more.
  auto run_reads = [&]() -> Status {
    const size_t n = pending.pending_reads();
    if (n == 0) {
      return Status::Ok();
    }
    const std::vector<std::string>& keys = pending.reads();
    if (n == 1) {
      const Status s =
          timed(true, [&] { return store->Get(keys[0], &value, options.read_options); });
      if (s.IsNotFound()) {
        ++result.not_found;
      } else {
        GADGET_RETURN_IF_ERROR(s);
      }
    } else {
      // Per-key NotFound stays in statuses; an error return is a real one.
      GADGET_RETURN_IF_ERROR(timed(true, [&] {
        return store->MultiGet(keys, &values, &statuses, options.read_options);
      }));
      for (const Status& st : statuses) {
        if (st.IsNotFound()) {
          ++result.not_found;
        }
      }
    }
    result.ops += n;
    tl.OnProgress();
    pending.ClearReads();
    return Status::Ok();
  };
  auto run_writes = [&]() -> Status {
    const WriteBatch& wb = pending.writes();
    if (wb.empty()) {
      return Status::Ok();
    }
    GADGET_RETURN_IF_ERROR(timed(false, [&] {
      if (wb.size() > 1) {
        return store->Write(wb);
      }
      const WriteBatch::Entry& e = wb.entry(0);
      switch (e.op) {
        case WriteBatch::Op::kPut:
          return store->Put(e.key, e.value);
        case WriteBatch::Op::kMerge:
          return has_merge ? store->Merge(e.key, e.value) : store->ReadModifyWrite(e.key, e.value);
        case WriteBatch::Op::kDelete:
          break;
      }
      return store->Delete(e.key);
    }));
    result.ops += wb.size();
    tl.OnProgress();
    pending.ClearWrites();
    return Status::Ok();
  };

  for (uint64_t i = 0; i < limit; ++i) {
    // A due checkpoint first runs both pending sides (they share no key, so
    // either order is correct), so the image is an exact trace prefix.
    if (checkpoint_every != 0 && result.ops >= next_checkpoint) {
      GADGET_RETURN_IF_ERROR(run_writes());
      GADGET_RETURN_IF_ERROR(run_reads());
      GADGET_RETURN_IF_ERROR(TakeCheckpoint(options, store, start, &result, &tl));
      next_checkpoint = result.ops + checkpoint_every;
    }
    const StateAccess& a = trace[i];
    if (pace_ns > 0) {
      auto due =
          start + std::chrono::nanoseconds(static_cast<uint64_t>(pace_ns * static_cast<double>(i)));
      std::this_thread::sleep_until(due);
    }
    StateKey k = a.key;
    k.hi += options.key_hi_offset;
    EncodeStateKeyTo(k, &key);
    const bool is_read = a.op == OpType::kGet;
    if (!is_read && a.value_size > value_buf.size()) {
      value_buf.resize(a.value_size, 'v');
    }
    const OpCoalescer::Due due =
        is_read ? pending.AddRead(key)
                : pending.AddWrite(WriteOpOf(a.op), key,
                                   std::string_view(value_buf.data(), a.value_size));
    if (due.other) {
      GADGET_RETURN_IF_ERROR(is_read ? run_writes() : run_reads());
    }
    if (due.own) {
      GADGET_RETURN_IF_ERROR(is_read ? run_reads() : run_writes());
    }
  }
  // The trailing sides share no key, so either order is correct.
  GADGET_RETURN_IF_ERROR(run_writes());
  GADGET_RETURN_IF_ERROR(run_reads());
  auto end = Clock::now();
  tl.Finish(end);
  result.elapsed_seconds = static_cast<double>(ElapsedNs(start, end)) / 1e9;
  result.throughput_ops_per_sec =
      result.elapsed_seconds > 0 ? static_cast<double>(result.ops) / result.elapsed_seconds : 0;
  return result;
}

}  // namespace gadget
