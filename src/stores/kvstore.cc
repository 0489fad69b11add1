#include "src/stores/kvstore.h"

#include <algorithm>

#include "src/common/file_util.h"
#include "src/stores/btree/btree_store.h"
#include "src/stores/faster/faster_store.h"
#include "src/stores/lsm/lsm_store.h"
#include "src/stores/memstore.h"

namespace gadget {
namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

// Applies `fn(field_of_this, field_of_other)` to every plain counter field.
// Keeping the field list in ONE place so DeltaSince/MergeMax cannot drift
// from the struct definition.
template <typename Fn>
void ForEachCounter(StoreStats* a, const StoreStats& b, Fn fn) {
  fn(&a->gets, b.gets);
  fn(&a->puts, b.puts);
  fn(&a->merges, b.merges);
  fn(&a->deletes, b.deletes);
  fn(&a->rmws, b.rmws);
  fn(&a->bytes_written, b.bytes_written);
  fn(&a->bytes_read, b.bytes_read);
  fn(&a->io_bytes_written, b.io_bytes_written);
  fn(&a->io_bytes_read, b.io_bytes_read);
  fn(&a->flushes, b.flushes);
  fn(&a->compactions, b.compactions);
  fn(&a->cache_hits, b.cache_hits);
  fn(&a->cache_misses, b.cache_misses);
  fn(&a->batches, b.batches);
  fn(&a->batched_ops, b.batched_ops);
  fn(&a->wal_fsyncs, b.wal_fsyncs);
  fn(&a->wal_bytes, b.wal_bytes);
  fn(&a->flush_micros, b.flush_micros);
  fn(&a->stall_micros, b.stall_micros);
  fn(&a->slowdown_micros, b.slowdown_micros);
  fn(&a->compaction_micros, b.compaction_micros);
  fn(&a->cache_evictions, b.cache_evictions);
  fn(&a->wal_group_commits, b.wal_group_commits);
  fn(&a->cache_pins, b.cache_pins);
  fn(&a->io_batches, b.io_batches);
  // wal_group_size_max and io_in_flight_max are gauges (like level_files):
  // DeltaSince keeps the later snapshot's value, MergeMax takes the max —
  // both handled by callers.
}

}  // namespace

StoreStats StoreStats::DeltaSince(const StoreStats& start) const {
  StoreStats out = *this;  // keeps level_files: the gauge is this snapshot's
  ForEachCounter(&out, start, [](uint64_t* field, uint64_t base) {
    *field = SatSub(*field, base);
  });
  return out;
}

void StoreStats::MergeSum(const StoreStats& other) {
  ForEachCounter(this, other, [](uint64_t* field, uint64_t theirs) { *field += theirs; });
  // Gauges cannot meaningfully sum across instances: the widest single
  // observation is the honest aggregate. level_files sums element-wise — N
  // shards really do hold N× the files.
  wal_group_size_max = std::max(wal_group_size_max, other.wal_group_size_max);
  io_in_flight_max = std::max(io_in_flight_max, other.io_in_flight_max);
  if (other.level_files.size() > level_files.size()) {
    level_files.resize(other.level_files.size());
  }
  for (size_t i = 0; i < other.level_files.size(); ++i) {
    level_files[i] += other.level_files[i];
  }
}

void StoreStats::MergeMax(const StoreStats& other) {
  ForEachCounter(this, other, [](uint64_t* field, uint64_t theirs) {
    *field = std::max(*field, theirs);
  });
  wal_group_size_max = std::max(wal_group_size_max, other.wal_group_size_max);
  io_in_flight_max = std::max(io_in_flight_max, other.io_in_flight_max);
  if (other.level_files.size() > level_files.size()) {
    level_files.resize(other.level_files.size());
  }
  for (size_t i = 0; i < other.level_files.size(); ++i) {
    level_files[i] = std::max(level_files[i], other.level_files[i]);
  }
}

StatusOr<CheckpointInfo> KVStore::Checkpoint(const std::string& dir,
                                             const CheckpointOptions& options) {
  (void)dir;
  (void)options;
  return Status::Unsupported("checkpoint not supported by " + name());
}

Status KVStore::ReadModifyWrite(std::string_view key, std::string_view operand) {
  std::string value;
  Status s = Get(key, &value);
  if (!s.ok() && !s.IsNotFound()) {
    return s;
  }
  value.append(operand.data(), operand.size());
  return Put(key, value);
}

Status KVStore::Write(const WriteBatch& batch) {
  // Correct-by-construction fallback: one single-op call per entry, in
  // order. Engines override this with a one-epoch implementation.
  const bool has_merge = supports_merge();
  for (size_t i = 0; i < batch.size(); ++i) {
    const WriteBatch::Entry& e = batch.entry(i);
    Status s;
    switch (e.op) {
      case WriteBatch::Op::kPut:
        s = Put(e.key, e.value);
        break;
      case WriteBatch::Op::kMerge:
        s = has_merge ? Merge(e.key, e.value) : ReadModifyWrite(e.key, e.value);
        break;
      case WriteBatch::Op::kDelete:
        s = Delete(e.key);
        break;
    }
    GADGET_RETURN_IF_ERROR(s);
  }
  NoteBatch(batch.size());
  return Status::Ok();
}

Status KVStore::MultiGet(const std::vector<std::string>& keys,
                         std::vector<std::string>* values, std::vector<Status>* statuses,
                         const ReadOptions& options) {
  values->resize(keys.size());
  statuses->assign(keys.size(), Status::Ok());
  Status first_error;
  for (size_t i = 0; i < keys.size(); ++i) {
    (*statuses)[i] = Get(keys[i], &(*values)[i], options);
    if (!(*statuses)[i].ok() && !(*statuses)[i].IsNotFound() && first_error.ok()) {
      first_error = (*statuses)[i];
    }
  }
  NoteBatch(keys.size());
  return first_error;
}

StatusOr<std::unique_ptr<KVStore>> OpenStore(const StoreOptions& options) {
  const std::string& engine = options.engine;
  if (engine == "mem") {
    return std::unique_ptr<KVStore>(new MemStore(
        options.mem_stripes == 0 ? MemStore::kDefaultStripes : options.mem_stripes));
  }
  if (engine == "btree" && options.sync_writes) {
    return Status::InvalidArgument(
        "btree has no log to sync: its pages are durable only after Flush, Checkpoint or "
        "Close; drop sync_writes");
  }
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(options.dir));
  // Block-structured engines share one pool when the caller supplies it;
  // otherwise each store gets a private pool sized by options.buffer_pool.
  auto pool = options.shared_pool != nullptr ? options.shared_pool
                                             : std::make_shared<BufferPool>(options.buffer_pool);
  if (engine == "lsm" || engine == "lethe") {
    LsmOptions opts;
    opts.sync_writes = options.sync_writes;
    if (engine == "lethe") {
      opts.delete_aware = true;
      opts.delete_persistence_ms = 10'000;  // paper: Lethe delete threshold 10s
    }
    return LsmStore::Open(options.dir, opts, std::move(pool));
  }
  if (engine == "faster") {
    FasterOptions opts;
    if (options.log_memory_bytes > 0) {
      opts.log_memory_bytes = options.log_memory_bytes;
    }
    opts.sync_writes = options.sync_writes;
    return FasterStore::Open(options.dir, opts);
  }
  if (engine == "btree") {
    return BTreeStore::Open(options.dir, BTreeOptions(), std::move(pool));
  }
  return Status::InvalidArgument("unknown engine: " + engine);
}

StatusOr<std::unique_ptr<KVStore>> RestoreStore(const StoreOptions& options,
                                                const std::string& checkpoint_dir) {
  if (!FileExists(checkpoint_dir)) {
    return Status::NotFound("no checkpoint at " + checkpoint_dir);
  }
  // Every engine writes its anchor file last (after syncing the data it
  // references), so its absence means a checkpoint that was cut short.
  const std::string anchor = options.engine == "lsm" || options.engine == "lethe" ? "MANIFEST"
                             : options.engine == "btree"                          ? "btree.db"
                             : options.engine == "faster"                         ? "hybrid.log"
                                                                                  : "memstore.snap";
  if (!FileExists(checkpoint_dir + "/" + anchor)) {
    return Status::Corruption("incomplete checkpoint (no " + anchor + ") at " + checkpoint_dir);
  }
  if (options.engine == "mem") {
    auto store = std::make_unique<MemStore>(
        options.mem_stripes == 0 ? MemStore::kDefaultStripes : options.mem_stripes);
    GADGET_RETURN_IF_ERROR(store->LoadCheckpoint(checkpoint_dir));
    return std::unique_ptr<KVStore>(std::move(store));
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("restore needs a target dir");
  }
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(options.dir));
  auto existing = ListDir(options.dir);
  if (!existing.ok()) {
    return existing.status();
  }
  if (!existing->empty()) {
    return Status::InvalidArgument("restore target not empty: " + options.dir);
  }
  auto names = ListDir(checkpoint_dir);
  if (!names.ok()) {
    return names.status();
  }
  // SSTables are immutable for the rest of their life (the store only ever
  // unlinks them, which leaves the checkpoint's directory entry intact), so
  // they can be shared by hard link. Everything else — the manifest, WAL
  // tails, btree.db, hybrid.log — is rewritten or appended in place by the
  // restored store and must be a private byte copy.
  const bool link_ssts = options.engine == "lsm" || options.engine == "lethe";
  for (const std::string& name : *names) {
    const std::string from = checkpoint_dir + "/" + name;
    const std::string to = options.dir + "/" + name;
    const bool is_sst = name.size() > 4 && name.compare(name.size() - 4, 4, ".sst") == 0;
    if (link_ssts && is_sst) {
      GADGET_RETURN_IF_ERROR(LinkOrCopyFile(from, to));
    } else {
      GADGET_RETURN_IF_ERROR(CopyFile(from, to, /*sync=*/true));
    }
  }
  GADGET_RETURN_IF_ERROR(SyncDir(options.dir));
  return OpenStore(options);
}

}  // namespace gadget
