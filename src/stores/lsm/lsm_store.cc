#include "src/stores/lsm/lsm_store.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>

#include "src/common/file_util.h"
#include "src/common/logging.h"

namespace gadget {
namespace {

std::string SstPath(const std::string& dir, uint64_t number) {
  return dir + "/" + std::to_string(number) + ".sst";
}

std::string WalPath(const std::string& dir, uint64_t number) {
  return dir + "/wal-" + std::to_string(number) + ".log";
}

// True if `name` is a WAL file name ("wal-<n>.log"); stores <n> in *number.
bool ParseWalFileName(std::string_view name, uint64_t* number) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() <= kPrefix.size() + kSuffix.size() ||
      name.substr(0, kPrefix.size()) != kPrefix ||
      name.substr(name.size() - kSuffix.size()) != kSuffix) {
    return false;
  }
  std::string_view digits = name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  uint64_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  *number = n;
  return true;
}

// True if [f->smallest, f->largest] intersects [begin, end].
bool Overlaps(const FileMeta& f, const std::string& begin, const std::string& end) {
  return !(f.largest < begin || end < f.smallest);
}

RecType RecTypeForOp(WriteBatch::Op op) {
  switch (op) {
    case WriteBatch::Op::kPut:
      return RecType::kValue;
    case WriteBatch::Op::kMerge:
      return RecType::kMergeStack;
    case WriteBatch::Op::kDelete:
      return RecType::kTombstone;
  }
  return RecType::kValue;
}

using MonoClock = std::chrono::steady_clock;

uint64_t MicrosSince(MonoClock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(MonoClock::now() - t0).count());
}

// Group-commit bounds: one WAL record per group keeps the fsync count at one,
// but an unbounded group would hold the log (and every follower) for the
// duration of one giant append.
constexpr size_t kMaxGroupWriters = 128;
constexpr size_t kMaxGroupBytes = 1 << 20;

}  // namespace

uint64_t LsmStore::NowMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

LsmStore::LsmStore(std::string dir, const LsmOptions& opts, std::shared_ptr<BufferPool> pool)
    : dir_(std::move(dir)),
      opts_(opts),
      pool_(pool != nullptr ? std::move(pool) : std::make_shared<BufferPool>()),
      work_cv_(&mu_),
      flush_cv_(&mu_),
      stall_cv_(&mu_),
      mem_(std::make_unique<MemTable>()),
      compact_cursor_(static_cast<size_t>(opts.num_levels), 0) {
  current_ = std::make_shared<Version>(opts_.num_levels);
}

StatusOr<std::unique_ptr<KVStore>> LsmStore::Open(const std::string& dir, const LsmOptions& opts,
                                                  std::shared_ptr<BufferPool> pool) {
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<LsmStore> store(new LsmStore(dir, opts, std::move(pool)));
  GADGET_RETURN_IF_ERROR(store->Recover());
  store->flusher_thread_ = std::thread(&LsmStore::FlusherThread, store.get());
  store->compaction_thread_ = std::thread(&LsmStore::CompactionThread, store.get());
  return std::unique_ptr<KVStore>(std::move(store));
}

// status intentionally ignored: a destructor cannot propagate the close
// error; callers that care close explicitly first.
LsmStore::~LsmStore() { (void)Close(); }

Status LsmStore::Recover() {
  MutexLock lock(&mu_);
  auto manifest = LoadManifest(dir_);
  if (!manifest.ok() && !manifest.status().IsNotFound()) {
    return manifest.status();
  }
  if (manifest.ok()) {
    next_file_number_ = manifest->next_file_number;
    auto version = std::make_shared<Version>(opts_.num_levels);
    for (const auto& rec : manifest->files) {
      if (rec.level < 0 || rec.level >= opts_.num_levels) {
        return Status::Corruption("manifest level out of range");
      }
      auto meta = std::make_shared<FileMeta>();
      meta->number = rec.number;
      meta->size = rec.size;
      meta->entries = rec.entries;
      meta->tombstones = rec.tombstones;
      meta->created_ms = NowMs();  // steady clock restarts; ages restart too
      meta->smallest = rec.smallest;
      meta->largest = rec.largest;
      meta->path = SstPath(dir_, rec.number);
      auto reader = SSTableReader::Open(meta->path, meta->number, pool_.get());
      if (!reader.ok()) {
        return reader.status();
      }
      meta->reader = std::move(*reader);
      version->levels[static_cast<size_t>(rec.level)].push_back(std::move(meta));
    }
    // L0 by file number (creation order); L1+ by smallest key.
    std::sort(version->levels[0].begin(), version->levels[0].end(),
              [](const auto& a, const auto& b) { return a->number < b->number; });
    for (int l = 1; l < opts_.num_levels; ++l) {
      auto& files = version->levels[static_cast<size_t>(l)];
      std::sort(files.begin(), files.end(),
                [](const auto& a, const auto& b) { return a->smallest < b->smallest; });
    }
    current_ = std::move(version);

    // Replay the live WAL generations. The manifest's list is the live set
    // as of its last persist; rotations since then created higher-numbered
    // generations without a manifest write, and because the flusher retires
    // generations strictly oldest-first, liveness is a suffix by number:
    // every on-disk WAL numbered >= the oldest recorded live generation is
    // unflushed and is replayed in ascending order (= write order). Files
    // below the floor were already flushed — replaying them would let stale
    // records shadow newer flushed data — so they are deleted instead. An
    // empty live list (or a manifest persisted after a completed recovery
    // flush) makes every leftover WAL stale.
    auto names = ListDir(dir_);
    if (!names.ok()) {
      return names.status();
    }
    uint64_t floor = ~uint64_t{0};
    for (uint64_t n : manifest->wal_numbers) {
      floor = std::min(floor, n);
    }
    std::vector<uint64_t> replay;
    for (const std::string& name : *names) {
      uint64_t n = 0;
      if (!ParseWalFileName(name, &n)) {
        continue;
      }
      // Rotation allocates WAL numbers past the persisted next_file_number;
      // make sure fresh allocations cannot collide with files on disk.
      next_file_number_ = std::max(next_file_number_, n + 1);
      if (n < floor) {
        // status intentionally ignored: deleting an already-flushed log is
        // garbage collection; a leftover file is re-deleted next recovery.
        (void)RemoveFile(WalPath(dir_, n));
      } else {
        replay.push_back(n);
      }
    }
    std::sort(replay.begin(), replay.end());
    for (uint64_t n : replay) {
      auto replayed = ReplayWal(WalPath(dir_, n), [this](RecType type, std::string_view key,
                                                         std::string_view value) {
        switch (type) {
          case RecType::kValue:
            mem_->Put(key, value);
            break;
          case RecType::kMergeStack:
            mem_->Merge(key, value);
            break;
          case RecType::kTombstone:
            mem_->Delete(key);
            break;
        }
      });
      if (!replayed.ok()) {
        return replayed.status();
      }
    }
    if (!mem_->empty()) {
      // wal_ is still null here, so no rotation happens; the manifest this
      // persists has an empty live list, which is what marks the replayed
      // files as flushed if we crash before removing them below.
      GADGET_RETURN_IF_ERROR(FlushActiveMemLocked());
    }
    for (uint64_t n : replay) {
      // status intentionally ignored: the replayed data is already flushed
      // and the manifest lists no live generations, so a stale log that
      // survives this unlink is ignored (and re-deleted) on the next open.
      (void)RemoveFile(WalPath(dir_, n));
    }
  }
  // Fresh WAL generation for the new lifetime.
  wal_number_ = next_file_number_++;
  auto wal = WalWriter::Create(WalPath(dir_, wal_number_));
  if (!wal.ok()) {
    return wal.status();
  }
  wal_ = std::move(*wal);
  return PersistManifestLocked();
}

Status LsmStore::PersistManifestLocked() {
  ManifestData data;
  data.next_file_number = next_file_number_;
  for (const auto& im : imm_) {
    data.wal_numbers.push_back(im.wal_number);
  }
  if (wal_ != nullptr) {
    data.wal_numbers.push_back(wal_number_);
  }
  for (int l = 0; l < opts_.num_levels; ++l) {
    for (const auto& f : current_->levels[static_cast<size_t>(l)]) {
      data.files.push_back({l, f->number, f->size, f->entries, f->tombstones, f->created_ms,
                            f->smallest, f->largest});
    }
  }
  return SaveManifest(dir_, data);
}

// ------------------------------------------------------------------- writes

Status LsmStore::Put(std::string_view key, std::string_view value) {
  Writer w(&mu_);
  w.type = RecType::kValue;
  w.key = key;
  w.value = value;
  return EnqueueWriter(&w);
}

Status LsmStore::Merge(std::string_view key, std::string_view operand) {
  Writer w(&mu_);
  w.type = RecType::kMergeStack;
  w.key = key;
  w.value = operand;
  return EnqueueWriter(&w);
}

Status LsmStore::Delete(std::string_view key) {
  Writer w(&mu_);
  w.type = RecType::kTombstone;
  w.key = key;
  return EnqueueWriter(&w);
}

Status LsmStore::Write(const WriteBatch& batch) {
  if (!batch.empty()) {
    Writer w(&mu_);
    w.batch = &batch;
    GADGET_RETURN_IF_ERROR(EnqueueWriter(&w));
  }
  NoteBatch(batch.size());
  return Status::Ok();
}

Status LsmStore::EnqueueWriter(Writer* w) {
  MutexLock lock(&mu_);
  writers_.push_back(w);
  // Followers park here; the queue front is the group leader. A follower
  // either gets committed (done) by a leader's group or inherits leadership
  // when it reaches the front.
  while (!w->done && w != writers_.front()) {
    w->cv.Wait();
  }
  if (!w->done) {
    CommitGroupLocked(w);
  }
  return w->status;
}

void LsmStore::CommitGroupLocked(Writer* w) {
  Status s;
  if (!bg_error_.ok()) {
    s = bg_error_;
  } else if (closing_) {
    s = Status::Internal("store is closed");
  } else {
    s = MakeRoomForWriteLocked();
  }

  std::vector<Writer*> group;
  if (s.ok()) {
    // Collect contiguous writers from the queue front into one commit group.
    // Writers that enqueue while the leader is appending form the next group.
    std::vector<WalWriter::GroupOp> ops;
    size_t group_bytes = 0;
    for (Writer* other : writers_) {
      if (!group.empty() &&
          (group.size() >= kMaxGroupWriters || group_bytes >= kMaxGroupBytes)) {
        break;
      }
      group.push_back(other);
      if (other->batch != nullptr) {
        for (size_t i = 0; i < other->batch->size(); ++i) {
          const WriteBatch::Entry& e = other->batch->entry(i);
          ops.push_back({RecTypeForOp(e.op), e.key, e.value});
          group_bytes += e.key.size() + e.value.size();
        }
      } else {
        ops.push_back({other->type, other->key, other->value});
        group_bytes += other->key.size() + other->value.size();
      }
    }

    // One WAL record, one crc, at most one fdatasync for the whole group —
    // appended with mu_ released so readers and the background threads keep
    // running. Safe: followers are parked, so only the leader touches wal_
    // and the memtable, and the group members' storage outlives `done`.
    WalWriter* wal = wal_.get();
    mu_.Unlock();
    s = wal->AppendGroup(ops, opts_.sync_writes);
    mu_.Lock();

    if (s.ok()) {
      // Apply exactly what was logged, in log order.
      for (const WalWriter::GroupOp& op : ops) {
        ApplyOpLocked(op.type, op.key, op.value);
      }
      if (group.size() >= 2) {
        ++stats_.wal_group_commits;
      }
      stats_.wal_group_size_max =
          std::max(stats_.wal_group_size_max, static_cast<uint64_t>(ops.size()));
    } else if (bg_error_.ok()) {
      // A failed append may leave a partial record in the log; nothing after
      // it could be made durable reliably, so the store is poisoned.
      bg_error_ = s;
    }
  } else {
    // Room/close failure: fail only the leader. Followers take over one by
    // one and observe the same condition themselves.
    group.push_back(w);
  }

  for (Writer* other : group) {
    writers_.pop_front();
    other->status = s;
    other->done = true;
    if (other != w) {
      other->cv.Signal();
    }
  }
  if (!writers_.empty()) {
    writers_.front()->cv.Signal();  // next leader
  } else {
    stall_cv_.SignalAll();  // Flush()/Close() wait for the queue to drain
  }

  // Seal a just-filled memtable immediately (never blocking) so the flusher
  // overlaps the next group's WAL work.
  if (s.ok() && !closing_ && bg_error_.ok() &&
      mem_->ApproximateBytes() >= opts_.write_buffer_size &&
      imm_.size() < static_cast<size_t>(std::max(1, opts_.max_immutable_memtables))) {
    Status rs = RotateMemTableLocked();
    if (!rs.ok() && bg_error_.ok()) {
      bg_error_ = rs;
    }
    flush_cv_.SignalAll();
  }
}

Status LsmStore::MakeRoomForWriteLocked() {
  const size_t imm_cap = static_cast<size_t>(std::max(1, opts_.max_immutable_memtables));
  bool slowdown_done = false;
  for (;;) {
    if (!bg_error_.ok()) {
      return bg_error_;
    }
    if (closing_) {
      return Status::Internal("store is closed");
    }
    if (mem_->ApproximateBytes() < opts_.write_buffer_size) {
      return Status::Ok();
    }
    const size_t l0 = current_->levels[0].size();
    if (l0 >= static_cast<size_t>(opts_.l0_stall_limit)) {
      // Hard stall tier: block until compaction thins L0.
      auto t0 = MonoClock::now();
      work_cv_.SignalAll();
      stall_cv_.Wait();
      stats_.stall_micros += MicrosSince(t0);
      continue;
    }
    if (imm_.size() >= imm_cap) {
      // The flusher is behind: block until it retires a sealed memtable.
      auto t0 = MonoClock::now();
      flush_cv_.SignalAll();
      stall_cv_.Wait();
      stats_.stall_micros += MicrosSince(t0);
      continue;
    }
    if (!slowdown_done && l0 >= static_cast<size_t>(opts_.l0_slowdown_limit)) {
      // Graduated tier: one brief sleep per commit group gives compaction a
      // head start long before the hard stall threshold.
      auto t0 = MonoClock::now();
      mu_.Unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      mu_.Lock();
      stats_.slowdown_micros += MicrosSince(t0);
      slowdown_done = true;
      continue;
    }
    GADGET_RETURN_IF_ERROR(RotateMemTableLocked());
    flush_cv_.SignalAll();
  }
}

Status LsmStore::RotateMemTableLocked() {
  // Fold the retiring generation's log accounting into the store counters
  // before the writer (and its counters) are destroyed.
  stats_.wal_bytes += wal_->size();
  stats_.wal_fsyncs += wal_->fsyncs();
  Status close_status = wal_->Close();
  wal_.reset();
  GADGET_RETURN_IF_ERROR(close_status);
  imm_.push_back(ImmutableMem{std::move(mem_), wal_number_});
  mem_ = std::make_unique<MemTable>();
  // No manifest write here: the new generation's number is higher than every
  // live one, so the recovery floor rule picks it up automatically.
  wal_number_ = next_file_number_++;
  auto wal = WalWriter::Create(WalPath(dir_, wal_number_));
  if (!wal.ok()) {
    return wal.status();
  }
  wal_ = std::move(*wal);
  // Recovery discovers this generation by listing the directory (nothing
  // records it until the next manifest write), so its directory entry must
  // be durable before any record in it is acknowledged.
  return SyncDir(dir_);
}

void LsmStore::ApplyOpLocked(RecType type, std::string_view key, std::string_view value) {
  switch (type) {
    case RecType::kValue:
      mem_->Put(key, value);
      ++stats_.puts;
      break;
    case RecType::kMergeStack:
      mem_->Merge(key, value);
      ++stats_.merges;
      break;
    case RecType::kTombstone:
      mem_->Delete(key);
      ++stats_.deletes;
      break;
  }
  stats_.bytes_written += key.size() + value.size();
}

// -------------------------------------------------------------------- reads

LookupState LsmStore::LookupMemLayersLocked(std::string_view key, std::string* value,
                                            Operands* acc) const {
  auto probe = [&](const MemTable& m) -> LookupState {
    std::string_view bytes;
    LookupState state = m.Get(key, &bytes);
    switch (state) {
      case LookupState::kFound:
        // This layer resolves the base; operands from newer layers apply on
        // top of it.
        value->reserve(bytes.size() + acc->bytes.size());
        value->assign(bytes);
        value->append(acc->bytes);
        return LookupState::kFound;
      case LookupState::kDeleted:
        if (!acc->any) {
          return LookupState::kDeleted;
        }
        value->swap(acc->bytes);
        return LookupState::kFound;
      case LookupState::kMergePartial:
        // This layer is older than everything accumulated so far: prepend.
        acc->Prepend(bytes);
        return LookupState::kMergePartial;
      case LookupState::kNotFound:
        return LookupState::kNotFound;
    }
    return LookupState::kNotFound;
  };
  LookupState state = probe(*mem_);
  if (state == LookupState::kFound || state == LookupState::kDeleted) {
    return state;
  }
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {  // newest first
    state = probe(*it->mem);
    if (state == LookupState::kFound || state == LookupState::kDeleted) {
      return state;
    }
  }
  return acc->any ? LookupState::kMergePartial : LookupState::kNotFound;
}

Status LsmStore::Get(std::string_view key, std::string* value, const ReadOptions& options) {
  Status status;
  KeyRead read{key, value, &status};
  std::shared_ptr<const Version> version;
  {
    MutexLock lock(&mu_);
    ++stats_.gets;
    if (!bg_error_.ok()) {
      return bg_error_;
    }
    LookupState state = LookupMemLayersLocked(key, value, &read.acc);
    if (state == LookupState::kFound) {
      read_bytes_.fetch_add(value->size(), std::memory_order_relaxed);
      return Status::Ok();
    }
    if (state == LookupState::kDeleted) {
      return Status::NotFound();
    }
    version = current_;
  }
  // From here on the lookup works off the snapshot only: searching SSTables
  // (block I/O) must never touch mu_, or concurrent readers serialize behind
  // writers and the background threads.
  SearchTablesUnlocked(*version, &read, 1, options);
  return status;
}

Status LsmStore::MultiGet(const std::vector<std::string>& keys,
                          std::vector<std::string>* values, std::vector<Status>* statuses,
                          const ReadOptions& options) {
  const size_t n = keys.size();
  values->resize(n);
  statuses->assign(n, Status::Ok());
  // Keys the memtable layers could not resolve, with any merge operands they
  // stacked.
  std::vector<KeyRead> pending;
  std::shared_ptr<const Version> version;
  {
    MutexLock lock(&mu_);
    stats_.gets += n;
    if (!bg_error_.ok()) {
      statuses->assign(n, bg_error_);
      return bg_error_;
    }
    for (size_t i = 0; i < n; ++i) {
      KeyRead read{keys[i], &(*values)[i], &(*statuses)[i]};
      switch (LookupMemLayersLocked(read.key, read.value, &read.acc)) {
        case LookupState::kFound:
          read_bytes_.fetch_add(read.value->size(), std::memory_order_relaxed);
          break;
        case LookupState::kDeleted:
          *read.status = Status::NotFound();
          break;
        case LookupState::kNotFound:
        case LookupState::kMergePartial:
          pending.push_back(std::move(read));
          break;
      }
    }
    if (!pending.empty()) {
      version = current_;  // one snapshot covers every SSTable lookup below
    }
  }
  if (!pending.empty()) {
    SearchTablesUnlocked(*version, pending.data(), pending.size(), options);
  }
  Status first_error;
  for (size_t i = 0; i < n; ++i) {
    const Status& s = (*statuses)[i];
    if (!s.ok() && !s.IsNotFound() && first_error.ok()) {
      first_error = s;
    }
  }
  NoteBatch(n);
  return first_error;
}

void LsmStore::SearchTablesUnlocked(const Version& version, KeyRead* reads, size_t n,
                                    const ReadOptions& options) {
  // The next table in `r`'s shadowing order whose key range holds its key,
  // or nullptr once every level is walked: L0 newest first, then at most one
  // file per sorted level. The caller's snapshot keeps every FileMeta alive.
  const auto& l0 = version.levels[0];
  const size_t slots = l0.size() + version.levels.size() - 1;
  auto next_table = [&](KeyRead* r) -> SSTableReader* {
    while (r->next_table < slots) {
      const size_t slot = r->next_table++;
      const FileMeta* f = nullptr;
      if (slot < l0.size()) {
        f = l0[l0.size() - 1 - slot].get();
      } else {
        const auto& files = version.levels[slot - l0.size() + 1];
        auto it = std::lower_bound(files.begin(), files.end(), r->key,
                                   [](const std::shared_ptr<FileMeta>& m, std::string_view k) {
                                     return std::string_view(m->largest) < k;
                                   });
        if (it == files.end()) {
          continue;
        }
        f = it->get();
      }
      if (r->key >= std::string_view(f->smallest) && r->key <= std::string_view(f->largest)) {
        return f->reader.get();
      }
    }
    return nullptr;
  };

  // Resolves `r`. A table's base value is already in *r->value and the
  // operands go after it; a tombstone or the end of the walk supplies an
  // empty base instead, so the operands are the value, and with no operands
  // to apply to it the key is absent.
  auto finish = [&](KeyRead* r, bool has_base) {
    r->done = true;
    if (has_base) {
      r->value->append(r->acc.bytes);
    } else if (r->acc.any) {
      r->value->swap(r->acc.bytes);
    } else {
      *r->status = Status::NotFound();
      return;
    }
    read_bytes_.fetch_add(r->value->size(), std::memory_order_relaxed);
  };
  auto fail = [](KeyRead* r, const Status& s) {
    *r->status = s;
    r->done = true;
  };
  // Applies one table's data block: a value or a tombstone resolves the key,
  // and operands from this table, older than every one stacked so far, go
  // in front of them (SearchBlock puts them there).
  auto apply_block = [&](KeyRead* r, std::string_view block, const std::string& path) {
    auto st = SSTableReader::SearchBlock(block, r->key, r->value, &r->acc, path);
    if (!st.ok()) {
      fail(r, st.status());
      return;
    }
    switch (*st) {
      case LookupState::kNotFound:
        break;
      case LookupState::kFound:
        finish(r, /*has_base=*/true);
        break;
      case LookupState::kDeleted:
        finish(r, /*has_base=*/false);
        break;
      case LookupState::kMergePartial:
        break;
    }
  };

  // One round: every unresolved key walks its tables through the pool until
  // it resolves, exhausts, or misses — all of a round's misses (deduplicated
  // per block) then form one batched I/O wave. Each landed block strictly
  // advances or resolves its waiters, so rounds terminate.
  struct WaveBlock {
    SSTableReader* reader = nullptr;
    uint64_t offset = 0;
    IoRead io;
    std::vector<KeyRead*> waiters;
  };
  for (;;) {
    std::vector<WaveBlock> wave;
    std::map<std::pair<SSTableReader*, uint64_t>, size_t> block_index;
    for (KeyRead* r = reads; r != reads + n; ++r) {
      while (!r->done) {
        SSTableReader* reader = next_table(r);
        if (reader == nullptr) {
          finish(r, /*has_base=*/false);
          break;
        }
        uint64_t offset = 0;
        uint32_t size = 0;
        if (!reader->FindDataBlock(r->key, &offset, &size)) {
          continue;  // bloom/index miss: no I/O for this table
        }
        PinnedBlock cached = reader->CacheLookup(offset);
        if (cached) {
          apply_block(r, cached.data(), reader->path());
          continue;
        }
        // Pool miss: join (or start) this round's wave entry for the block
        // and stop walking until the wave lands.
        auto [it, inserted] = block_index.try_emplace({reader, offset}, wave.size());
        if (inserted) {
          WaveBlock& b = wave.emplace_back();
          b.reader = reader;
          b.offset = offset;
          b.io.fd = reader->fd();
          b.io.offset = offset;
          b.io.length = size;
        }
        wave[it->second].waiters.push_back(r);
        break;
      }
    }
    if (wave.empty()) {
      return;  // every key resolved
    }
    std::vector<IoRead*> ios;
    ios.reserve(wave.size());
    for (WaveBlock& b : wave) {
      ios.push_back(&b.io);
    }
    pool_->io().ReadBatch(ios);
    for (WaveBlock& b : wave) {
      Status s = b.io.status;
      if (s.ok()) {
        s = SSTableReader::VerifyAndStripChecksum(&b.io.out, options.verify_checksums,
                                                  b.reader->path());
      }
      if (!s.ok()) {
        for (KeyRead* w : b.waiters) {
          fail(w, s);
        }
        continue;
      }
      PinnedBlock inserted;
      if (options.fill_cache) {
        inserted = b.reader->CacheInsert(b.offset, std::move(b.io.out));
      }
      const std::string_view view =
          inserted ? inserted.data() : std::string_view(b.io.out);
      for (KeyRead* w : b.waiters) {
        apply_block(w, view, b.reader->path());
      }
    }
  }
}

// -------------------------------------------------------------------- flush

StatusOr<std::shared_ptr<FileMeta>> LsmStore::BuildTableFromMem(const MemTable& mem,
                                                                uint64_t number) {
  const std::string path = SstPath(dir_, number);
  SSTableBuilder builder(path, opts_.block_size, opts_.bloom_bits_per_key);
  Status add_status;
  mem.ForEachFlushRecord([&](const MemTable::FlushRecord& rec) {
    if (add_status.ok()) {
      add_status = builder.Add(rec.key, rec.type, rec.value);
    }
  });
  GADGET_RETURN_IF_ERROR(add_status);
  GADGET_RETURN_IF_ERROR(builder.Finish());

  auto meta = std::make_shared<FileMeta>();
  meta->number = number;
  meta->size = builder.file_size();
  meta->entries = builder.num_entries();
  meta->tombstones = builder.num_tombstones();
  meta->created_ms = NowMs();
  meta->smallest = builder.smallest();
  meta->largest = builder.largest();
  meta->path = path;
  auto reader = SSTableReader::Open(path, number, pool_.get());
  if (!reader.ok()) {
    return reader.status();
  }
  meta->reader = std::move(*reader);
  return meta;
}

void LsmStore::FlusherThread() {
  mu_.Lock();
  for (;;) {
    while (bg_error_.ok() && !closing_ && (imm_.empty() || flusher_paused_)) {
      flush_cv_.Wait();
    }
    if (!bg_error_.ok()) {
      // Poisoned store: stop flushing. The queued memtables' WAL generations
      // stay live in the manifest, so their data survives for recovery.
      if (closing_) {
        mu_.Unlock();
        return;
      }
      flush_cv_.Wait();
      continue;
    }
    if (imm_.empty()) {
      if (closing_) {
        mu_.Unlock();
        return;
      }
      continue;
    }
    // closing_ with a non-empty queue still flushes: Close() drains the
    // queue (the test pause is ignored) before its final memtable flush.
    const MemTable* mem = imm_.front().mem.get();
    const uint64_t wal_gen = imm_.front().wal_number;
    const uint64_t number = next_file_number_++;
    auto flush_start = MonoClock::now();
    mu_.Unlock();
    // Safe off-lock: the sealed memtable is immutable and only this thread
    // pops the queue entry, so readers keep probing it under mu_ while the
    // SSTable is built.
    auto meta = BuildTableFromMem(*mem, number);
    // The new SSTable's directory entry must be durable before the manifest
    // that references it: the builder fsyncs the file's data, but only a
    // directory fsync persists the entry, and recovery cannot open a
    // manifest-listed file whose entry a crash erased.
    Status dir_sync = meta.ok() ? SyncDir(dir_) : Status::Ok();
    mu_.Lock();
    std::unique_ptr<MemTable> retired;
    Status s = !dir_sync.ok()
                   ? dir_sync
                   : (meta.ok() ? InstallFlushLocked(std::move(*meta), &retired) : meta.status());
    if (s.ok()) {
      ++stats_.flushes;
      stats_.flush_micros += MicrosSince(flush_start);
    } else if (bg_error_.ok()) {
      bg_error_ = s;
    }
    stall_cv_.SignalAll();  // writers waiting for queue room, Flush() waiters
    work_cv_.SignalAll();   // L0 may have reached the compaction trigger
    mu_.Unlock();
    // Freeing every entry of a large memtable takes tens of milliseconds;
    // nothing reaches it once it has left imm_, so it is freed unlocked.
    retired.reset();
    if (s.ok()) {
      // The generation's records are durable in the SSTable and the manifest
      // that stops listing it is durable (SaveManifest returns only after the
      // rename's directory entry is synced), so the log is dead weight. This
      // ordering — durable manifest first, unlink second — is what closes
      // the resurrection window: a crash here leaves a stale log that the
      // recovery floor rule skips.
      // status intentionally ignored: failing to unlink a dead log wastes
      // disk but loses nothing — recovery's floor rule skips stale logs.
      (void)RemoveFile(WalPath(dir_, wal_gen));
    }
    mu_.Lock();
  }
}

Status LsmStore::InstallFlushLocked(std::shared_ptr<FileMeta> meta,
                                    std::unique_ptr<MemTable>* retired) {
  stats_.io_bytes_written += meta->size;
  auto version = std::make_shared<Version>(*current_);
  version->levels[0].push_back(std::move(meta));
  current_ = std::move(version);
  *retired = std::move(imm_.front().mem);
  imm_.pop_front();
  return PersistManifestLocked();
}

Status LsmStore::FlushActiveMemLocked() {
  if (mem_->empty()) {
    return Status::Ok();
  }
  auto flush_start = MonoClock::now();
  const uint64_t number = next_file_number_++;
  auto meta = BuildTableFromMem(*mem_, number);
  if (!meta.ok()) {
    return meta.status();
  }
  // New SSTable's directory entry before the manifest that references it.
  GADGET_RETURN_IF_ERROR(SyncDir(dir_));
  stats_.io_bytes_written += (*meta)->size;
  auto version = std::make_shared<Version>(*current_);
  version->levels[0].push_back(std::move(*meta));
  current_ = std::move(version);
  mem_ = std::make_unique<MemTable>();
  ++stats_.flushes;
  stats_.flush_micros += MicrosSince(flush_start);

  // Rotate the WAL: records up to here are now durable in the SSTable.
  // During Recover() the new-generation WAL does not exist yet (the replayed
  // logs are removed by the caller), so rotation is skipped.
  if (wal_ != nullptr) {
    stats_.wal_bytes += wal_->size();
    stats_.wal_fsyncs += wal_->fsyncs();
    Status close_status = wal_->Close();
    wal_.reset();
    GADGET_RETURN_IF_ERROR(close_status);
    uint64_t old_wal = wal_number_;
    wal_number_ = next_file_number_++;
    auto wal = WalWriter::Create(WalPath(dir_, wal_number_));
    if (!wal.ok()) {
      return wal.status();
    }
    wal_ = std::move(*wal);
    GADGET_RETURN_IF_ERROR(PersistManifestLocked());
    // The unlink happens only after the manifest that stops listing the old
    // generation is durable (SaveManifest dir-syncs the rename) — a crash
    // here cannot resurrect a manifest that still needs the deleted log.
    // status intentionally ignored: the manifest no longer lists the old
    // generation, so a leftover file is skipped by recovery and re-deleted.
    (void)RemoveFile(WalPath(dir_, old_wal));
    return Status::Ok();
  }
  return PersistManifestLocked();
}

// --------------------------------------------------------------- compaction

uint64_t LsmStore::MaxBytesForLevel(int level) const {
  double bytes = static_cast<double>(opts_.max_bytes_level_base);
  for (int l = 1; l < level; ++l) {
    bytes *= opts_.level_size_multiplier;
  }
  return static_cast<uint64_t>(bytes);
}

bool LsmStore::PickCompactionLocked(CompactionJob* job) {
  const Version& v = *current_;

  auto add_overlaps = [&](int level, const std::string& begin, const std::string& end) {
    for (const auto& f : v.levels[static_cast<size_t>(level)]) {
      if (Overlaps(*f, begin, end)) {
        job->inputs.push_back(f);
      }
    }
  };
  auto compute_bottommost = [&](int output_level, const std::string& begin,
                                const std::string& end) {
    for (int l = output_level + 1; l < opts_.num_levels; ++l) {
      for (const auto& f : v.levels[static_cast<size_t>(l)]) {
        if (Overlaps(*f, begin, end)) {
          return false;
        }
      }
    }
    return true;
  };

  // All of L0, newest first, into L1. A partial L0 compaction would re-order
  // shadowing (a newer L0 record must never end up below an older L0 file).
  auto pick_l0 = [&] {
    for (auto it = v.levels[0].rbegin(); it != v.levels[0].rend(); ++it) {
      job->inputs.push_back(*it);
    }
    std::string begin = job->inputs.front()->smallest;
    std::string end = job->inputs.front()->largest;
    for (const auto& f : job->inputs) {
      begin = std::min(begin, f->smallest);
      end = std::max(end, f->largest);
    }
    add_overlaps(1, begin, end);
    job->output_level = 1;
    job->bottommost = compute_bottommost(1, begin, end);
  };
  // One file of sorted level `level` into the next level.
  auto pick_file = [&](int level, const std::shared_ptr<FileMeta>& file) {
    job->inputs.push_back(file);
    add_overlaps(level + 1, file->smallest, file->largest);
    job->output_level = level + 1;
    job->bottommost = compute_bottommost(level + 1, file->smallest, file->largest);
  };

  // Rule 1: L0 file count.
  if (v.levels[0].size() >= static_cast<size_t>(opts_.l0_compaction_trigger)) {
    pick_l0();
    return true;
  }

  // Rule 2: level sizes.
  for (int l = 1; l < opts_.num_levels - 1; ++l) {
    const auto& files = v.levels[static_cast<size_t>(l)];
    if (files.empty() || v.LevelBytes(l) <= MaxBytesForLevel(l)) {
      continue;
    }
    size_t& cursor = compact_cursor_[static_cast<size_t>(l)];
    if (cursor >= files.size()) {
      cursor = 0;
    }
    pick_file(l, files[cursor++]);
    return true;
  }

  // Rule 3 (Lethe): force-compact files whose tombstones outlived the delete
  // persistence threshold; an aged L0 tombstone takes all of L0 with it.
  if (opts_.delete_aware) {
    uint64_t now = NowMs();
    for (int l = 0; l < opts_.num_levels - 1; ++l) {
      for (const auto& f : v.levels[static_cast<size_t>(l)]) {
        if (f->tombstones == 0 || now - f->created_ms <= opts_.delete_persistence_ms) {
          continue;
        }
        if (l == 0) {
          pick_l0();
        } else {
          pick_file(l, f);
        }
        return true;
      }
    }
  }
  return false;
}

Status LsmStore::DoCompaction(const CompactionJob& job,
                              std::vector<std::shared_ptr<FileMeta>>* outputs) {
  // Partition the key range at input-file smallest-key boundaries: every key
  // falls into exactly one sub-range, so the per-key merge/shadowing logic
  // never sees a key split across subcompactions.
  std::vector<std::string> bounds;  // interior boundaries, ascending
  const size_t want = static_cast<size_t>(std::max(1, opts_.compaction_threads));
  if (want > 1 && job.inputs.size() > 1) {
    std::vector<std::string> candidates;
    candidates.reserve(job.inputs.size());
    for (const auto& f : job.inputs) {
      candidates.push_back(f->smallest);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    candidates.erase(candidates.begin());  // the global minimum is not interior
    const size_t subs = std::min(want, candidates.size() + 1);
    for (size_t j = 1; j < subs; ++j) {
      bounds.push_back(candidates[j * candidates.size() / subs]);
    }
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  }

  const size_t n = bounds.size() + 1;
  if (n == 1) {
    return RunSubcompaction(job, "", /*has_end=*/false, "", outputs);
  }

  std::vector<std::vector<std::shared_ptr<FileMeta>>> sub_outputs(n);
  std::vector<Status> sub_status(n);
  auto run = [&](size_t i) {
    const std::string_view begin =
        i == 0 ? std::string_view() : std::string_view(bounds[i - 1]);
    const bool has_end = i + 1 < n;
    const std::string_view end = has_end ? std::string_view(bounds[i]) : std::string_view();
    sub_status[i] = RunSubcompaction(job, begin, has_end, end, &sub_outputs[i]);
  };
  std::vector<std::thread> workers;
  workers.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) {
    workers.emplace_back(run, i);
  }
  run(0);  // the calling thread takes the first range
  for (auto& t : workers) {
    t.join();
  }
  // Concatenating in range order yields global key order across outputs.
  // Partial outputs are returned even on error so the caller can mark them
  // obsolete.
  for (size_t i = 0; i < n; ++i) {
    for (auto& f : sub_outputs[i]) {
      outputs->push_back(std::move(f));
    }
  }
  for (const Status& s : sub_status) {
    GADGET_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

Status LsmStore::RunSubcompaction(const CompactionJob& job, std::string_view begin,
                                  bool has_end, std::string_view end,
                                  std::vector<std::shared_ptr<FileMeta>>* outputs) {
  // One iterator per input that intersects [begin, end), preserving the
  // newest-first input order (shadowing between inputs is positional).
  std::vector<std::unique_ptr<SSTableIterator>> iters;
  std::vector<const FileMeta*> files;  // parallel to iters: created_ms source
  for (const auto& f : job.inputs) {
    if (has_end && std::string_view(f->smallest) >= end) {
      continue;
    }
    if (!begin.empty() && std::string_view(f->largest) < begin) {
      continue;
    }
    iters.push_back(std::make_unique<SSTableIterator>(f->reader));
    files.push_back(f.get());
  }
  if (!begin.empty()) {
    for (auto& it : iters) {
      while (it->Valid() && it->key() < begin) {
        it->Next();
      }
      GADGET_RETURN_IF_ERROR(it->status());
    }
  }

  std::unique_ptr<SSTableBuilder> builder;
  uint64_t builder_number = 0;
  uint64_t min_tombstone_created = ~0ULL;
  bool output_has_tombstones = false;

  auto open_builder = [&]() -> Status {
    // File numbers come from the shared counter; this is the only store
    // state a subcompaction touches, so the critical section is tiny.
    MutexLock lock(&mu_);
    builder_number = next_file_number_++;
    builder = std::make_unique<SSTableBuilder>(SstPath(dir_, builder_number), opts_.block_size,
                                               opts_.bloom_bits_per_key);
    return Status::Ok();
  };
  auto close_builder = [&]() -> Status {
    if (builder == nullptr || builder->num_entries() == 0) {
      if (builder != nullptr) {
        GADGET_RETURN_IF_ERROR(builder->Finish());
        // status intentionally ignored: the empty output was never installed
        // in any version, so a leftover file is inert garbage.
        (void)RemoveFile(SstPath(dir_, builder_number));
        builder.reset();
      }
      return Status::Ok();
    }
    GADGET_RETURN_IF_ERROR(builder->Finish());
    auto meta = std::make_shared<FileMeta>();
    meta->number = builder_number;
    meta->size = builder->file_size();
    meta->entries = builder->num_entries();
    meta->tombstones = builder->num_tombstones();
    meta->created_ms = output_has_tombstones ? min_tombstone_created : NowMs();
    meta->smallest = builder->smallest();
    meta->largest = builder->largest();
    meta->path = SstPath(dir_, builder_number);
    auto reader = SSTableReader::Open(meta->path, meta->number, pool_.get());
    if (!reader.ok()) {
      return reader.status();
    }
    meta->reader = std::move(*reader);
    outputs->push_back(std::move(meta));
    builder.reset();
    output_has_tombstones = false;
    min_tombstone_created = ~0ULL;
    return Status::Ok();
  };

  auto emit = [&](std::string_view key, RecType type, std::string_view value,
                  uint64_t source_created_ms) -> Status {
    if (builder == nullptr) {
      GADGET_RETURN_IF_ERROR(open_builder());
    }
    if (type == RecType::kTombstone) {
      output_has_tombstones = true;
      min_tombstone_created = std::min(min_tombstone_created, source_created_ms);
    }
    GADGET_RETURN_IF_ERROR(builder->Add(key, type, value));
    return Status::Ok();
  };

  uint64_t emitted_bytes = 0;
  Operands pending;
  std::string merged_value;

  for (;;) {
    // Find the smallest key among valid iterators.
    std::string_view min_key;
    bool any = false;
    for (const auto& it : iters) {
      if (!it->Valid()) {
        continue;
      }
      if (!any || it->key() < min_key) {
        min_key = it->key();
        any = true;
      }
    }
    if (!any || (has_end && min_key >= end)) {
      break;  // range exhausted; keys >= end belong to the next subcompaction
    }
    const std::string key(min_key);  // own it: iterators advance below

    // Combine records for this key, newest input first.
    pending.bytes.clear();
    pending.any = false;
    bool resolved = false;
    bool drop = false;
    RecType out_type = RecType::kValue;
    merged_value.clear();
    uint64_t tomb_created = NowMs();

    for (size_t i = 0; i < iters.size(); ++i) {
      auto& it = iters[i];
      if (!it->Valid() || it->key() != std::string_view(key)) {
        continue;
      }
      if (!resolved) {
        switch (it->type()) {
          case RecType::kValue:
            merged_value.assign(it->value());
            merged_value.append(pending.bytes);
            out_type = RecType::kValue;
            resolved = true;
            break;
          case RecType::kTombstone:
            tomb_created = files[i]->created_ms;
            if (!pending.any) {
              if (job.bottommost) {
                drop = true;
              } else {
                out_type = RecType::kTombstone;
                merged_value.clear();
              }
            } else {
              out_type = RecType::kValue;
              merged_value.swap(pending.bytes);
            }
            resolved = true;
            break;
          case RecType::kMergeStack:
            // This record is older than everything in `pending`: its
            // operands go in front.
            if (!DecodeMergeStack(it->value(), &pending)) {
              return Status::Corruption("bad merge stack during compaction");
            }
            break;
        }
      }
      it->Next();
      if (!it->status().ok()) {
        return it->status();
      }
    }

    if (!resolved) {
      if (job.bottommost) {
        out_type = RecType::kValue;
        merged_value.swap(pending.bytes);
      } else {
        // The operands as one; a stack that held none (no writer emits
        // one) stays empty.
        out_type = RecType::kMergeStack;
        if (pending.any) {
          EncodeMergeStack(pending.bytes, &merged_value);
        }
      }
    }
    if (!drop) {
      GADGET_RETURN_IF_ERROR(emit(key, out_type, merged_value,
                                  out_type == RecType::kTombstone ? tomb_created : NowMs()));
      emitted_bytes += key.size() + merged_value.size() + 8;
      if (emitted_bytes >= opts_.target_file_size) {
        GADGET_RETURN_IF_ERROR(close_builder());
        emitted_bytes = 0;
      }
    }
  }
  GADGET_RETURN_IF_ERROR(close_builder());
  return Status::Ok();
}

void LsmStore::InstallCompactionLocked(const CompactionJob& job,
                                       std::vector<std::shared_ptr<FileMeta>> outputs) {
  auto version = std::make_shared<Version>(*current_);
  auto is_input = [&](const std::shared_ptr<FileMeta>& f) {
    for (const auto& in : job.inputs) {
      if (in->number == f->number) {
        return true;
      }
    }
    return false;
  };
  for (auto& level : version->levels) {
    level.erase(std::remove_if(level.begin(), level.end(), is_input), level.end());
  }
  auto& out_level = version->levels[static_cast<size_t>(job.output_level)];
  for (auto& f : outputs) {
    stats_.io_bytes_written += f->size;
    out_level.push_back(std::move(f));
  }
  std::sort(out_level.begin(), out_level.end(),
            [](const auto& a, const auto& b) { return a->smallest < b->smallest; });
  current_ = std::move(version);
  ++stats_.compactions;
  for (const auto& in : job.inputs) {
    stats_.io_bytes_read += in->size;
  }
  Status s = PersistManifestLocked();
  if (!s.ok() && bg_error_.ok()) {
    bg_error_ = s;
  }
  // Inputs become deletable (FileMeta dtor unlinks obsolete files) only once
  // the manifest that stops listing them is durable; if the persist failed,
  // the durable manifest still references them and they must stay on disk.
  if (s.ok()) {
    for (const auto& in : job.inputs) {
      in->obsolete.store(true, std::memory_order_release);
    }
  }
}

void LsmStore::CompactionThread() {
  mu_.Lock();
  while (!closing_) {
    CompactionJob job;
    if (!bg_error_.ok() || !PickCompactionLocked(&job)) {
      // Time-bounded wait: Lethe's age-based trigger needs periodic checks.
      work_cv_.WaitFor(std::chrono::milliseconds(200));
      continue;
    }
    mu_.Unlock();

    auto compaction_start = MonoClock::now();
    std::vector<std::shared_ptr<FileMeta>> outputs;
    Status s = DoCompaction(job, &outputs);
    if (s.ok()) {
      // Output SSTables' directory entries before the version edit that
      // references them (same rule as the flush path).
      s = SyncDir(dir_);
    }
    uint64_t compaction_micros = MicrosSince(compaction_start);

    mu_.Lock();
    stats_.compaction_micros += compaction_micros;
    if (s.ok()) {
      InstallCompactionLocked(job, std::move(outputs));
    } else {
      GADGET_LOG(Error) << "compaction failed: " << s.ToString();
      if (bg_error_.ok()) {
        bg_error_ = s;
      }
      // Drop any partially written outputs.
      for (const auto& f : outputs) {
        f->obsolete.store(true, std::memory_order_release);
      }
    }
    stall_cv_.SignalAll();
  }
  mu_.Unlock();
}

// ------------------------------------------------------------------- admin

Status LsmStore::Flush() {
  MutexLock lock(&mu_);
  // Drain the whole pipeline: in-flight commit groups AND sealed memtables
  // (older data must reach L0 before the active memtable does). Both must be
  // empty in the same critical section — an empty writer queue is also what
  // guarantees no leader is mid-append with its wal_ pointer while we rotate
  // the log below (groups are only popped under mu_ after the append).
  while ((!writers_.empty() || !imm_.empty()) && bg_error_.ok() && !closing_) {
    flush_cv_.SignalAll();
    stall_cv_.Wait();
  }
  if (!bg_error_.ok()) {
    return bg_error_;
  }
  if (closing_) {
    return Status::Internal("store is closed");
  }
  return FlushActiveMemLocked();
}

StatusOr<CheckpointInfo> LsmStore::Checkpoint(const std::string& dir,
                                              const CheckpointOptions& options) {
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  auto existing = ListDir(dir);
  if (!existing.ok()) {
    return existing.status();
  }
  if (!existing->empty()) {
    return Status::InvalidArgument("checkpoint dir not empty: " + dir);
  }

  CheckpointInfo info;
  ManifestData data;
  std::shared_ptr<const Version> version;
  {
    MutexLock lock(&mu_);
    if (closing_) {
      return Status::Internal("store is closed");
    }
    GADGET_RETURN_IF_ERROR(bg_error_);
    // Snapshot the file layout. The Version shared_ptr keeps every
    // referenced SSTable alive (FileMeta only unlinks once the last snapshot
    // drops), so the hard-linking below runs with mu_ released.
    version = current_;
    data.next_file_number = next_file_number_;
    for (const auto& im : imm_) {
      data.wal_numbers.push_back(im.wal_number);
    }
    if (wal_ != nullptr) {
      data.wal_numbers.push_back(wal_number_);
    }
    // Copy the live WAL generations while still holding mu_: the flusher
    // retires a generation only through InstallFlushLocked (which needs
    // mu_), so every file listed above exists for the duration of the copy.
    // A leader may be appending to the active generation off-lock, but a
    // group is one CRC-framed record whose bytes are in the mapped log
    // before any writer in it is acknowledged — the copy therefore captures
    // every acknowledged write, and at worst a torn tail of an in-flight
    // (unacknowledged) group, which replay discards exactly as after a
    // crash. The active generation's file ends in its reserved zero tail,
    // which the copy leaves out: the sealed generations are closed, and so
    // truncated to their records.
    for (uint64_t n : data.wal_numbers) {
      std::string bytes;
      GADGET_RETURN_IF_ERROR(ReadFileToString(WalPath(dir_, n), &bytes));
      if (wal_ != nullptr && n == wal_number_) {
        bytes.resize(std::min<uint64_t>(bytes.size(), wal_->size()));
      }
      GADGET_RETURN_IF_ERROR(WriteStringToFile(WalPath(dir, n), bytes, /*sync=*/true));
      info.bytes += bytes.size();
      ++info.files;
    }
  }
  // SSTables are immutable: capture them by hard link (byte copy across
  // filesystems) without blocking writers. Incremental mode links unchanged
  // files from the previous checkpoint instead of the live tree; either way
  // no data is copied on the same filesystem.
  for (int l = 0; l < opts_.num_levels; ++l) {
    for (const auto& f : version->levels[static_cast<size_t>(l)]) {
      std::string from = f->path;
      bool reused = false;
      if (!options.base_dir.empty()) {
        auto base_size = FileSize(SstPath(options.base_dir, f->number));
        if (base_size.ok() && *base_size == f->size) {
          from = SstPath(options.base_dir, f->number);
          reused = true;
        }
      }
      bool linked = false;
      GADGET_RETURN_IF_ERROR(LinkOrCopyFile(from, SstPath(dir, f->number), &linked));
      info.bytes += f->size;
      ++info.files;
      if (linked) {
        ++info.hard_links;
      }
      if (reused) {
        ++info.reused;
      }
      data.files.push_back({l, f->number, f->size, f->entries, f->tombstones, f->created_ms,
                            f->smallest, f->largest});
    }
  }
  // The manifest goes last: SaveManifest fsyncs it and then the checkpoint
  // directory, making every entry above (WAL copies, SSTable links) durable
  // in one sweep. A crash mid-checkpoint leaves a directory without a
  // MANIFEST, which RestoreStore rejects as incomplete.
  GADGET_RETURN_IF_ERROR(SaveManifest(dir, data));
  auto manifest_size = FileSize(dir + "/MANIFEST");
  if (!manifest_size.ok()) {
    return manifest_size.status();
  }
  info.bytes += *manifest_size;
  ++info.files;
  return info;
}

Status LsmStore::Close() {
  mu_.Lock();
  if (closing_) {
    mu_.Unlock();
    return Status::Ok();
  }
  closing_ = true;
  // Wake everything: stalled/slowed writers fail out, the flusher drains the
  // immutable queue, the compaction thread exits after its current job.
  stall_cv_.SignalAll();
  flush_cv_.SignalAll();
  work_cv_.SignalAll();
  if (!writers_.empty()) {
    writers_.front()->cv.Signal();
  }
  while (!writers_.empty()) {
    stall_cv_.Wait();
  }
  mu_.Unlock();
  if (flusher_thread_.joinable()) {
    flusher_thread_.join();
  }
  if (compaction_thread_.joinable()) {
    compaction_thread_.join();
  }
  mu_.Lock();
  Status s;
  if (imm_.empty() && bg_error_.ok()) {
    s = FlushActiveMemLocked();
  } else if (!bg_error_.ok()) {
    // Poisoned: leave the WAL generations in place (and listed live in the
    // last-persisted manifest) so recovery replays them.
    s = bg_error_;
  }
  if (wal_ != nullptr) {
    stats_.wal_bytes += wal_->size();
    stats_.wal_fsyncs += wal_->fsyncs();
    Status ws = wal_->Close();
    if (s.ok()) {
      s = ws;
    }
    wal_.reset();  // accounting folded in; stats() must not add it again
  }
  mu_.Unlock();
  return s;
}

StoreStats LsmStore::stats() const {
  MutexLock lock(&mu_);
  StoreStats out = stats_;
  out.bytes_read += read_bytes_.load(std::memory_order_relaxed);
  // Pool-wide totals: with a shared pool these cover every attached store
  // (the pool is one resource; per-store attribution would be fiction).
  out.cache_hits = pool_->hits();
  out.cache_misses = pool_->misses();
  out.cache_evictions = pool_->evictions();
  out.cache_pins = pool_->pins();
  out.io_batches = pool_->io().batches();
  out.io_in_flight_max = pool_->io().in_flight_max();
  if (wal_ != nullptr) {  // live generation: not yet folded by rotation
    out.wal_bytes += wal_->size();
    out.wal_fsyncs += wal_->fsyncs();
  }
  out.level_files.reserve(current_->levels.size());
  for (const auto& level : current_->levels) {
    out.level_files.push_back(level.size());
  }
  FoldBatchStats(&out);
  return out;
}

int LsmStore::NumFilesAtLevel(int level) const {
  MutexLock lock(&mu_);
  return static_cast<int>(current_->levels[static_cast<size_t>(level)].size());
}

uint64_t LsmStore::TotalSstBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& level : current_->levels) {
    for (const auto& f : level) {
      total += f->size;
    }
  }
  return total;
}

size_t LsmStore::TEST_NumImmutables() const {
  MutexLock lock(&mu_);
  return imm_.size();
}

void LsmStore::TEST_PauseFlusher(bool paused) {
  {
    MutexLock lock(&mu_);
    flusher_paused_ = paused;
  }
  flush_cv_.SignalAll();
}

}  // namespace gadget
