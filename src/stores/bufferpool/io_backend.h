// Batched block-read backend for the buffer pool: callers hand over a set of
// (fd, offset, length) reads and block until every one has completed, turning
// N cache misses into one I/O wave instead of N serial preads.
//
// One path per host, chosen by a runtime probe at construction:
//   io_uring   one submission syscall per wave (raw io_uring_setup/enter —
//              no liburing dependency). Compiled in when <linux/io_uring.h>
//              exists.
//   threads    two persistent pread workers: the fallback when the kernel
//              or a seccomp profile refuses io_uring_setup.
// A one-read wave skips both and preads on the caller's thread.
//
// The backend is intentionally synchronous at the batch level (submit, wait,
// return): the read path needs all blocks of a wave before it can resolve
// lookups, and a blocking batch keeps the pool free of completion callbacks.
#ifndef GADGET_STORES_BUFFERPOOL_IO_BACKEND_H_
#define GADGET_STORES_BUFFERPOOL_IO_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace gadget {

// One positional read. `out` is sized to `length` by the backend; `status`
// carries the per-read outcome (short reads fail — block reads know their
// exact size).
struct IoRead {
  int fd = -1;
  uint64_t offset = 0;
  uint32_t length = 0;
  std::string out;
  Status status;
};

class IoBackend {
 public:
  // Probes io_uring and serves waves through a ring when the kernel allows
  // it, through the pread workers otherwise. `try_io_uring = false` skips the
  // probe, which is how tests reach the fallback on an io_uring host.
  explicit IoBackend(bool try_io_uring = true);
  ~IoBackend();
  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  // Issues every read and blocks until all have completed. Per-read results
  // land in each IoRead::status/out. Reads may complete in any order.
  void ReadBatch(const std::vector<IoRead*>& reads);

  // True when waves are served by io_uring (probe succeeded).
  bool using_io_uring() const { return ring_fd_ >= 0; }

  // Counters surfaced through StoreStats: batches issued, reads completed,
  // and the largest number of reads ever in flight at once.
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t in_flight_max() const { return in_flight_max_.load(std::memory_order_relaxed); }

 private:
  struct Batch {
    size_t remaining = 0;
  };
  struct WorkItem {
    IoRead* read = nullptr;
    Batch* batch = nullptr;
  };

  void WorkerLoop();
  void ReadBatchThreads(const std::vector<IoRead*>& reads);
  void ReadBatchUring(const std::vector<IoRead*>& reads) EXCLUDES(ring_mu_);
  void NoteBatch(size_t n);

  // io_uring state (ring_fd_ < 0 when unavailable). The ring is single-issuer:
  // ring_mu_ serializes whole waves.
  Mutex ring_mu_;
  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  void* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  void* cqes_ = nullptr;

  // Thread-pool state.
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::deque<WorkItem> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> in_flight_max_{0};
};

}  // namespace gadget

#endif  // GADGET_STORES_BUFFERPOOL_IO_BACKEND_H_
