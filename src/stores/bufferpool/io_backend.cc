#include "src/stores/bufferpool/io_backend.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "src/common/file_util.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#if defined(__NR_io_uring_setup) && defined(__NR_io_uring_enter)
#define GADGET_HAVE_IO_URING 1
#endif
#endif

namespace gadget {
namespace {

// Width of the pread fallback.
constexpr int kPreadWorkers = 2;

// Block reads always know their exact length, so a short read is
// corruption, not EOF handling.
Status ReadWhole(IoRead* r) {
  r->out.resize(r->length);
  return PreadAll(r->fd, r->out.data(), r->length, r->offset);
}

#ifdef GADGET_HAVE_IO_URING
unsigned LoadAcquire(const unsigned* p) { return __atomic_load_n(p, __ATOMIC_ACQUIRE); }
void StoreRelease(unsigned* p, unsigned v) { __atomic_store_n(p, v, __ATOMIC_RELEASE); }
#endif

}  // namespace

IoBackend::IoBackend(bool try_io_uring) : work_cv_(&mu_), done_cv_(&mu_) {
#ifdef GADGET_HAVE_IO_URING
  if (try_io_uring) {
    // Runtime probe: a kernel too old for IORING_OP_READ (< 5.6) or a seccomp
    // filter fails here, and we silently fall back to the worker pool.
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    long fd = ::syscall(__NR_io_uring_setup, 64u, &params);
    if (fd >= 0 && (params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      ring_fd_ = static_cast<int>(fd);
      sq_entries_ = params.sq_entries;
      cq_entries_ = params.cq_entries;
      sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
      cq_ring_bytes_ = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
      size_t ring_bytes = sq_ring_bytes_ > cq_ring_bytes_ ? sq_ring_bytes_ : cq_ring_bytes_;
      sq_ring_ = ::mmap(nullptr, ring_bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
      sqes_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
      sqes_ = ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                     ring_fd_, IORING_OFF_SQES);
      if (sq_ring_ == MAP_FAILED || sqes_ == MAP_FAILED) {
        if (sq_ring_ != MAP_FAILED) {
          ::munmap(sq_ring_, ring_bytes);
        }
        if (sqes_ != MAP_FAILED) {
          ::munmap(sqes_, sqes_bytes_);
        }
        ::close(ring_fd_);
        ring_fd_ = -1;
        sq_ring_ = nullptr;
        sqes_ = nullptr;
      } else {
        sq_ring_bytes_ = ring_bytes;  // single mmap serves both rings
        cq_ring_ = sq_ring_;
        cq_ring_bytes_ = 0;  // owned by the sq mapping
        char* sq = static_cast<char*>(sq_ring_);
        sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
        sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
        sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
        sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
        char* cq = static_cast<char*>(cq_ring_);
        cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
        cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
        cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
        cqes_ = cq + params.cq_off.cqes;
      }
    } else if (fd >= 0) {
      ::close(static_cast<int>(fd));
    }
  }
#else
  (void)try_io_uring;
#endif
  if (ring_fd_ < 0) {
    workers_.reserve(kPreadWorkers);
    for (int i = 0; i < kPreadWorkers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

IoBackend::~IoBackend() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& t : workers_) {
    t.join();
  }
#ifdef GADGET_HAVE_IO_URING
  if (ring_fd_ >= 0) {
    ::munmap(sq_ring_, sq_ring_bytes_);
    ::munmap(sqes_, sqes_bytes_);
    ::close(ring_fd_);
  }
#endif
}

void IoBackend::NoteBatch(size_t n) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  reads_.fetch_add(n, std::memory_order_relaxed);
  uint64_t cur = in_flight_max_.load(std::memory_order_relaxed);
  while (n > cur &&
         !in_flight_max_.compare_exchange_weak(cur, n, std::memory_order_relaxed)) {
  }
}

void IoBackend::ReadBatch(const std::vector<IoRead*>& reads) {
  if (reads.empty()) {
    return;
  }
  NoteBatch(reads.size());
  if (reads.size() == 1) {
    // A one-read wave gains nothing from submission machinery.
    reads[0]->status = ReadWhole(reads[0]);
    return;
  }
#ifdef GADGET_HAVE_IO_URING
  if (ring_fd_ >= 0) {
    ReadBatchUring(reads);
    return;
  }
#endif
  ReadBatchThreads(reads);
}

void IoBackend::ReadBatchThreads(const std::vector<IoRead*>& reads) {
  Batch batch;
  batch.remaining = reads.size();
  {
    MutexLock lock(&mu_);
    for (IoRead* r : reads) {
      queue_.push_back({r, &batch});
    }
  }
  work_cv_.SignalAll();
  MutexLock lock(&mu_);
  while (batch.remaining > 0) {
    done_cv_.Wait();
  }
}

void IoBackend::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !shutdown_) {
        work_cv_.Wait();
      }
      if (queue_.empty()) {
        return;  // shutdown with the queue drained
      }
      item = queue_.front();
      queue_.pop_front();
    }
    item.read->status = ReadWhole(item.read);
    {
      MutexLock lock(&mu_);
      --item.batch->remaining;
    }
    done_cv_.SignalAll();
  }
}

#ifdef GADGET_HAVE_IO_URING
void IoBackend::ReadBatchUring(const std::vector<IoRead*>& reads) {
  MutexLock lock(&ring_mu_);
  const size_t n = reads.size();
  for (IoRead* r : reads) {
    r->out.resize(r->length);
  }
  std::vector<char> done(n, 0);
  size_t filled = 0;     // SQEs written into the ring
  size_t completed = 0;  // CQEs reaped
  unsigned pending = 0;  // SQEs in the ring the kernel has not consumed yet
  while (completed < n) {
    // Fill as many SQEs as the ring holds, then make one enter() that both
    // submits and waits — the wave is a single syscall when it fits.
    unsigned tail = LoadAcquire(sq_tail_);
    while (filled < n && tail - LoadAcquire(sq_head_) < sq_entries_) {
      unsigned idx = tail & *sq_mask_;
      auto* sqe = reinterpret_cast<io_uring_sqe*>(static_cast<char*>(sqes_) +
                                                  idx * sizeof(io_uring_sqe));
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_READ;
      sqe->fd = reads[filled]->fd;
      sqe->off = reads[filled]->offset;
      sqe->addr = reinterpret_cast<uint64_t>(reads[filled]->out.data());
      sqe->len = reads[filled]->length;
      sqe->user_data = filled;
      sq_array_[idx] = idx;
      ++tail;
      ++pending;
      ++filled;
    }
    StoreRelease(sq_tail_, tail);
    unsigned want = static_cast<unsigned>(filled < n ? 1 : n - completed);
    long ret = ::syscall(__NR_io_uring_enter, ring_fd_, pending, want, IORING_ENTER_GETEVENTS,
                         nullptr, 0);
    if (ret >= 0) {
      pending -= static_cast<unsigned>(ret);
    } else if (errno != EINTR) {
      Status err = Status::IoError(std::string("io_uring_enter: ") + std::strerror(errno));
      for (size_t i = 0; i < n; ++i) {
        if (!done[i]) {
          reads[i]->status = err;
        }
      }
      return;
    }
    unsigned head = LoadAcquire(cq_head_);
    while (head != LoadAcquire(cq_tail_)) {
      const auto* cqe = reinterpret_cast<const io_uring_cqe*>(static_cast<const char*>(cqes_)) +
                        (head & *cq_mask_);
      IoRead* r = reads[cqe->user_data];
      if (cqe->res < 0) {
        r->status = Status::IoError(std::string("io_uring read: ") + std::strerror(-cqe->res));
      } else if (static_cast<uint32_t>(cqe->res) != r->length) {
        // Kernel reads can legally come back short; finish the tail with a
        // plain pread rather than resubmitting through the ring.
        const auto got = static_cast<uint32_t>(cqe->res);
        r->status = PreadAll(r->fd, r->out.data() + got, r->length - got, r->offset + got);
      } else {
        r->status = Status::Ok();
      }
      done[cqe->user_data] = 1;
      ++completed;
      ++head;
      StoreRelease(cq_head_, head);
    }
  }
}
#else
void IoBackend::ReadBatchUring(const std::vector<IoRead*>& reads) { ReadBatchThreads(reads); }
#endif

}  // namespace gadget
