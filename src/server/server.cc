#include "src/server/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/server/net/socket.h"
#include "src/server/wire.h"
#include "src/stores/op_coalescer.h"

namespace gadget {
namespace wire {
namespace {

using Clock = std::chrono::steady_clock;

// Gather-list cap per writev: a deep pipeline coalesces up to this many
// queued response bursts into one syscall. Far below IOV_MAX (1024); past a
// few dozen entries the syscall itself stops being the cost.
constexpr int kMaxIov = 64;

void UpdateMax(std::atomic<uint64_t>& gauge, uint64_t v) {
  uint64_t cur = gauge.load(std::memory_order_relaxed);
  while (cur < v &&
         !gauge.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Registers `fd` for reads on the epoll set `epfd`.
bool Watch(int epfd, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  return ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

// Process-wide net-layer counters (NetStats minus the per-thread gauges).
struct NetCounters {
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> writev_calls{0};
  std::atomic<uint64_t> frames_per_writev_max{0};
  std::atomic<uint64_t> outq_stall_micros{0};
  std::atomic<uint64_t> outq_bytes_max{0};
  std::atomic<uint64_t> accepted{0};
};

// One enqueued response burst: pre-encoded frames plus how many, so the
// drain can report frames-per-writev.
struct OutChunk {
  std::string data;
  uint64_t frames = 0;
};

// One live client connection. Only the reactor that owns it touches it.
struct Conn {
  explicit Conn(int conn_fd) : fd(conn_fd) {}
  ~Conn() { net::CloseFd(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  const int fd;
  std::string in;  // received bytes not yet framed
  size_t off = 0;  // consumed prefix of `in`
  std::deque<OutChunk> outq;
  size_t outq_bytes = 0;
  size_t head_off = 0;          // written prefix of outq.front()
  uint32_t interest = EPOLLIN;  // events registered in the reactor's epoll set
  Clock::time_point paused_at;  // when EPOLLIN last left `interest`
};

// One request of a burst and, once its shards have run, its outcome.
struct Call {
  MsgType type = MsgType::kPing;
  uint32_t id = 0;
  Status status;                  // writes: the first error any shard returned
  std::vector<Status> statuses;   // reads: one per key (a GET has one)
  std::vector<std::string> values;
  std::string stats;              // STATS: the document at the call's turn
};

// Ops per side of a shard's OpCoalescer; a side that reaches it runs
// mid-burst. A client pipelining 8 frames of 32 ops never reaches it.
constexpr size_t kShardSideCap = 256;

// One shard's pending share of a burst: its OpCoalescer decides when a side
// runs, and the rest records whose ops they are.
struct ShardOps {
  OpCoalescer pending{kShardSideCap};
  std::vector<uint32_t> writers;  // calls with entries in the pending writes
  std::vector<std::pair<uint32_t, uint32_t>> readers;  // (call, key index) per read
};

// The frames a reactor decoded from one connection in one wake, run to
// completion on that reactor. Every op joins its shard's ShardOps; a
// MULTI_GET or WRITE_BATCH that spans shards is joined in its Call. Per key,
// ops run in decode order, and responses come out in decode order.
class Burst {
 public:
  explicit Burst(ShardSet* shards)
      : shards_(shards), ops_(static_cast<size_t>(shards->shards())) {
    for (int s = 0; s < shards->shards(); ++s) {
      max_key_bytes_ = std::min(max_key_bytes_, shards->shard(s)->max_key_bytes());
    }
  }

  // Adds one decoded request. A GET's key moves into `req.keys`.
  void Add(Request& req);
  // Runs every pending store call.
  void Run();
  // Runs what is pending, then appends every call's response, in decode
  // order, and starts a new burst. Returns the number of frames appended.
  uint64_t Finish(std::string* out);
  Call& last() { return calls_.back(); }

 private:
  void Read(uint32_t call, uint32_t index, std::string_view key);
  void Write(uint32_t call, WriteBatch::Op op, std::string_view key, std::string_view value);
  // InvalidArgument when a put or merge carries a key longer than the shards'
  // stores take. Such a call is refused whole before any of its ops joins a
  // shard's batch, where the store's refusal would fail every call the batch
  // carries.
  Status CheckKey(WriteBatch::Op op, std::string_view key) const;
  void RunWrites(size_t shard);
  void RunReads(size_t shard);

  ShardSet* shards_;
  std::vector<ShardOps> ops_;
  size_t max_key_bytes_ = SIZE_MAX;  // the least any shard's store takes
  std::vector<Call> calls_;
  std::vector<std::string> values_;  // MultiGet scratch
  std::vector<Status> statuses_;
};

void Burst::Add(Request& req) {
  const auto c = static_cast<uint32_t>(calls_.size());
  Call& call = calls_.emplace_back();
  call.type = req.type;
  call.id = req.id;
  switch (req.type) {
    case MsgType::kGet:
      req.keys.push_back(std::move(req.key));
      [[fallthrough]];
    case MsgType::kMultiGet:
      call.statuses.resize(req.keys.size());
      call.values.resize(req.keys.size());
      for (size_t i = 0; i < req.keys.size(); ++i) {
        Read(c, static_cast<uint32_t>(i), req.keys[i]);
      }
      break;
    case MsgType::kPut:
    case MsgType::kMerge: {
      const auto op = req.type == MsgType::kPut ? WriteBatch::Op::kPut : WriteBatch::Op::kMerge;
      call.status = CheckKey(op, req.key);
      if (call.status.ok()) {
        Write(c, op, req.key, req.value);
      }
      break;
    }
    case MsgType::kDelete:
      Write(c, WriteBatch::Op::kDelete, req.key, {});
      break;
    case MsgType::kWriteBatch:
      for (size_t i = 0; i < req.batch.size() && call.status.ok(); ++i) {
        call.status = CheckKey(req.batch.entry(i).op, req.batch.entry(i).key);
      }
      if (!call.status.ok()) {
        break;
      }
      for (size_t i = 0; i < req.batch.size(); ++i) {
        const WriteBatch::Entry& e = req.batch.entry(i);
        Write(c, e.op, e.key, e.value);
      }
      break;
    default:  // PING and STATS touch no shard
      break;
  }
}

Status Burst::CheckKey(WriteBatch::Op op, std::string_view key) const {
  // A delete needs no check: a key too long to store is never there.
  if (op == WriteBatch::Op::kDelete || key.size() <= max_key_bytes_) {
    return Status::Ok();
  }
  return Status::InvalidArgument("key of " + std::to_string(key.size()) +
                                 " bytes; the store takes at most " +
                                 std::to_string(max_key_bytes_));
}

void Burst::Read(uint32_t call, uint32_t index, std::string_view key) {
  const auto s = static_cast<size_t>(shards_->Route(key));
  ShardOps& o = ops_[s];
  o.readers.emplace_back(call, index);
  const OpCoalescer::Due due = o.pending.AddRead(key);
  if (due.other) {
    RunWrites(s);
  }
  if (due.own) {
    RunReads(s);
  }
}

void Burst::Write(uint32_t call, WriteBatch::Op op, std::string_view key,
                  std::string_view value) {
  const auto s = static_cast<size_t>(shards_->Route(key));
  ShardOps& o = ops_[s];
  if (o.writers.empty() || o.writers.back() != call) {
    o.writers.push_back(call);
  }
  const OpCoalescer::Due due = o.pending.AddWrite(op, key, value);
  if (due.other) {
    RunReads(s);
  }
  if (due.own) {
    RunWrites(s);
  }
}

void Burst::RunWrites(size_t shard) {
  ShardOps& o = ops_[shard];
  if (o.writers.empty()) {
    return;
  }
  KVStore* store = shards_->shard(static_cast<int>(shard));
  // gadget:blocking-ok: run to completion — a store stall holds this reactor,
  // and that is the server's backpressure.
  const Status s = store->Write(o.pending.writes());
  for (uint32_t c : o.writers) {
    if (calls_[c].status.ok()) {
      calls_[c].status = s;  // a call's first error sticks
    }
  }
  o.pending.ClearWrites();
  o.writers.clear();
}

void Burst::RunReads(size_t shard) {
  ShardOps& o = ops_[shard];
  if (o.readers.empty()) {
    return;
  }
  KVStore* store = shards_->shard(static_cast<int>(shard));
  // gadget:blocking-ok: run to completion, as in RunWrites. Status
  // intentionally ignored: the per-key statuses carry every outcome, a
  // whole-call error included (kvstore.h).
  (void)store->MultiGet(o.pending.reads(), &values_, &statuses_);
  for (size_t i = 0; i < o.readers.size(); ++i) {
    Call& c = calls_[o.readers[i].first];
    c.statuses[o.readers[i].second] = std::move(statuses_[i]);
    c.values[o.readers[i].second] = std::move(values_[i]);
  }
  o.pending.ClearReads();
  o.readers.clear();
}

void Burst::Run() {
  for (size_t s = 0; s < ops_.size(); ++s) {
    RunWrites(s);
    RunReads(s);
  }
}

uint64_t Burst::Finish(std::string* out) {
  Run();
  for (const Call& c : calls_) {
    switch (c.type) {
      case MsgType::kGet:
        if (c.statuses[0].ok()) {
          AppendValueResponse(out, c.id, c.values[0]);
        } else if (c.statuses[0].IsNotFound()) {
          AppendNotFoundResponse(out, c.id);
        } else {
          AppendErrorResponse(out, c.id, c.statuses[0].ToString());
        }
        break;
      case MsgType::kMultiGet:
        AppendMultiResponse(out, c.id, c.statuses, c.values);
        break;
      case MsgType::kStats:
        AppendStatsTextResponse(out, c.id, c.stats);
        break;
      case MsgType::kPing:
        AppendPongResponse(out, c.id);
        break;
      default:  // PUT, MERGE, DELETE, WRITE_BATCH
        if (c.status.ok()) {
          AppendOkResponse(out, c.id);
        } else {
          AppendErrorResponse(out, c.id, c.status.ToString());
        }
        break;
    }
  }
  const uint64_t frames = calls_.size();
  calls_.clear();
  return frames;
}

// One reactor: a private epoll set, its connections, and a wake eventfd
// doubling as the accepted-fd handoff doorbell.
struct IoThread {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;  // owner thread only
  Mutex in_mu;
  std::vector<int> incoming GUARDED_BY(in_mu);  // accepted fds awaiting adoption
  std::atomic<uint64_t> ops{0};  // frames decoded by this reactor

  ~IoThread() {
    for (int fd : incoming) {
      net::CloseFd(fd);  // accepted but never adopted
    }
    net::CloseFd(wake_fd);
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
    }
  }
};

}  // namespace

struct Server::Impl {
  ServerOptions options;
  ShardSet* shards = nullptr;
  int listen_fd = -1;
  std::atomic<bool> stopping{false};
  std::vector<std::unique_ptr<IoThread>> io;
  size_t next_io = 0;  // round-robin accept cursor; thread 0 only
  NetCounters net;

  ~Impl() { net::CloseFd(listen_fd); }

  void IoLoop(size_t tid);
  void AcceptAll(IoThread& t0);
  void AdoptConn(IoThread& t, int fd);
  void AdoptIncoming(IoThread& t);
  // Receives everything currently buffered on `c`. Returns false on EOF or
  // a receive error; the bytes that did arrive stay buffered.
  bool Receive(Conn& c);
  // Decodes the complete frames buffered on `c` in bursts of at most
  // kMaxBurstFrames, runs each burst, queues its responses, and sends them.
  // A burst starts only while the output queue is within conn_outq_limit;
  // frames left over wait in `c.in`. Returns false when the connection must
  // close: a protocol error (the fatal ERROR frame goes out last) or a dead
  // peer.
  bool DecodeBurst(IoThread& t, Burst& burst, Conn& c);
  // Writes as much of the output queue as the socket takes, up to kMaxIov
  // bursts per writev, then re-arms. Returns false when the peer is gone.
  bool Drain(IoThread& t, Conn& c);
  // Points the connection's epoll interest at its output queue: EPOLLOUT
  // while bytes wait, and no EPOLLIN while more than conn_outq_limit bytes
  // wait.
  void Arm(IoThread& t, Conn& c);
  void AddPausedTime(const Conn& c);
  void DropConn(IoThread& t, int fd);

  NetStats SnapshotNet() const;
  JsonValue NetJson() const;
  std::string StatsText() const;
};

void Server::Impl::AcceptAll(IoThread& t0) {
  for (;;) {
    StatusOr<int> fd = net::TcpAccept(listen_fd);
    if (!fd.ok()) {
      GADGET_LOG(Warning) << "accept failed: " << fd.status().ToString();
      return;
    }
    if (*fd < 0) {
      return;  // listen queue drained
    }
    if (!net::SetNonBlocking(*fd).ok()) {
      net::CloseFd(*fd);
      continue;
    }
    if (options.so_sndbuf > 0) {
      // status intentionally ignored: slow-reader test hook; failure just
      // means the test sees more buffering before EAGAIN.
      (void)net::SetSocketBufferSizes(*fd, options.so_sndbuf, 0);
    }
    net.accepted.fetch_add(1, std::memory_order_relaxed);
    IoThread& target = *io[next_io];
    next_io = (next_io + 1) % io.size();
    if (&target == &t0) {
      AdoptConn(t0, *fd);
    } else {
      {
        MutexLock lock(&target.in_mu);
        target.incoming.push_back(*fd);
      }
      const uint64_t one = 1;
      const ssize_t ignored = ::write(target.wake_fd, &one, sizeof(one));
      (void)ignored;
    }
  }
}

void Server::Impl::AdoptConn(IoThread& t, int fd) {
  if (!Watch(t.epoll_fd, fd)) {
    net::CloseFd(fd);
    return;
  }
  t.conns.emplace(fd, std::make_unique<Conn>(fd));
}

void Server::Impl::AdoptIncoming(IoThread& t) {
  std::vector<int> fds;
  {
    MutexLock lock(&t.in_mu);
    fds.swap(t.incoming);
  }
  for (int fd : fds) {
    AdoptConn(t, fd);
  }
}

void Server::Impl::DropConn(IoThread& t, int fd) {
  auto it = t.conns.find(fd);
  if (it == t.conns.end()) {
    return;
  }
  if ((it->second->interest & EPOLLIN) == 0) {
    AddPausedTime(*it->second);
  }
  ::epoll_ctl(t.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  t.conns.erase(it);  // closes the fd
}

// gadget:reactor-context
void Server::Impl::IoLoop(size_t tid) {
  IoThread& t = *io[tid];
  Burst burst(shards);
  epoll_event events[64];
  while (!stopping.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(t.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // signals are not events
      }
      GADGET_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == t.wake_fd) {
        uint64_t tick = 0;
        const ssize_t ignored = ::read(t.wake_fd, &tick, sizeof(tick));
        (void)ignored;
        AdoptIncoming(t);
        continue;
      }
      if (tid == 0 && fd == listen_fd) {
        AcceptAll(t);
        continue;
      }
      auto it = t.conns.find(fd);
      if (it == t.conns.end()) {
        continue;  // already dropped earlier in this wake
      }
      const uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        DropConn(t, fd);
        continue;
      }
      if ((ev & EPOLLOUT) != 0 && !Drain(t, *it->second)) {
        DropConn(t, fd);
        continue;
      }
      Conn& c = *it->second;
      if ((ev & EPOLLIN) != 0) {
        const bool alive = Receive(c);  // process what arrived before EOF
        if (!DecodeBurst(t, burst, c) || !alive) {
          DropConn(t, fd);
        }
      } else if (c.off < c.in.size() && c.outq_bytes <= options.conn_outq_limit) {
        // Frames left in `c.in` while the queue was over the limit raise no
        // new EPOLLIN: decoding resumes once a drain brings it back.
        if (!DecodeBurst(t, burst, c)) {
          DropConn(t, fd);
        }
      }
    }
  }
  t.conns.clear();  // closes every connection this reactor owns
}

bool Server::Impl::Receive(Conn& c) {
  for (;;) {
    std::string error;
    const int n = net::RecvChunk(c.fd, &c.in, &error);
    if (n > 0) {
      net.bytes_in.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      if (static_cast<size_t>(n) < net::kRecvChunk) {
        // A short chunk took everything the socket held. Skip the recv that
        // would only return EAGAIN: level-triggered epoll reports any later
        // bytes, and EOF, at the next wake.
        return true;
      }
      continue;
    }
    return n == -1;  // -1: no more buffered bytes; else EOF or hard error
  }
}

bool Server::Impl::DecodeBurst(IoThread& t, Burst& burst, Conn& c) {
  Request req;
  std::string error;  // connection-fatal protocol error, answered last
  bool more = true;  // `c.in` may still hold a complete frame
  bool queued = false;  // responses queued since the last Drain
  while (more && error.empty()) {
    if (c.outq_bytes > options.conn_outq_limit) {
      if (!Drain(t, c)) {
        return false;
      }
      queued = false;
      if (c.outq_bytes > options.conn_outq_limit) {
        break;  // Drain armed EPOLLOUT, whose wake decodes the rest
      }
    }
    for (size_t n = 0; n < kMaxBurstFrames; ++n) {
      FrameView frame;
      size_t consumed = 0;
      const FrameStatus fs =
          ExtractFrame(std::string_view(c.in).substr(c.off), &frame, &consumed, &error);
      if (fs != FrameStatus::kOk) {
        more = false;  // torn input waits for more bytes; kError has set `error`
        break;
      }
      const Status ps = ParseRequest(frame, &req);
      if (!ps.ok()) {
        error = ps.ToString();
        break;
      }
      c.off += consumed;
      t.ops.fetch_add(1, std::memory_order_relaxed);
      burst.Add(req);
      if (req.type == MsgType::kStats) {
        burst.Run();  // the document covers every earlier frame
        burst.last().stats = StatsText();
      }
    }
    std::string out;
    uint64_t frames = burst.Finish(&out);
    if (!error.empty()) {
      AppendErrorResponse(&out, 0, error);  // id 0: connection-fatal
      ++frames;
    }
    if (out.empty()) {
      break;  // torn input only: wait for the rest
    }
    c.outq_bytes += out.size();
    c.outq.push_back(OutChunk{std::move(out), frames});
    UpdateMax(net.outq_bytes_max, c.outq_bytes);
    queued = true;
  }

  // Reclaim consumed bytes once they dominate the buffer.
  if (c.off > 4096 && c.off * 2 > c.in.size()) {
    c.in.erase(0, c.off);
    c.off = 0;
  }
  if (!queued) {
    return true;
  }
  return Drain(t, c) && error.empty();
}

bool Server::Impl::Drain(IoThread& t, Conn& c) {
  while (!c.outq.empty()) {
    iovec iov[kMaxIov];
    int cnt = 0;
    uint64_t batch_frames = 0;
    size_t first_off = c.head_off;
    for (auto it = c.outq.begin(); it != c.outq.end() && cnt < kMaxIov; ++it) {
      iov[cnt].iov_base = const_cast<char*>(it->data.data()) + first_off;
      iov[cnt].iov_len = it->data.size() - first_off;
      first_off = 0;
      batch_frames += it->frames;
      ++cnt;
    }
    std::string error;
    const ssize_t n = net::WritevNonBlocking(c.fd, iov, cnt, &error);
    if (n == -1) {
      break;  // socket buffer full: EPOLLOUT resumes the drain
    }
    if (n == -2) {
      return false;  // peer is gone
    }
    net.writev_calls.fetch_add(1, std::memory_order_relaxed);
    net.bytes_out.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    UpdateMax(net.frames_per_writev_max, batch_frames);
    size_t written = static_cast<size_t>(n);
    c.outq_bytes -= written;
    while (written > 0) {
      OutChunk& front = c.outq.front();
      const size_t avail = front.data.size() - c.head_off;
      if (written >= avail) {
        written -= avail;
        c.head_off = 0;
        c.outq.pop_front();
      } else {
        c.head_off += written;
        written = 0;
      }
    }
  }
  Arm(t, c);
  return true;
}

// Pausing reads is the server's one backpressure stage: a client that does
// not read its responses stops being read, its requests back up in TCP, and
// the reactor keeps serving its other connections.
void Server::Impl::Arm(IoThread& t, Conn& c) {
  const bool pause = c.outq_bytes > options.conn_outq_limit;
  const uint32_t want = (pause ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                        (c.outq.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  if (want == c.interest) {
    return;
  }
  if (pause && (c.interest & EPOLLIN) != 0) {
    c.paused_at = Clock::now();
  } else if (!pause && (c.interest & EPOLLIN) == 0) {
    AddPausedTime(c);
  }
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = c.fd;
  ::epoll_ctl(t.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  c.interest = want;
}

void Server::Impl::AddPausedTime(const Conn& c) {
  net.outq_stall_micros.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - c.paused_at)
              .count()),
      std::memory_order_relaxed);
}

NetStats Server::Impl::SnapshotNet() const {
  NetStats s;
  s.bytes_in = net.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = net.bytes_out.load(std::memory_order_relaxed);
  s.writev_calls = net.writev_calls.load(std::memory_order_relaxed);
  s.frames_per_writev_max = net.frames_per_writev_max.load(std::memory_order_relaxed);
  s.output_queue_stall_micros = net.outq_stall_micros.load(std::memory_order_relaxed);
  s.output_queue_bytes_max = net.outq_bytes_max.load(std::memory_order_relaxed);
  s.conns_accepted = net.accepted.load(std::memory_order_relaxed);
  s.thread_ops.reserve(io.size());
  for (const auto& t : io) {
    s.thread_ops.push_back(t->ops.load(std::memory_order_relaxed));
  }
  return s;
}

JsonValue Server::Impl::NetJson() const {
  const NetStats s = SnapshotNet();
  JsonValue net_doc = JsonValue::MakeObject();
  net_doc.Set("io_threads", static_cast<uint64_t>(io.size()));
  net_doc.Set("bytes_in", s.bytes_in);
  net_doc.Set("bytes_out", s.bytes_out);
  net_doc.Set("writev_calls", s.writev_calls);
  net_doc.Set("frames_per_writev_max", s.frames_per_writev_max);
  net_doc.Set("output_queue_stall_micros", s.output_queue_stall_micros);
  net_doc.Set("output_queue_bytes_max", s.output_queue_bytes_max);
  net_doc.Set("conns_accepted", s.conns_accepted);
  JsonValue thread_ops = JsonValue::MakeArray();
  for (uint64_t v : s.thread_ops) {
    thread_ops.Append(v);
  }
  net_doc.Set("thread_ops", std::move(thread_ops));
  return net_doc;
}

std::string Server::Impl::StatsText() const {
  JsonValue doc = shards->StatsDoc();
  doc.Set("net", NetJson());
  return doc.Write();
}

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  // Sockets first, shards last: nothing before the shards open needs undoing
  // beyond what Impl and IoThread close themselves.
  auto impl = std::make_unique<Server::Impl>();
  impl->options = options;
  StatusOr<int> listen = net::TcpListen(options.port);
  if (!listen.ok()) {
    return listen.status();
  }
  impl->listen_fd = *listen;
  const StatusOr<uint16_t> port = net::TcpLocalPort(impl->listen_fd);
  if (!port.ok()) {
    return port.status();
  }
  GADGET_RETURN_IF_ERROR(net::SetNonBlocking(impl->listen_fd));

  int nio = options.io_threads;
  if (nio <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    nio = static_cast<int>(std::min<unsigned>(4, hw == 0 ? 1 : hw));
  }
  impl->io.reserve(static_cast<size_t>(nio));
  for (int i = 0; i < nio; ++i) {
    auto t = std::make_unique<IoThread>();
    t->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    t->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (t->epoll_fd < 0 || t->wake_fd < 0 || !Watch(t->epoll_fd, t->wake_fd) ||
        (i == 0 && !Watch(t->epoll_fd, impl->listen_fd))) {
      return Status::IoError("epoll/eventfd setup failed");
    }
    impl->io.push_back(std::move(t));
  }

  auto shards = ShardSet::Open(options.store, options.shards);
  if (!shards.ok()) {
    return shards.status();
  }
  std::unique_ptr<Server> server(new Server());
  server->shards_ = std::move(*shards);
  server->port_ = *port;
  impl->shards = server->shards_.get();
  server->impl_ = std::move(impl);
  Server::Impl* raw = server->impl_.get();
  server->io_threads_.reserve(static_cast<size_t>(nio));
  for (int i = 0; i < nio; ++i) {
    server->io_threads_.emplace_back([raw, i] { raw->IoLoop(static_cast<size_t>(i)); });
  }
  GADGET_LOG(Info) << "gadget serve: " << options.shards << " shard(s) of "
                   << options.store.engine << " on 127.0.0.1:" << server->port_ << ", " << nio
                   << " IO thread(s)";
  return server;
}

int Server::io_threads() const { return static_cast<int>(impl_->io.size()); }

NetStats Server::net_stats() const { return impl_->SnapshotNet(); }

void Server::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  impl_->stopping.store(true, std::memory_order_relaxed);
  for (auto& t : impl_->io) {
    const uint64_t one = 1;
    const ssize_t ignored = ::write(t->wake_fd, &one, sizeof(one));
    (void)ignored;
  }
  for (std::thread& th : io_threads_) {
    th.join();
  }
  const Status close_status = shards_->Close();
  if (!close_status.ok()) {
    GADGET_LOG(Warning) << "shard close: " << close_status.ToString();
  }
}

Server::~Server() {
  if (impl_ != nullptr) {
    Stop();
  }
}

}  // namespace wire
}  // namespace gadget
