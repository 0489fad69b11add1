// TCP plumbing for the store service.
//
// This directory is the ONLY place in the tree allowed to call the raw
// socket syscalls (socket / send / recv / writev / sendmsg and the io_uring
// socket opcodes — enforced by gadget_lint's `raw-socket` rule): everything
// above it talks through these helpers or the FramedConn wrapper, so framing,
// partial-write handling, EINTR retries, and SIGPIPE suppression are decided
// once.
#ifndef GADGET_SERVER_NET_SOCKET_H_
#define GADGET_SERVER_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/server/wire.h"

namespace gadget {
namespace net {

// Closes `fd` if it is valid; safe on -1. Errors are ignored (close is
// best-effort teardown everywhere it is used).
void CloseFd(int fd);

// Marks `fd` O_NONBLOCK.
Status SetNonBlocking(int fd);

// Opens a listening TCP socket on 127.0.0.1:`port` (port 0 = kernel-assigned;
// read it back with TcpLocalPort). SO_REUSEADDR is set so restarts do not
// trip TIME_WAIT.
StatusOr<int> TcpListen(uint16_t port);

// The port a listening socket is actually bound to.
StatusOr<uint16_t> TcpLocalPort(int listen_fd);

// Accepts one pending connection. Returns -1 (not an error) when the listen
// queue is empty and `listen_fd` is non-blocking.
StatusOr<int> TcpAccept(int listen_fd);

// Blocking connect to 127.0.0.1:`port`.
StatusOr<int> TcpConnect(uint16_t port);

// TcpConnect with bounded retry: connection-refused (the server's socket is
// not listening *yet*) is retried with growing backoff until ~`budget_ms`
// has elapsed; any other failure is immediate. This is how loadgen tolerates
// racing a server that is still booting.
StatusOr<int> TcpConnectRetry(uint16_t port, int budget_ms);

// Shrinks/pins the kernel socket buffers (0 = leave that side alone). Used
// by the slow-reader tests to make send-side EAGAIN reproducible with small
// payloads; the kernel may round the value (it doubles SO_*BUF internally).
Status SetSocketBufferSizes(int fd, int sndbuf_bytes, int rcvbuf_bytes);

// Writes all of `data`, polling through EAGAIN (works on blocking and
// non-blocking fds alike) and retrying EINTR. Error means the connection is
// dead.
Status SendAll(int fd, std::string_view data);

constexpr size_t kRecvChunk = 64 << 10;

// One read of up to kRecvChunk bytes appended to *buf.
//   > 0  — that many bytes were appended
//     0  — orderly EOF (peer closed)
//    -1  — nothing available right now (non-blocking fd); *not* an error
//    -2  — connection error; *error says why
int RecvChunk(int fd, std::string* buf, std::string* error);

// One gather-write of `iov[0..iovcnt)` on a non-blocking fd (EINTR retried,
// SIGPIPE suppressed). Never blocks and never polls — partial progress is the
// caller's problem (it re-arms EPOLLOUT and finishes later).
//   > 0  — that many bytes were written (possibly a partial batch)
//    -1  — the socket buffer is full right now (EAGAIN); write nothing
//    -2  — connection error; *error says why
ssize_t WritevNonBlocking(int fd, const iovec* iov, int iovcnt, std::string* error);

// A blocking framed connection: SendAll on the way out, a streaming frame
// decoder on the way in. This is what clients and tests use; the server's
// epoll loop keeps its own receive buffers but still sends through SendAll.
class FramedConn {
 public:
  // Takes ownership of `fd` (closed by the destructor).
  explicit FramedConn(int fd) : fd_(fd) {}
  ~FramedConn() { CloseFd(fd_); }
  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  int fd() const { return fd_; }

  // Sends pre-encoded frame bytes (one frame or a pipelined burst).
  Status Send(std::string_view frames) { return SendAll(fd_, frames); }

  // Blocks until one complete frame arrives; the payload is copied out so it
  // survives further reads. InvalidArgument on malformed framing (the
  // connection should then be dropped), Unavailable on EOF mid-stream.
  Status RecvFrame(wire::MsgType* type, uint32_t* id, std::string* payload);

  // Convenience: receive one frame and decode it as a response.
  Status RecvResponse(wire::Response* out);

 private:
  int fd_;
  std::string rbuf_;
  size_t roff_ = 0;  // bytes of rbuf_ already consumed by decoded frames
};

}  // namespace net
}  // namespace gadget

#endif  // GADGET_SERVER_NET_SOCKET_H_
