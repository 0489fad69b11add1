#include "src/server/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gadget {
namespace net {
namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

void CloseFd(int fd) {
  if (fd >= 0) {
    ::close(fd);
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

StatusOr<int> TcpListen(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind");
    CloseFd(fd);
    return s;
  }
  if (::listen(fd, 512) < 0) {
    Status s = Errno("listen");
    CloseFd(fd);
    return s;
  }
  return fd;
}

StatusOr<uint16_t> TcpLocalPort(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

StatusOr<int> TcpAccept(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return -1;
    }
    return Errno("accept");
  }
}

StatusOr<int> TcpConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status s = Errno("connect");
    CloseFd(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

StatusOr<int> TcpConnectRetry(uint16_t port, int budget_ms) {
  int waited_ms = 0;
  int backoff_ms = 25;
  for (;;) {
    StatusOr<int> fd = TcpConnect(port);
    if (fd.ok()) {
      return fd;
    }
    // Only ECONNREFUSED means "try again later": the port is real but nobody
    // is listening yet. Anything else (unreachable, EMFILE...) is permanent.
    if (fd.status().ToString().find("Connection refused") == std::string::npos ||
        waited_ms >= budget_ms) {
      return fd.status();
    }
    struct timespec ts {};
    ts.tv_sec = backoff_ms / 1000;
    ts.tv_nsec = static_cast<long>(backoff_ms % 1000) * 1'000'000L;
    ::nanosleep(&ts, nullptr);
    waited_ms += backoff_ms;
    backoff_ms = backoff_ms * 2 > 400 ? 400 : backoff_ms * 2;
  }
}

Status SetSocketBufferSizes(int fd, int sndbuf_bytes, int rcvbuf_bytes) {
  if (sndbuf_bytes > 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes, sizeof(sndbuf_bytes)) < 0) {
    return Errno("setsockopt(SO_SNDBUF)");
  }
  if (rcvbuf_bytes > 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes)) < 0) {
    return Errno("setsockopt(SO_RCVBUF)");
  }
  return Status::Ok();
}

Status SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a peer that vanished mid-send yields EPIPE here instead
    // of killing the process with SIGPIPE.
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The socket buffer is full — the peer is not draining. Block here
      // until it does: this is the service's backpressure path (a stalled
      // shard stops reading, the client's sends park, TCP flow control does
      // the rest).
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, -1) < 0 && errno != EINTR) {
        return Errno("poll(POLLOUT)");
      }
      continue;
    }
    return Errno("send");
  }
  return Status::Ok();
}

int RecvChunk(int fd, std::string* buf, std::string* error) {
  // Not into *buf: growing it first would zero-fill the whole chunk.
  char chunk[kRecvChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n >= 0) {
      buf->append(chunk, static_cast<size_t>(n));
      return static_cast<int>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return -1;
    }
    *error = std::string("recv: ") + std::strerror(errno);
    return -2;
  }
}

ssize_t WritevNonBlocking(int fd, const iovec* iov, int iovcnt, std::string* error) {
  for (;;) {
    // writev has no MSG_NOSIGNAL, so route through sendmsg: a peer that
    // vanished mid-drain yields EPIPE instead of killing the process.
    msghdr msg{};
    msg.msg_iov = const_cast<iovec*>(iov);
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n >= 0) {
      return n;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return -1;
    }
    *error = std::string("sendmsg: ") + std::strerror(errno);
    return -2;
  }
}

Status FramedConn::RecvFrame(wire::MsgType* type, uint32_t* id, std::string* payload) {
  for (;;) {
    wire::FrameView frame;
    size_t consumed = 0;
    std::string error;
    const wire::FrameStatus fs =
        wire::ExtractFrame(std::string_view(rbuf_).substr(roff_), &frame, &consumed, &error);
    if (fs == wire::FrameStatus::kError) {
      return Status::InvalidArgument("malformed frame: " + error);
    }
    if (fs == wire::FrameStatus::kOk) {
      *type = frame.type;
      *id = frame.id;
      payload->assign(frame.payload);
      roff_ += consumed;
      // Compact once the consumed prefix dominates, so a long-lived
      // connection does not grow its buffer without bound.
      if (roff_ > 4096 && roff_ * 2 > rbuf_.size()) {
        rbuf_.erase(0, roff_);
        roff_ = 0;
      }
      return Status::Ok();
    }
    std::string rerr;
    const int n = RecvChunk(fd_, &rbuf_, &rerr);
    if (n == 0) {
      return Status::IoError("connection closed mid-frame");
    }
    if (n == -1) {
      // Blocking fd: recv only returns EAGAIN under SO_RCVTIMEO, which this
      // wrapper never sets — treat it as a hard error rather than spin.
      return Status::IoError("recv: would block on blocking fd");
    }
    if (n == -2) {
      return Status::IoError(rerr);
    }
  }
}

Status FramedConn::RecvResponse(wire::Response* out) {
  wire::MsgType type;
  uint32_t id = 0;
  std::string payload;
  GADGET_RETURN_IF_ERROR(RecvFrame(&type, &id, &payload));
  wire::FrameView frame{type, id, payload};
  return wire::ParseResponse(frame, out);
}

}  // namespace net
}  // namespace gadget
