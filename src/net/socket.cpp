#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace overcount::net {
namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// poll() one fd for POLLIN, retrying EINTR without extending the window.
/// Returns >0 readable, 0 timeout, <0 hard error.
int poll_readable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    return ready;
  }
}

}  // namespace

int listen_loopback(std::uint16_t port, int backlog) {
  // Non-blocking: several acceptor threads poll one listener, and all of
  // them wake for a single connection. The losers' accept() must fail with
  // EAGAIN (accept_next's timeout path) instead of blocking until the next
  // connection, which would also block stop() joining them. On Linux the
  // accepted sockets do not inherit the flag.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

std::uint16_t bound_port(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

AcceptResult accept_next(int listen_fd, int timeout_ms) {
  AcceptResult out;
  const int ready = poll_readable(listen_fd, timeout_ms);
  if (ready == 0) return out;  // kTimeout
  if (ready < 0) {
    out.status = AcceptStatus::kClosed;
    out.error = errno;
    return out;
  }
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client >= 0) {
      set_nodelay(client);
      out.fd = client;
      out.status = AcceptStatus::kAccepted;
      return out;
    }
    switch (errno) {
      case EINTR:
        continue;
      case EAGAIN:
#if EAGAIN != EWOULDBLOCK
      case EWOULDBLOCK:
#endif
      case ECONNABORTED:
#ifdef EPROTO
      case EPROTO:
#endif
        // The connection evaporated between poll() and accept(); nothing
        // to do but wait for the next one.
        return out;  // kTimeout
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        out.status = AcceptStatus::kTransient;
        out.error = errno;
        return out;
      default:
        out.status = AcceptStatus::kClosed;
        out.error = errno;
        return out;
    }
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

bool send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

ssize_t recv_some(int fd, void* buf, std::size_t cap, int timeout_ms) {
  const int ready = poll_readable(fd, timeout_ms);
  if (ready == 0) return kRecvTimeout;
  if (ready < 0) return kRecvError;
  for (;;) {
    const ssize_t rc = ::recv(fd, buf, cap, 0);
    if (rc > 0) return rc;
    if (rc == 0) return kRecvEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kRecvTimeout;
    return kRecvError;
  }
}

}  // namespace overcount::net
