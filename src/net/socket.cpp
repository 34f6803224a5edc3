#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace psnt::net {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Remaining milliseconds of a deadline anchored at `start`; clamped to >= 0.
int remaining_ms(std::chrono::steady_clock::time_point start, int deadline_ms) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const long long left = static_cast<long long>(deadline_ms) - elapsed;
  return left > 0 ? static_cast<int>(left) : 0;
}

IoStatus poll_one(int fd, short events, int timeout_ms) {
  struct pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc == 0) return IoStatus::kTimeout;
  if (rc < 0) return errno == EINTR ? IoStatus::kTimeout : IoStatus::kError;
  if (pfd.revents & (POLLHUP | POLLERR | POLLNVAL)) {
    // Readable-with-hangup still delivers buffered bytes; let the recv/send
    // call observe the condition itself.
    if (!(pfd.revents & events)) return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

}  // namespace

const char* to_string(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kTimeout:
      return "timeout";
    case IoStatus::kClosed:
      return "closed";
    case IoStatus::kError:
      return "error";
  }
  return "unknown";
}

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::pair<Fd, Fd> socketpair_stream() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error(std::string("socketpair: ") +
                             std::strerror(errno));
  }
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
  return {Fd(fds[0]), Fd(fds[1])};
}

Fd listen_unix(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  (void)::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd.get(), 16) != 0) {
    throw std::runtime_error("bind/listen " + path + ": " +
                             std::strerror(errno));
  }
  set_nonblocking(fd.get());
  return fd;
}

Fd connect_unix(const std::string& path, int deadline_ms) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd();
  set_nonblocking(fd.get());
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return Fd();
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return fd;
  }
  if (errno != EINPROGRESS && errno != EAGAIN) return Fd();
  if (poll_one(fd.get(), POLLOUT, deadline_ms) != IoStatus::kOk) return Fd();
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    return Fd();
  }
  return fd;
}

std::pair<Fd, std::uint16_t> listen_tcp(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd.get(), 16) != 0) {
    throw std::runtime_error(std::string("bind/listen tcp: ") +
                             std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  (void)::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                      &len);
  set_nonblocking(fd.get());
  return {std::move(fd), ntohs(addr.sin_port)};
}

Fd connect_tcp(const std::string& host, std::uint16_t port, int deadline_ms) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd();
  set_nonblocking(fd.get());
  int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return Fd();
  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return fd;
  }
  if (errno != EINPROGRESS) return Fd();
  if (poll_one(fd.get(), POLLOUT, deadline_ms) != IoStatus::kOk) return Fd();
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    return Fd();
  }
  return fd;
}

Fd accept_one(const Fd& listener, int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) {
      set_nonblocking(fd);
      return Fd(fd);
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return Fd();
    const int left = remaining_ms(start, deadline_ms);
    if (left == 0) return Fd();
    if (poll_one(listener.get(), POLLIN, left) == IoStatus::kError) return Fd();
  }
}

IoStatus send_all(const Fd& fd, const std::uint8_t* data, std::size_t size,
                  int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd.get(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    const int left = remaining_ms(start, deadline_ms);
    if (left == 0) return IoStatus::kTimeout;
    const IoStatus waited = poll_one(fd.get(), POLLOUT, left);
    if (waited == IoStatus::kTimeout || waited == IoStatus::kOk) continue;
    return waited;
  }
  return IoStatus::kOk;
}

IoStatus recv_some(const Fd& fd, std::uint8_t* data, std::size_t size,
                   int deadline_ms, std::size_t& out_read) {
  out_read = 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const ssize_t n = ::recv(fd.get(), data, size, 0);
    if (n > 0) {
      out_read = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == ECONNRESET) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    const int left = remaining_ms(start, deadline_ms);
    if (left == 0) return IoStatus::kTimeout;
    const IoStatus waited = poll_one(fd.get(), POLLIN, left);
    if (waited == IoStatus::kError) return waited;
    // kOk / kClosed / kTimeout all loop: recv decides what the fd holds.
  }
}

IoStatus wait_readable(const Fd& fd, int deadline_ms) {
  return poll_one(fd.get(), POLLIN, deadline_ms);
}

std::uint64_t monotonic_ns() {
  struct timespec ts{};
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace psnt::net
