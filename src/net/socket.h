// Minimal POSIX stream-socket transport for the fleet layer.
//
// Everything the wire format needs to cross a process boundary, and nothing
// more: RAII fds, socketpair/Unix-path/TCP-loopback construction, and
// deadline-bounded send/recv built on poll(). All fds are non-blocking; a
// blocking wait is always an explicit poll with a deadline, so a dead or
// wedged peer surfaces as IoStatus::kTimeout instead of a hung thread —
// which is exactly the shape the resilience layer already knows how to
// recover from (fault::FaultKind::kHungSite).
//
// Batching is the caller's: a fleet worker thread frames spans into its own
// byte buffer and hands the whole buffer to send_all, under a mutex when
// several threads share one connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace psnt::net {

enum class IoStatus : std::uint8_t {
  kOk = 0,
  kTimeout,  // deadline expired before the transfer completed
  kClosed,   // orderly EOF / EPIPE / ECONNRESET — the peer is gone
  kError,    // any other errno
};
[[nodiscard]] const char* to_string(IoStatus status);

// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

// Connected non-blocking AF_UNIX stream pair (the fork transport: create
// before fork, parent keeps [0], child keeps [1]). Throws on failure.
[[nodiscard]] std::pair<Fd, Fd> socketpair_stream();

// Unix-path and TCP-loopback endpoints for non-forked deployments (the
// RemoteEngineHandle's "remote site" shape). listen_* throw on failure;
// accept/connect report via validity + errno semantics of IoStatus.
[[nodiscard]] Fd listen_unix(const std::string& path);
[[nodiscard]] Fd connect_unix(const std::string& path, int deadline_ms);
// Binds 127.0.0.1:port (0 = ephemeral); returns the fd and the bound port.
[[nodiscard]] std::pair<Fd, std::uint16_t> listen_tcp(std::uint16_t port = 0);
[[nodiscard]] Fd connect_tcp(const std::string& host, std::uint16_t port,
                             int deadline_ms);
// Accepts one pending connection within the deadline (invalid Fd on timeout).
[[nodiscard]] Fd accept_one(const Fd& listener, int deadline_ms);

// Writes all `size` bytes before `deadline_ms` elapses (SIGPIPE suppressed).
[[nodiscard]] IoStatus send_all(const Fd& fd, const std::uint8_t* data,
                                std::size_t size, int deadline_ms);
// Reads up to `size` bytes, returning the count actually read; kOk with
// out_read > 0 on data, kClosed on EOF, kTimeout when nothing arrived.
[[nodiscard]] IoStatus recv_some(const Fd& fd, std::uint8_t* data,
                                 std::size_t size, int deadline_ms,
                                 std::size_t& out_read);
// Blocks until the fd is readable or the deadline expires.
[[nodiscard]] IoStatus wait_readable(const Fd& fd, int deadline_ms);

// CLOCK_MONOTONIC in nanoseconds — comparable across processes on one host,
// the timestamp domain of wire::SpanHeader::send_ns.
[[nodiscard]] std::uint64_t monotonic_ns();

}  // namespace psnt::net
