#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <string>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"

namespace smoothscan {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// In-process pipe pair.

/// Shared state of a pipe pair: one byte queue per direction. Endpoint
/// `side` writes buf[side] and reads buf[1 - side]. A queue holds what its
/// reader has not read (plus a consumed prefix no larger, see ByteQueue):
/// flow control belongs to the frame/session layers.
struct PipeCore {
  latch::Latch mu{latch::LatchRank::kNetPipe, "net::PipeCore::mu"};
  std::condition_variable_any cv;
  ByteQueue buf[2] GUARDED_BY(mu);
  bool closed GUARDED_BY(mu) = false;
};

class PipeEndpoint : public Transport {
 public:
  PipeEndpoint(std::shared_ptr<PipeCore> core, int side)
      : core_(std::move(core)), side_(side) {}
  ~PipeEndpoint() override { Shutdown(); }

  int Read(char* buf, size_t n) override {
    latch::UniqueLatch lock(core_->mu);
    ByteQueue& q = core_->buf[1 - side_];
    while (q.unread() == 0 && !core_->closed) core_->cv.wait(lock);
    if (q.unread() == 0) return 0;  // Closed and drained: EOF.
    const size_t take = std::min(n, q.unread());
    std::memcpy(buf, q.unread_data(), take);
    q.Consume(take);
    return static_cast<int>(take);
  }

  bool WriteAll(const char* buf, size_t n) override {
    latch::LatchGuard lock(core_->mu);
    if (core_->closed) return false;
    core_->buf[side_].Append(buf, n);
    core_->cv.notify_all();
    return true;
  }

  void Shutdown() override {
    latch::LatchGuard lock(core_->mu);
    core_->closed = true;
    core_->cv.notify_all();
  }

 private:
  std::shared_ptr<PipeCore> core_;
  const int side_;
};

// ---------------------------------------------------------------------------
// POSIX TCP.

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~TcpTransport() override {
    Shutdown();
    ::close(fd_);
  }

  int Read(char* buf, size_t n) override {
    for (;;) {
      const ssize_t r = ::recv(fd_, buf, n, 0);
      if (r >= 0) return static_cast<int>(r);
      if (errno == EINTR) continue;
      return shut_.load(std::memory_order_relaxed) ? 0 : -1;
    }
  }

  bool WriteAll(const char* buf, size_t n) override {
    size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd_, buf + off, n - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(w);
    }
    return true;
  }

  void Shutdown() override {
    shut_.store(true, std::memory_order_relaxed);
    ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  const int fd_;
  std::atomic<bool> shut_{false};
};

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
MakePipePair() {
  auto core = std::make_shared<PipeCore>();
  return {std::make_unique<PipeEndpoint>(core, 0),
          std::make_unique<PipeEndpoint>(core, 1)};
}

std::unique_ptr<TcpListener> TcpListener::Listen(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return nullptr;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

TcpListener::~TcpListener() { ::close(fd_); }

std::unique_ptr<Transport> TcpListener::Accept() {
  for (;;) {
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd >= 0) return std::make_unique<TcpTransport>(cfd);
    if (errno == EINTR) continue;
    return nullptr;
  }
}

void TcpListener::Close() { ::shutdown(fd_, SHUT_RDWR); }

std::unique_ptr<Transport> TcpListener::Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<TcpTransport>(fd);
}

}  // namespace net
}  // namespace smoothscan
