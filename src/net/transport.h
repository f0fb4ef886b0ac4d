// Byte transports under the wire protocol: a blocking stream interface with
// two implementations — an in-process Pipe pair (tests and benches connect
// to the server without opening ports) and a plain POSIX TCP socket. The
// frame layer (net/frame.h) is transport-agnostic; the server treats both
// identically.

#ifndef SMOOTHSCAN_NET_TRANSPORT_H_
#define SMOOTHSCAN_NET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace smoothscan {
namespace net {

/// A bidirectional blocking byte stream. Thread model: one reader thread and
/// one writer thread per endpoint (the server's connection shape); Shutdown
/// may be called from any thread and unblocks both.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Reads up to `n` bytes; blocks for at least one. Returns the count, or 0
  /// once the peer shut down and the stream drained (EOF), or -1 on error.
  virtual int Read(char* buf, size_t n) = 0;

  /// Writes all `n` bytes; false once the stream is down.
  virtual bool WriteAll(const char* buf, size_t n) = 0;

  /// Tears the stream down in both directions; idempotent, callable from any
  /// thread. Blocked Read/WriteAll calls return.
  virtual void Shutdown() = 0;
};

/// A byte FIFO: appended at the back, read through a cursor at the front.
/// Append() first drops the consumed prefix once it outgrows the unread
/// tail, so the move copies fewer bytes than were consumed, and a reader
/// that lags its writer holds at most twice its unread bytes plus one
/// append. The pipe's directions and the frame decoder buffer through it.
class ByteQueue {
 public:
  void Append(const char* data, size_t n) {
    if (head_ != 0 && head_ >= buf_.size() - head_) {
      buf_.erase(0, head_);
      head_ = 0;
    }
    buf_.append(data, n);
  }
  const char* unread_data() const { return buf_.data() + head_; }
  size_t unread() const { return buf_.size() - head_; }
  void Consume(size_t n) { head_ += n; }
  /// Bytes held, consumed prefix included.
  size_t held() const { return buf_.size(); }

 private:
  std::string buf_;
  size_t head_ = 0;
};

/// An in-process connected pair: bytes written to one endpoint are read from
/// the other. Destroying an endpoint shuts the pair down.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
MakePipePair();

/// POSIX TCP listener. Accept() blocks until a connection arrives or Close()
/// is called.
///
/// Thread model: one thread may block in Accept() while another calls
/// Close(). The fd never changes while the listener lives: Close() only
/// shuts the socket down, which fails the blocked (and every later) accept,
/// and the destructor closes the fd — so an Accept() can never read an fd
/// that was closed or reused. Destroy the listener only once no thread can
/// still be in Accept().
class TcpListener {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()). Null on failure.
  static std::unique_ptr<TcpListener> Listen(uint16_t port);
  ~TcpListener();

  uint16_t port() const { return port_; }
  /// Null once Close()d (or on accept failure).
  std::unique_ptr<Transport> Accept();
  /// Stops accepting; idempotent, callable from any thread.
  void Close();

  /// Client side: connects to 127.0.0.1:`port`. Null on failure.
  static std::unique_ptr<Transport> Connect(uint16_t port);

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  const int fd_;
  uint16_t port_;
};

}  // namespace net
}  // namespace smoothscan

#endif  // SMOOTHSCAN_NET_TRANSPORT_H_
