#include "rpc/transport.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <thread>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "rpc/fault.h"
#include "util/logging.h"
#include "util/rng.h"

namespace threelc::rpc {

namespace {

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool FillAddr(const std::string& host, int port, sockaddr_in* addr,
              std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  const char* name = host.empty() ? "0.0.0.0" : host.c_str();
  if (inet_pton(AF_INET, name, &addr->sin_addr) != 1) {
    if (error != nullptr) *error = "bad IPv4 address: " + host;
    return false;
  }
  return true;
}

class Deadline {
 public:
  explicit Deadline(int timeout_ms)
      : end_(std::chrono::steady_clock::now() +
             std::chrono::milliseconds(timeout_ms)) {}

  // Remaining milliseconds, clamped to [0, ...]; 0 means expired.
  int RemainingMs() const {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end_ - std::chrono::steady_clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
  }

 private:
  std::chrono::steady_clock::time_point end_;
};

}  // namespace

TransportMetrics TransportMetrics::RegisterIn(obs::MetricsRegistry& registry) {
  TransportMetrics m;
  m.wire_bytes = registry.counter("rpc/wire_bytes");
  m.wire_tx_bytes = registry.counter("rpc/wire_tx_bytes");
  m.wire_rx_bytes = registry.counter("rpc/wire_rx_bytes");
  m.frames_tx = registry.counter("rpc/frames_tx");
  m.frames_rx = registry.counter("rpc/frames_rx");
  m.frame_errors = registry.counter("rpc/frame_errors");
  m.connect_retries = registry.counter("rpc/connect_retries");
  m.timeouts = registry.counter("rpc/timeouts");
  m.disconnects = registry.counter("rpc/disconnects");
  m.faults_injected = registry.counter("rpc/faults_injected");
  m.write_queue_bytes = registry.gauge("rpc/write_queue_bytes");
  m.backpressure_rejects = registry.counter("rpc/backpressure_rejects");
  return m;
}

void TransportMetrics::CountTx(std::size_t bytes) const {
  if (wire_tx_bytes != nullptr) {
    wire_tx_bytes->Add(static_cast<double>(bytes));
  }
  if (wire_bytes != nullptr) wire_bytes->Add(static_cast<double>(bytes));
}

void TransportMetrics::CountRx(std::size_t bytes) const {
  if (wire_rx_bytes != nullptr) {
    wire_rx_bytes->Add(static_cast<double>(bytes));
  }
  if (wire_bytes != nullptr) wire_bytes->Add(static_cast<double>(bytes));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool SetNoDelay(int fd) {
  int one = 1;
  return setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

int ListenOn(const std::string& host, int port, std::string* error,
             int* bound_port) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return -1;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = ErrnoString("socket");
    return -1;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) *error = ErrnoString("bind");
    close(fd);
    return -1;
  }
  if (listen(fd, 64) != 0) {
    if (error != nullptr) *error = ErrnoString("listen");
    close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    } else {
      *bound_port = port;
    }
  }
  return fd;
}

int BackoffDelayMs(const RetryOptions& retry, int attempt) {
  double base = retry.initial_backoff_ms;
  for (int i = 1; i < attempt; ++i) {
    base = std::min(base * retry.multiplier,
                    static_cast<double>(retry.max_backoff_ms));
  }
  base = std::min(base, static_cast<double>(retry.max_backoff_ms));
  if (retry.jitter_seed == 0 || retry.jitter <= 0.0) {
    return static_cast<int>(base);
  }
  // Mix (seed, attempt) statelessly so the schedule is a pure function of
  // the options — reconnect attempt k always sleeps the same amount.
  std::uint64_t state =
      retry.jitter_seed ^
      (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt + 1));
  const std::uint64_t bits = util::SplitMix64(state);
  const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 + retry.jitter * (2.0 * unit - 1.0);
  const double jittered =
      std::min(std::max(base * factor, 1.0),
               static_cast<double>(retry.max_backoff_ms));
  return static_cast<int>(jittered);
}

int ConnectWithRetry(const std::string& host, int port,
                     const RetryOptions& retry,
                     const TransportMetrics* metrics, std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return -1;
  std::string last_error = "no attempts made";
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  bool deadline_hit = false;
  int attempts_made = 0;
  for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (metrics != nullptr && metrics->connect_retries != nullptr) {
        metrics->connect_retries->Add(1.0);
      }
      int backoff = BackoffDelayMs(retry, attempt);
      if (retry.deadline_ms > 0) {
        // Never sleep past the deadline; give up when no budget remains.
        const double remaining = retry.deadline_ms - elapsed_ms();
        if (remaining <= 0) {
          deadline_hit = true;
          break;
        }
        backoff = std::min(backoff, static_cast<int>(remaining));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    if (retry.deadline_ms > 0 && elapsed_ms() >= retry.deadline_ms &&
        attempt > 0) {
      deadline_hit = true;
      break;
    }
    ++attempts_made;
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_error = ErrnoString("socket");
      continue;
    }
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    last_error = ErrnoString("connect");
    close(fd);
  }
  if (error != nullptr) {
    if (deadline_hit) {
      *error = "connect to " + host + ":" + std::to_string(port) +
               " failed: deadline (" + std::to_string(retry.deadline_ms) +
               " ms) exceeded after " + std::to_string(attempts_made) +
               " attempts (" + last_error + ")";
    } else {
      *error = "connect to " + host + ":" + std::to_string(port) +
               " failed after " + std::to_string(retry.max_attempts) +
               " attempts (" + last_error + ")";
    }
  }
  return -1;
}

// --- Connection -----------------------------------------------------------

Connection::Connection(int fd, const TransportMetrics* metrics,
                       std::size_t max_queued_bytes)
    : fd_(fd), metrics_(metrics), max_queued_bytes_(max_queued_bytes) {
  if (fd_ >= 0) {
    SetNonBlocking(fd_);
    SetNoDelay(fd_);
  }
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool Connection::QueueAndFlush(util::ByteSpan head, util::ByteSpan body,
                               std::size_t frame_count) {
  const std::size_t size = head.size() + body.size();
  if (queued_bytes() + size > max_queued_bytes_) {
    if (metrics_ != nullptr && metrics_->backpressure_rejects != nullptr) {
      metrics_->backpressure_rejects->Add(1.0);
    }
    last_error_ = "write queue full (" + std::to_string(queued_bytes()) +
                  " + " + std::to_string(size) + " > " +
                  std::to_string(max_queued_bytes_) + " bytes)";
    return false;
  }
  if (metrics_ != nullptr && metrics_->frames_tx != nullptr &&
      frame_count > 0) {
    metrics_->frames_tx->Add(static_cast<double>(frame_count));
  }
  return FlushSome(head, body) != IoResult::kError;
}

bool Connection::Send(util::ByteSpan head, util::ByteSpan body,
                      std::size_t frame_count) {
  if (!open()) {
    last_error_ = "send on closed connection";
    return false;
  }
  const std::size_t size = head.size() + body.size();
  if (fault_ != nullptr && frame_count == 1 &&
      head.size() >= kFrameHeaderBytes) {
    const MsgType type = static_cast<MsgType>(head[5]);
    std::uint64_t step = 0;
    std::memcpy(&step, head.data() + 8, sizeof(step));
    const FaultDecision fault = fault_->OnSend(type, step, size);
    if (fault.action != FaultAction::kNone && metrics_ != nullptr &&
        metrics_->faults_injected != nullptr) {
      metrics_->faults_injected->Add(1.0);
    }
    switch (fault.action) {
      case FaultAction::kNone:
        break;
      case FaultAction::kDrop:
        return true;  // swallowed: the peer never sees this frame
      case FaultAction::kDelay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fault.delay_ms));
        break;
      case FaultAction::kCorrupt: {
        std::vector<std::uint8_t> mangled(head.begin(), head.end());
        mangled.insert(mangled.end(), body.begin(), body.end());
        mangled[fault.byte_offset % mangled.size()] ^= 0x01;
        return QueueAndFlush(mangled, {}, frame_count);
      }
      case FaultAction::kTruncate: {
        const std::size_t keep = std::min(fault.byte_offset, size - 1);
        const std::size_t keep_head = std::min(keep, head.size());
        QueueAndFlush(head.first(keep_head), body.first(keep - keep_head), 0);
        FlushOutput(100);
        Close();
        last_error_ = "injected fault: truncated frame";
        return false;
      }
      case FaultAction::kClose:
        FlushOutput(100);
        Close();
        last_error_ = "injected fault: connection closed";
        return false;
      case FaultAction::kKillServer:
        // The endpoint-level crash is the owner's job (the injector has
        // latched a kill request); here the frame just dies with the
        // connection, unflushed — a crash does not say goodbye.
        Close();
        last_error_ = "injected fault: endpoint killed";
        return false;
      case FaultAction::kStall:
        // Freeze the endpoint: it stops reading and flushing but the
        // socket stays open. The triggering frame (and everything after)
        // queues without reaching the wire, so the bounded write queue
        // eventually backpressures.
        rx_blocked_ = true;
        tx_stalled_ = true;
        break;
      case FaultAction::kPartition:
        if (fault.direction != PartitionDirection::kTx) rx_blocked_ = true;
        if (fault.direction != PartitionDirection::kRx) {
          tx_dropped_ = true;
          return true;  // the triggering frame is lost in the network
        }
        break;  // rx-only cut: this frame still goes out
    }
  }
  return QueueAndFlush(head, body, frame_count);
}

bool Connection::SendEncoded(util::ByteSpan frame_bytes,
                             std::size_t frame_count) {
  return Send(frame_bytes, {}, frame_count);
}

bool Connection::SendFrame(MsgType type, std::uint64_t step,
                           std::uint32_t tensor, util::ByteSpan payload) {
  FrameHeader header;
  header.type = type;
  header.step = step;
  header.tensor = tensor;
  const auto head = EncodeFrameHeader(header, payload);
  return Send(head, payload, 1);
}

Connection::IoResult Connection::FlushSome(util::ByteSpan head,
                                           util::ByteSpan body) {
  if (tx_stalled_ || tx_dropped_) {
    outbuf_.insert(outbuf_.end(), head.begin(), head.end());
    outbuf_.insert(outbuf_.end(), body.begin(), body.end());
    if (tx_stalled_) return IoResult::kOk;  // frozen endpoint: queue holds
    // Partitioned tx: the app's sends "succeed" but the bytes are lost in
    // the network, so the queue drains without touching the socket.
    outbuf_.clear();
    out_head_ = 0;
    if (metrics_ != nullptr && metrics_->write_queue_bytes != nullptr) {
      metrics_->write_queue_bytes->Set(0.0);
    }
    return IoResult::kOk;
  }
  // Queue first, then the new frame's pieces: one sendmsg(2) writes them
  // in order without first concatenating them.
  iovec iov[3] = {{outbuf_.data() + out_head_, queued_bytes()},
                  {const_cast<std::uint8_t*>(head.data()), head.size()},
                  {const_cast<std::uint8_t*>(body.data()), body.size()}};
  std::size_t first = 0;  // first iov with bytes left
  std::size_t written = 0;
  auto skip_empty = [&] {
    while (first < 3 && iov[first].iov_len == 0) ++first;
  };
  skip_empty();
  while (first < 3) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = 3 - first;
    const ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      if (metrics_ != nullptr) metrics_->CountTx(static_cast<std::size_t>(n));
      written += static_cast<std::size_t>(n);
      for (std::size_t left = static_cast<std::size_t>(n); left > 0;) {
        const std::size_t take = std::min(left, iov[first].iov_len);
        iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) +
                              take;
        iov[first].iov_len -= take;
        left -= take;
        skip_empty();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    last_error_ = ErrnoString("send");
    return IoResult::kError;
  }
  out_head_ += std::min(written, queued_bytes());
  if (out_head_ == outbuf_.size()) {
    outbuf_.clear();
    out_head_ = 0;
  } else if (out_head_ > (outbuf_.size() / 2)) {
    outbuf_.erase(outbuf_.begin(),
                  outbuf_.begin() + static_cast<std::ptrdiff_t>(out_head_));
    out_head_ = 0;
  }
  // Whatever of the new frame the socket refused is copied now, so the
  // caller's bytes are free when the send returns.
  for (std::size_t i = 1; i < 3; ++i) {
    const auto* tail = static_cast<const std::uint8_t*>(iov[i].iov_base);
    outbuf_.insert(outbuf_.end(), tail, tail + iov[i].iov_len);
  }
  if (metrics_ != nullptr && metrics_->write_queue_bytes != nullptr) {
    metrics_->write_queue_bytes->Set(static_cast<double>(queued_bytes()));
  }
  return IoResult::kOk;
}

Connection::IoResult Connection::HandleWritable() {
  // Draining a backlog is its own stage; a send's own write belongs to the
  // stage that sends (push, fan_out), so no scope is opened per frame.
  obs::ScopedStage stage(&obs::StageProfiler::Global(), "write_flush");
  return FlushSome();
}

Connection::IoResult Connection::HandleReadable() {
  // Severed inbound (stall / rx partition): leave whatever arrives in the
  // kernel buffer, exactly as a frozen process would.
  if (rx_blocked_) return IoResult::kOk;
  // Headers and small frames arrive through the stack chunk, several per
  // recv(2); a payload that still needs more than a chunk is received
  // straight into its frame.
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const std::span<std::uint8_t> next = parser_.Next();
    const bool in_place = next.size() > sizeof(chunk);
    std::uint8_t* dst = in_place ? next.data() : chunk;
    const std::size_t want = in_place ? next.size() : sizeof(chunk);
    const ssize_t n = recv(fd_, dst, want, 0);
    if (n > 0) {
      const auto got = static_cast<std::size_t>(n);
      if (metrics_ != nullptr) metrics_->CountRx(got);
      obs::ScopedStage stage(&obs::StageProfiler::Global(), "frame_parse");
      std::vector<Frame> frames;
      const bool ok = in_place
                          ? parser_.Commit(got, &frames)
                          : parser_.Feed(util::ByteSpan(chunk, got), &frames);
      if (!ok) {
        if (metrics_ != nullptr && metrics_->frame_errors != nullptr) {
          metrics_->frame_errors->Add(1.0);
        }
        last_error_ = std::string("malformed frame (") +
                      ParseErrorName(parser_.error()) + ")";
        return IoResult::kError;
      }
      if (metrics_ != nullptr && metrics_->frames_rx != nullptr &&
          !frames.empty()) {
        metrics_->frames_rx->Add(static_cast<double>(frames.size()));
      }
      for (auto& frame : frames) inbox_.push_back(std::move(frame));
      if (got < want) return IoResult::kOk;
      continue;
    }
    if (n == 0) return IoResult::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
    if (errno == EINTR) continue;
    last_error_ = ErrnoString("recv");
    return IoResult::kError;
  }
}

bool Connection::PopFrame(Frame* out) {
  if (inbox_.empty()) return false;
  *out = std::move(inbox_.front());
  inbox_.pop_front();
  return true;
}

Connection::IoResult Connection::FlushOutput(int timeout_ms) {
  Deadline deadline(timeout_ms);
  while (wants_write()) {
    const int remaining = deadline.RemainingMs();
    if (remaining == 0) {
      last_error_ = "flush timed out";
      return IoResult::kTimeout;
    }
    pollfd pfd{fd_, POLLOUT, 0};
    const int ready = poll(&pfd, 1, remaining);
    if (ready < 0 && errno != EINTR) {
      last_error_ = ErrnoString("poll");
      return IoResult::kError;
    }
    if (ready > 0 && HandleWritable() == IoResult::kError) {
      return IoResult::kError;
    }
  }
  return IoResult::kOk;
}

Connection::IoResult Connection::WaitFrame(Frame* out, int timeout_ms) {
  Deadline deadline(timeout_ms);
  for (;;) {
    if (PopFrame(out)) return IoResult::kOk;
    const int remaining = deadline.RemainingMs();
    if (remaining == 0) {
      last_error_ = "timed out waiting for a frame";
      return IoResult::kTimeout;
    }
    if (rx_blocked_) {
      // Inbound is severed: polling POLLIN (or riding out POLLHUP) would
      // spin hot on the never-drained fd. Flush opportunistically, then
      // sleep a bounded slice so the deadline still fires.
      if (wants_write() && HandleWritable() == IoResult::kError) {
        return IoResult::kError;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(remaining, 20)));
      continue;
    }
    pollfd pfd{fd_, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)),
               0};
    const int ready = poll(&pfd, 1, remaining);
    if (ready < 0) {
      if (errno == EINTR) continue;
      last_error_ = ErrnoString("poll");
      return IoResult::kError;
    }
    if (ready == 0) continue;  // re-check the deadline
    if ((pfd.revents & POLLOUT) != 0 &&
        HandleWritable() == IoResult::kError) {
      return IoResult::kError;
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const IoResult r = HandleReadable();
      if (r == IoResult::kError) return r;
      if (r == IoResult::kClosed && inbox_.empty()) return IoResult::kClosed;
    }
  }
}

// --- TcpServer ------------------------------------------------------------

TcpServer::TcpServer(const TransportMetrics* metrics) : metrics_(metrics) {}

TcpServer::~TcpServer() { Close(); }

bool TcpServer::Listen(const std::string& host, int port, std::string* error) {
  THREELC_CHECK_MSG(listen_fd_ < 0, "TcpServer already listening");
  int bound_port = -1;
  const int fd = ListenOn(host, port, error, &bound_port);
  if (fd < 0) return false;
  AdoptListener(fd, bound_port);
  return true;
}

void TcpServer::AdoptListener(int listen_fd, int port) {
  THREELC_CHECK_MSG(listen_fd_ < 0, "TcpServer already listening");
  listen_fd_ = listen_fd;
  port_ = port;
  SetNonBlocking(listen_fd_);
}

void TcpServer::Close() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  conns_.clear();
}

void TcpServer::Reap() {
  for (std::size_t i = 0; i < conns_.size();) {
    if (!conns_[i]->open()) {
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

bool TcpServer::Poll(int timeout_ms) {
  if (listen_fd_ < 0) return false;

  std::vector<pollfd> pfds;
  pfds.reserve(conns_.size() + 1);
  pfds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& conn : conns_) {
    // An rx-blocked (stalled/partitioned) connection must not be polled
    // for POLLIN: the unread kernel bytes would make every poll return
    // instantly. When no event is of interest a negative fd keeps the
    // pfds[i+1] <-> conns_[i] mapping while poll(2) skips the entry.
    const short events =
        static_cast<short>((conn->rx_blocked() ? 0 : POLLIN) |
                           (conn->wants_write() ? POLLOUT : 0));
    pfds.push_back({events != 0 ? conn->fd() : -1, events, 0});
  }

  const int ready = poll(pfds.data(), pfds.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return true;
    THREELC_LOG(Error) << "rpc: poll failed: " << std::strerror(errno);
    return true;
  }
  if (ready == 0) return true;

  // Accept everything pending.
  if ((pfds[0].revents & POLLIN) != 0) {
    for (;;) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN or transient error; retry next Poll
      conns_.push_back(std::make_unique<Connection>(fd, metrics_));
      if (on_accept) on_accept(*conns_.back());
    }
  }

  // Service connections. pfds[i + 1] corresponds to conns_[i]; Reap only
  // runs afterwards, and accepts append, so the mapping stays valid.
  const std::size_t polled = pfds.size() - 1;
  for (std::size_t i = 0; i < polled && i < conns_.size(); ++i) {
    Connection& conn = *conns_[i];
    const short revents = pfds[i + 1].revents;
    if (!conn.open() || revents == 0) continue;

    std::string disconnect_reason;
    bool disconnected = false;
    if ((revents & POLLOUT) != 0) {
      if (conn.HandleWritable() == Connection::IoResult::kError) {
        disconnected = true;
        disconnect_reason = conn.last_error();
      }
    }
    if (!disconnected && !conn.rx_blocked() &&
        (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const Connection::IoResult r = conn.HandleReadable();
      if (r == Connection::IoResult::kError) {
        disconnected = true;
        disconnect_reason = conn.last_error();
      } else if (r == Connection::IoResult::kClosed) {
        disconnected = true;
        disconnect_reason = "peer closed connection";
      }
    }
    // Deliver frames parsed before any error/close, then the disconnect.
    Frame frame;
    while (conn.open() && conn.PopFrame(&frame)) {
      if (on_frame) on_frame(conn, std::move(frame));
    }
    if (disconnected && conn.open()) {
      if (metrics_ != nullptr && metrics_->disconnects != nullptr) {
        metrics_->disconnects->Add(1.0);
      }
      if (on_disconnect) on_disconnect(conn, disconnect_reason);
      conn.Close();
    }
  }
  Reap();
  return true;
}

}  // namespace threelc::rpc
