// POSIX TCP transport for the distributed runtime — sockets, poll(2), and
// nothing else. No third-party dependencies, mirroring obs/http_server.
//
// Pieces:
//  - ListenOn / ConnectWithRetry: socket setup. Connects retry with
//    exponential backoff (a worker may start before its server binds).
//  - Connection: one non-blocking TCP_NODELAY socket carrying rpc frames.
//    A send writes the frame's header and the caller's payload with one
//    sendmsg(2), behind anything already queued; only what the socket
//    refuses is copied into a bounded write queue. Incoming bytes go
//    through an incremental FrameParser into an inbox: headers and small
//    frames through a 64 KiB stack chunk, a large payload recv(2)'d
//    straight into its frame. On each side a bulk payload byte is copied
//    only by the kernel's socket copy, and read once more by the CRC.
//    The same object serves two driving styles: the server's poll loop
//    calls HandleReadable/HandleWritable from TcpServer::Poll, while a
//    worker uses the blocking helpers (FlushOutput with a deadline,
//    WaitFrame).
//  - TcpServer: listener plus N connections multiplexed through one
//    poll(2) call, surfacing accepts/frames/disconnects via callbacks.
//
// Every byte that crosses a socket is counted in TransportMetrics (wired
// into MetricsRegistry as rpc/* counters, visible on /metricsz), which is
// how measured wire traffic is compared against the analytic TrafficMeter
// accounting (tools/plot_results.py wire).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rpc/frame.h"

namespace threelc::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace threelc::obs

namespace threelc::rpc {

class FaultInjector;

// Nullable counter handles; a default-constructed TransportMetrics makes
// every recording a no-op. RegisterIn binds the rpc/* names whose
// Prometheus forms (rpc_wire_bytes_total, ...) the CI smoke job scrapes.
struct TransportMetrics {
  obs::Counter* wire_bytes = nullptr;     // rpc/wire_bytes (tx + rx)
  obs::Counter* wire_tx_bytes = nullptr;  // rpc/wire_tx_bytes
  obs::Counter* wire_rx_bytes = nullptr;  // rpc/wire_rx_bytes
  obs::Counter* frames_tx = nullptr;      // rpc/frames_tx
  obs::Counter* frames_rx = nullptr;      // rpc/frames_rx
  obs::Counter* frame_errors = nullptr;   // rpc/frame_errors
  obs::Counter* connect_retries = nullptr;  // rpc/connect_retries
  obs::Counter* timeouts = nullptr;         // rpc/timeouts
  obs::Counter* disconnects = nullptr;      // rpc/disconnects
  obs::Counter* faults_injected = nullptr;  // rpc/faults_injected
  // Write-queue depth after the most recent queue/flush on any connection
  // sharing this struct (a backpressure "high-water" signal for /metricsz),
  // plus the count of sends rejected because the queue bound was hit.
  obs::Gauge* write_queue_bytes = nullptr;       // rpc/write_queue_bytes
  obs::Counter* backpressure_rejects = nullptr;  // rpc/backpressure_rejects

  static TransportMetrics RegisterIn(obs::MetricsRegistry& registry);

  void CountTx(std::size_t bytes) const;
  void CountRx(std::size_t bytes) const;
};

// Bind + listen on host:port (port 0 picks an ephemeral port, reported via
// *bound_port). Returns the listening fd, or -1 with *error filled.
int ListenOn(const std::string& host, int port, std::string* error,
             int* bound_port);

struct RetryOptions {
  int max_attempts = 20;
  int initial_backoff_ms = 50;
  int max_backoff_ms = 2000;
  double multiplier = 2.0;
  // Overall wall-clock budget across all attempts (0 = attempts-only).
  // ConnectWithRetry stops — mid-backoff if needed — once the deadline
  // passes, so the initial connect and every mid-run reconnect share one
  // bounded policy: a worker whose server never comes back fails promptly
  // instead of riding out the full exponential schedule.
  int deadline_ms = 0;
  // Deterministic jitter: with a nonzero jitter_seed, each backoff is
  // scaled by a factor in [1 - jitter, 1 + jitter] derived purely from
  // (jitter_seed, attempt index) — no wall clock — so a fleet of workers
  // given distinct seeds desynchronizes after a server blip while each
  // worker's schedule stays reproducible. jitter_seed == 0 keeps the
  // plain exponential schedule.
  double jitter = 0.5;
  std::uint64_t jitter_seed = 0;
};

// The backoff (ms) slept after `attempt` consecutive failures (attempt
// >= 1), exponential in `attempt` with deterministic seeded jitter per
// RetryOptions. Pure function, exposed for unit-testing the schedule.
int BackoffDelayMs(const RetryOptions& retry, int attempt);

// Blocking connect with exponential backoff between attempts. Each retry
// increments metrics->connect_retries. Returns a connected fd, or -1 with
// *error describing the last failure.
int ConnectWithRetry(const std::string& host, int port,
                     const RetryOptions& retry,
                     const TransportMetrics* metrics, std::string* error);

bool SetNonBlocking(int fd);
bool SetNoDelay(int fd);

class Connection {
 public:
  enum class IoResult {
    kOk,      // made progress (possibly none needed)
    kClosed,   // peer closed the connection
    kError,    // socket error, parse error, or queue overflow
    kTimeout,  // a blocking helper's deadline passed first
  };

  // 64 MiB of queued-but-unsent frames before SendFrame reports
  // backpressure failure — far above a step's worth of pulls, so hitting
  // it means the peer stopped reading.
  static constexpr std::size_t kDefaultMaxQueuedBytes = 64u << 20;

  // Takes ownership of `fd`; switches it to non-blocking + TCP_NODELAY.
  explicit Connection(int fd, const TransportMetrics* metrics = nullptr,
                      std::size_t max_queued_bytes = kDefaultMaxQueuedBytes);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }
  void Close();

  // Send one frame (its header encoded here, its payload written from
  // where it lies) or pre-encoded frame bytes (the shared pull payload is
  // encoded once and fanned out to every worker as the same bytes).
  // Writes behind the queue without blocking; whatever the socket does
  // not take is copied into the queue before returning. Returns false —
  // with last_error() set — when the write queue bound would be exceeded
  // or the connection is closed.
  bool SendFrame(MsgType type, std::uint64_t step, std::uint32_t tensor,
                 util::ByteSpan payload);
  bool SendEncoded(util::ByteSpan frame_bytes, std::size_t frame_count);

  // A stalled connection holds its queue without flushing, so it never
  // "wants" a POLLOUT it would ignore; the queued bytes still count
  // against the backpressure bound.
  bool wants_write() const {
    return !tx_stalled_ && outbuf_.size() > out_head_;
  }
  std::size_t queued_bytes() const { return outbuf_.size() - out_head_; }

  // Injected liveness faults (FaultAction::kStall / kPartition) latch
  // these: rx_blocked stops delivering inbound bytes (poll drivers must
  // skip POLLIN), tx_stalled queues without flushing (a frozen process),
  // tx_dropped discards flushed bytes (a one-way network partition).
  bool rx_blocked() const { return rx_blocked_; }
  bool tx_stalled() const { return tx_stalled_; }
  bool tx_dropped() const { return tx_dropped_; }

  // Non-blocking drains, for poll-loop drivers. HandleReadable consumes
  // everything currently readable into the inbox; HandleWritable flushes
  // as much of the write queue as the socket accepts.
  IoResult HandleReadable();
  IoResult HandleWritable();

  // Oldest fully parsed frame, if any.
  bool PopFrame(Frame* out);
  std::size_t inbox_size() const { return inbox_.size(); }

  // Blocking helpers for the single-connection (worker) side.
  // FlushOutput writes the whole queue; WaitFrame returns the next frame,
  // reading as needed. Both return kTimeout after `timeout_ms` without
  // completion and leave rpc/timeouts to the caller, which knows whether
  // the deadline was its own or one slice of a longer wait.
  IoResult FlushOutput(int timeout_ms);
  IoResult WaitFrame(Frame* out, int timeout_ms);

  ParseError parse_error() const { return parser_.error(); }
  const std::string& last_error() const { return last_error_; }

  // Route every outbound frame through `injector` (not owned; may be
  // nullptr to disable). Single-frame sends only — pre-batched multi-frame
  // buffers bypass injection.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

 private:
  // One non-blocking write pass over the queue and then `head` and
  // `body`, the pieces of a new frame; whatever of them the socket does
  // not take is appended to the queue.
  IoResult FlushSome(util::ByteSpan head = {}, util::ByteSpan body = {});
  // The bound check, frames_tx and FlushSome.
  bool QueueAndFlush(util::ByteSpan head, util::ByteSpan body,
                     std::size_t frame_count);
  // One frame (head then body) or a batch of encoded frames (head alone)
  // through the fault injector, then QueueAndFlush.
  bool Send(util::ByteSpan head, util::ByteSpan body,
            std::size_t frame_count);

  int fd_;
  const TransportMetrics* metrics_;
  std::size_t max_queued_bytes_;
  FaultInjector* fault_ = nullptr;
  FrameParser parser_;
  std::deque<Frame> inbox_;
  std::vector<std::uint8_t> outbuf_;
  std::size_t out_head_ = 0;
  std::string last_error_;
  bool rx_blocked_ = false;
  bool tx_stalled_ = false;
  bool tx_dropped_ = false;
};

// Listener + connections behind one poll(2). Callbacks fire from Poll on
// the calling thread; on_frame may send on the connection or Close() it.
class TcpServer {
 public:
  explicit TcpServer(const TransportMetrics* metrics = nullptr);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  bool Listen(const std::string& host, int port, std::string* error);
  // Use a listener socket created elsewhere (e.g. bound before fork so
  // children know the ephemeral port).
  void AdoptListener(int listen_fd, int port);
  int port() const { return port_; }
  bool listening() const { return listen_fd_ >= 0; }

  std::function<void(Connection&)> on_accept;
  std::function<void(Connection&, Frame&&)> on_frame;
  // Peer-initiated close or I/O / parse error; the connection is removed
  // after the callback returns.
  std::function<void(Connection&, const std::string& reason)> on_disconnect;

  // One multiplexing iteration: wait up to timeout_ms for socket events,
  // then accept / read / write / reap. Returns false when the listener is
  // gone (Close()d or failed).
  bool Poll(int timeout_ms);

  std::size_t connection_count() const { return conns_.size(); }
  // Close the listener and every connection.
  void Close();

 private:
  void Reap();  // drop closed connections

  const TransportMetrics* metrics_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace threelc::rpc
