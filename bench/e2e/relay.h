// The benchmark's emulated network: a TCP relay between the workers and
// the server, run on one poll(2) thread.
//
// Each worker connects to the relay instead of the server; the relay opens
// one server connection per accepted worker and copies bytes both ways. A
// shaped relay paces each direction of each link to `rate_bps` with a
// token bucket that earns no credit while its direction is idle (an idle
// wire cannot transmit ahead of time) and holds at most 16 KiB of credit
// when the thread wakes late. An unshaped relay copies as fast as
// the sockets allow.
//
// The relay reads only the fixed 28-byte rpc frame header (type, step,
// payload length) to find frame boundaries. From them it counts frames and
// bytes, stamps when the first byte of each step's PUSH (worker -> server)
// or PULL (server -> worker) frames came in and when their last byte went
// out, and optionally keeps whole PUSH/PULL frames of every
// `capture_every`-th step for offline replay. A header with a bad magic,
// version, type or length is counted as malformed; the bytes are still
// forwarded, so the runtime's own checks see exactly what it sent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace threelc::bench {

struct RelayOptions {
  int server_port = 0;
  double rate_bps = 0.0;     // per direction per link; 0 = unshaped
  std::int64_t steps = 0;    // steps of the run (sizes per-step tables)
  int capture_every = 0;     // 0 = capture nothing
  int cpu = -1;              // pin the relay thread here (-1: don't)
};

// Per-step accounting for one direction of one link.
struct PipeStep {
  double first_in_ms = -1.0;  // first byte of the step's PUSH/PULL frames read
  double last_out_ms = -1.0;  // last byte of them written
  std::uint64_t bytes = 0;    // PUSH/PULL frame bytes (header + payload)
  std::uint64_t frames = 0;   // frames of every type carrying this step
};

// One direction of one link: up = worker -> server, down = server -> worker.
struct PipeStats {
  std::uint64_t bytes = 0;  // every byte relayed, handshake and BYE included
  std::uint64_t malformed = 0;
  std::vector<PipeStep> steps;
  // Captured whole frames (header + payload) of sampled steps, by step.
  std::map<std::int64_t, std::vector<std::uint8_t>> captured;
};

class Relay {
 public:
  explicit Relay(RelayOptions options);
  ~Relay();  // stops and joins the thread

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  // Listen on an ephemeral loopback port and start the relay thread.
  bool Start(std::string* error);
  int port() const { return port_; }

  // Stop the thread (if still running) and join it. Statistics are valid
  // after this returns.
  void Stop();

  // [link][0 = up, 1 = down], links in accept order.
  const std::vector<std::vector<PipeStats>>& links() const { return links_; }
  // Non-empty if the relay thread hit a socket error.
  const std::string& error() const { return error_; }

 private:
  void Loop();

  RelayOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Stop() wakes poll
  std::vector<std::vector<PipeStats>> links_;
  std::string error_;
  std::thread thread_;  // declared last: Loop uses every member above
};

}  // namespace threelc::bench
