#include "relay.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>

#include "probes.h"
#include "rpc/frame.h"
#include "rpc/transport.h"

namespace threelc::bench {

namespace {

// Bytes a direction may hold between reading and writing. Beyond this the
// relay stops reading, so the sender's socket fills and TCP backpressure
// reaches it as it would on a slow wire.
constexpr std::size_t kMaxPending = 256 * 1024;
// A paced direction writes once it has earned this much credit (or the
// whole backlog, if smaller): about one TCP segment.
constexpr double kQuantumBytes = 1448.0;
// Most credit a paced direction keeps when the relay thread wakes late.
constexpr double kBucketBytes = 16 * 1024;

std::uint32_t LoadU32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// One direction of one link: bytes read from `src` wait in `buf` until the
// pacer lets them out to `dst`.
struct Pipe {
  int src = -1;
  int dst = -1;
  rpc::MsgType tracked = rpc::MsgType::kPush;  // PUSH up, PULL down
  std::vector<std::uint8_t> buf;
  std::size_t head = 0;  // buf[head..] is pending
  bool src_eof = false;
  bool dst_shut = false;
  bool want_out = false;  // last send hit EAGAIN
  // Pacer state.
  double tokens = 0.0;
  double refill_ms = 0.0;
  // Frame-boundary tracker over the input stream.
  std::uint8_t header[rpc::kFrameHeaderBytes];
  std::size_t header_have = 0;
  double header_in_ms = 0.0;
  std::uint64_t payload_left = 0;
  bool poisoned = false;
  bool capturing = false;
  std::int64_t frame_step = -1;
  std::uint64_t in_offset = 0;
  std::uint64_t out_offset = 0;
  // (stream offset one past a tracked frame's last byte, its step).
  std::deque<std::pair<std::uint64_t, std::int64_t>> frame_ends;

  std::size_t pending() const { return buf.size() - head; }
};

struct Link {
  int worker_fd = -1;
  int server_fd = -1;
  Pipe pipes[2];  // [0] up, [1] down
  bool closed = false;
};

void CloseFd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

Relay::Relay(RelayOptions options) : options_(options) {}

Relay::~Relay() {
  Stop();
  CloseFd(listen_fd_);
  CloseFd(wake_fds_[0]);
  CloseFd(wake_fds_[1]);
}

bool Relay::Start(std::string* error) {
  listen_fd_ = rpc::ListenOn("127.0.0.1", 0, error, &port_);
  if (listen_fd_ < 0) return false;
  if (!rpc::SetNonBlocking(listen_fd_) || ::pipe(wake_fds_) != 0) {
    *error = std::string("relay setup: ") + std::strerror(errno);
    return false;
  }
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void Relay::Stop() {
  if (!thread_.joinable()) return;
  const char byte = 1;
  // Cannot fail: the pipe is open and nothing else writes to it.
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  thread_.join();
}

void Relay::Loop() {
  PinToCpu(options_.cpu);
  std::vector<std::unique_ptr<Link>> links;
  const double bytes_per_ms = options_.rate_bps / 8.0 / 1000.0;
  const bool shaped = options_.rate_bps > 0.0;
  auto fail = [this](const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + ": " + std::strerror(errno);
    }
  };

  // Feed bytes just read (at `now`) through a pipe's frame tracker.
  auto track_input = [&](Pipe& p, PipeStats& stats, const std::uint8_t* data,
                         std::size_t n, double now) {
    stats.bytes += n;
    while (n > 0 && !p.poisoned) {
      if (p.payload_left > 0) {
        const auto k = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, p.payload_left));
        if (p.capturing) {
          auto& cap = stats.captured[p.frame_step];
          cap.insert(cap.end(), data, data + k);
        }
        p.payload_left -= k;
        p.in_offset += k;
        data += k;
        n -= k;
        continue;
      }
      // Header bytes. The first one stamps the frame's first byte in.
      if (p.header_have == 0) p.header_in_ms = now;
      const std::size_t k = std::min(n, rpc::kFrameHeaderBytes - p.header_have);
      std::memcpy(p.header + p.header_have, data, k);
      const std::uint64_t frame_start = p.in_offset - p.header_have;
      p.header_have += k;
      p.in_offset += k;
      data += k;
      n -= k;
      if (p.header_have < rpc::kFrameHeaderBytes) continue;
      p.header_have = 0;
      const std::uint8_t type = p.header[5];
      const std::uint64_t len = LoadU32(p.header + 20);
      if (LoadU32(p.header) != rpc::kFrameMagic ||
          p.header[4] != rpc::kProtocolVersion || !rpc::IsValidMsgType(type) ||
          len > rpc::kMaxPayloadBytes) {
        ++stats.malformed;
        p.poisoned = true;
        break;
      }
      const auto step = static_cast<std::int64_t>(LoadU64(p.header + 8));
      p.payload_left = len;
      p.capturing = false;
      p.frame_step = step;
      if (step < 0 || step >= options_.steps) continue;
      PipeStep& ps = stats.steps[static_cast<std::size_t>(step)];
      ++ps.frames;
      if (static_cast<rpc::MsgType>(type) != p.tracked) continue;
      if (ps.first_in_ms < 0.0) ps.first_in_ms = p.header_in_ms;
      ps.bytes += rpc::kFrameHeaderBytes + len;
      p.frame_ends.emplace_back(frame_start + rpc::kFrameHeaderBytes + len,
                                step);
      if (options_.capture_every > 0 && step % options_.capture_every == 0) {
        p.capturing = true;
        auto& cap = stats.captured[step];
        cap.insert(cap.end(), p.header, p.header + rpc::kFrameHeaderBytes);
      }
    }
    if (p.poisoned) p.in_offset += n;
  };

  auto read_pipe = [&](Pipe& p, PipeStats& stats) {
    std::uint8_t chunk[64 * 1024];
    while (!p.src_eof && p.pending() < kMaxPending) {
      const std::size_t room =
          std::min(sizeof(chunk), kMaxPending - p.pending());
      const ssize_t r = ::recv(p.src, chunk, room, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          fail("relay recv");
          p.src_eof = true;
        }
        return;
      }
      if (r == 0) {
        p.src_eof = true;
        return;
      }
      const double now = NowMs();
      if (p.pending() == 0) {
        // An idle direction earns no credit: the first byte of a burst
        // waits its own serialization time, as on a real wire.
        p.tokens = 0.0;
        p.refill_ms = now;
      }
      if (p.head > kMaxPending) {
        p.buf.erase(p.buf.begin(),
                    p.buf.begin() + static_cast<std::ptrdiff_t>(p.head));
        p.head = 0;
      }
      p.buf.insert(p.buf.end(), chunk, chunk + r);
      track_input(p, stats, chunk, static_cast<std::size_t>(r), now);
    }
  };

  auto write_pipe = [&](Pipe& p, PipeStats& stats) {
    while (p.pending() > 0) {
      const double now = NowMs();
      std::size_t allowed = p.pending();
      if (shaped) {
        p.tokens = std::min(kBucketBytes,
                            p.tokens + (now - p.refill_ms) * bytes_per_ms);
        p.refill_ms = now;
        // Wait for a segment's worth of credit rather than dribbling out
        // the few bytes earned during the previous send.
        if (p.tokens < std::min(static_cast<double>(allowed), kQuantumBytes)) {
          return;
        }
        allowed = std::min(allowed, static_cast<std::size_t>(p.tokens));
      }
      const ssize_t w =
          ::send(p.dst, p.buf.data() + p.head, allowed, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          p.want_out = true;
        } else {
          fail("relay send");
          p.head = p.buf.size();  // drop: the peer is gone
        }
        return;
      }
      p.want_out = false;
      p.head += static_cast<std::size_t>(w);
      p.out_offset += static_cast<std::uint64_t>(w);
      if (shaped) p.tokens -= static_cast<double>(w);
      // Stamped with the time taken before send(): the receiver it wakes
      // may preempt this thread before a later clock read.
      while (!p.frame_ends.empty() &&
             p.frame_ends.front().first <= p.out_offset) {
        stats.steps[static_cast<std::size_t>(p.frame_ends.front().second)]
            .last_out_ms = now;
        p.frame_ends.pop_front();
      }
    }
    if (p.head == p.buf.size()) {
      p.buf.clear();
      p.head = 0;
    }
  };

  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    double timeout_ms = -1.0;
    for (auto& link : links) {
      if (link->closed) continue;
      for (Pipe& p : link->pipes) {
        short src_events = 0;
        if (!p.src_eof && p.pending() < kMaxPending) src_events = POLLIN;
        fds.push_back({p.src, src_events, 0});
        fds.push_back(
            {p.dst, static_cast<short>(p.want_out ? POLLOUT : 0), 0});
        if (shaped && p.pending() > 0 && !p.want_out) {
          const double need =
              std::min(static_cast<double>(p.pending()), kQuantumBytes);
          const double wait = std::max(0.0, (need - p.tokens) / bytes_per_ms);
          timeout_ms = timeout_ms < 0.0 ? wait : std::min(timeout_ms, wait);
        }
      }
    }
    timespec ts{};
    timespec* tsp = nullptr;
    if (timeout_ms >= 0.0) {
      const auto ns = static_cast<long long>(std::ceil(timeout_ms * 1e6));
      ts.tv_sec = static_cast<time_t>(ns / 1000000000LL);
      ts.tv_nsec = static_cast<long>(ns % 1000000000LL);
      tsp = &ts;
    }
    if (::ppoll(fds.data(), fds.size(), tsp, nullptr) < 0 && errno != EINTR) {
      fail("relay poll");
      break;
    }
    if (fds[0].revents != 0) break;  // Stop()

    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int worker_fd = ::accept(listen_fd_, nullptr, nullptr);
        if (worker_fd < 0) break;
        std::string connect_error;
        rpc::RetryOptions retry;
        retry.max_attempts = 3;
        const int server_fd = rpc::ConnectWithRetry(
            "127.0.0.1", options_.server_port, retry, nullptr, &connect_error);
        if (server_fd < 0) {
          if (error_.empty()) error_ = "relay connect: " + connect_error;
          ::close(worker_fd);
          continue;
        }
        rpc::SetNonBlocking(worker_fd);
        rpc::SetNonBlocking(server_fd);
        rpc::SetNoDelay(worker_fd);
        rpc::SetNoDelay(server_fd);
        auto link = std::make_unique<Link>();
        link->worker_fd = worker_fd;
        link->server_fd = server_fd;
        link->pipes[0].src = worker_fd;
        link->pipes[0].dst = server_fd;
        link->pipes[0].tracked = rpc::MsgType::kPush;
        link->pipes[1].src = server_fd;
        link->pipes[1].dst = worker_fd;
        link->pipes[1].tracked = rpc::MsgType::kPull;
        links.push_back(std::move(link));
        links_.emplace_back(2);
        for (PipeStats& s : links_.back()) {
          s.steps.resize(static_cast<std::size_t>(options_.steps));
        }
      }
    }

    for (std::size_t l = 0; l < links.size(); ++l) {
      Link& link = *links[l];
      if (link.closed) continue;
      for (int d = 0; d < 2; ++d) {
        Pipe& p = link.pipes[d];
        PipeStats& stats = links_[l][static_cast<std::size_t>(d)];
        read_pipe(p, stats);
        write_pipe(p, stats);
        if (p.src_eof && p.pending() == 0 && !p.dst_shut) {
          ::shutdown(p.dst, SHUT_WR);
          p.dst_shut = true;
        }
      }
      if (link.pipes[0].dst_shut && link.pipes[1].dst_shut) {
        CloseFd(link.worker_fd);
        CloseFd(link.server_fd);
        link.closed = true;
      }
    }
  }
  for (auto& link : links) {
    CloseFd(link->worker_fd);
    CloseFd(link->server_fd);
  }
}

}  // namespace threelc::bench
