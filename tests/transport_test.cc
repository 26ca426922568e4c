// Transport tests: Connection framing over real sockets with partial
// reads/writes, bounded write queues, blocking-helper timeouts,
// connect-with-retry behaviour against dead and late-binding ports, the
// TcpServer poll loop (accept / frame / disconnect callbacks), and the
// write-through send path (partial sendmsg tails, order, faults).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "rpc/fault.h"
#include "rpc/transport.h"
#include "util/rng.h"

namespace threelc::rpc {
namespace {

util::ByteBuffer MakePayload(std::size_t n, std::uint8_t seed) {
  util::ByteBuffer payload;
  for (std::size_t i = 0; i < n; ++i) {
    payload.PushByte(static_cast<std::uint8_t>(seed + 31 * i));
  }
  return payload;
}

// A connected AF_UNIX pair gives deterministic, single-threaded control
// over both ends of a byte stream.
void MakeSocketPair(int fds[2]) {
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
}

TEST(Connection, FrameRoundTripOverSocketPair) {
  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0]);
  Connection b(fds[1]);

  util::ByteBuffer payload = MakePayload(300, 1);
  ASSERT_TRUE(a.SendFrame(MsgType::kPush, 5, 2, payload.span()));
  ASSERT_EQ(a.FlushOutput(1000), Connection::IoResult::kOk);

  Frame frame;
  ASSERT_EQ(b.WaitFrame(&frame, 1000), Connection::IoResult::kOk);
  EXPECT_EQ(frame.header.type, MsgType::kPush);
  EXPECT_EQ(frame.header.step, 5u);
  EXPECT_EQ(frame.header.tensor, 2u);
  EXPECT_EQ(frame.payload, payload);
}

// A payload far larger than any socket buffer forces the write side
// through many partial send(2) calls and the read side through many
// partial recv(2) calls; the frame must still reassemble bit-exactly.
TEST(Connection, LargeFrameSurvivesPartialReadsAndWrites) {
  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0]);
  Connection b(fds[1]);

  util::ByteBuffer payload = MakePayload(4u << 20, 7);  // 4 MiB
  ASSERT_TRUE(a.SendFrame(MsgType::kPull, 1, 0, payload.span()));
  EXPECT_TRUE(a.wants_write());  // could not fit in the socket buffer

  // Interleave non-blocking drains on both ends; neither side may block.
  Frame frame;
  bool got = false;
  for (int i = 0; i < 100000 && !got; ++i) {
    ASSERT_NE(a.HandleWritable(), Connection::IoResult::kError)
        << a.last_error();
    ASSERT_NE(b.HandleReadable(), Connection::IoResult::kError)
        << b.last_error();
    got = b.PopFrame(&frame);
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(a.wants_write());
}

TEST(Connection, BoundedWriteQueueRejectsOverflow) {
  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0], nullptr, /*max_queued_bytes=*/4096);
  Connection b(fds[1]);

  util::ByteBuffer payload = MakePayload(2048, 3);
  // The peer never reads, so the queue fills; eventually SendFrame must
  // report backpressure instead of buffering without bound.
  bool rejected = false;
  for (int i = 0; i < 10000 && !rejected; ++i) {
    rejected = !a.SendFrame(MsgType::kPush, 0, 0, payload.span());
  }
  EXPECT_TRUE(rejected);
  EXPECT_FALSE(a.last_error().empty());
  (void)b;
}

// An injected `stall` freezes the endpoint: it stops reading AND stops
// flushing, but the socket stays open — the transport-level model of a
// SIGSTOP'd peer. Queued frames must count against the bounded write
// queue so memory stays bounded and SendFrame reports backpressure
// (rpc/backpressure_rejects), rather than growing the outbuf forever.
TEST(Connection, StalledEndpointTripsBackpressureNotMemoryGrowth) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  TransportMetrics metrics = TransportMetrics::RegisterIn(registry);

  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0], &metrics, /*max_queued_bytes=*/4096);
  Connection b(fds[1]);

  FaultInjector injector(/*seed=*/5);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("stall:push@1", &spec_error))
      << spec_error;
  a.set_fault_injector(&injector);

  util::ByteBuffer payload = MakePayload(1024, 5);
  // The triggering frame latches the stall; it queues but never flushes.
  ASSERT_TRUE(a.SendFrame(MsgType::kPush, 1, 0, payload.span()));
  EXPECT_TRUE(a.tx_stalled());
  EXPECT_TRUE(a.rx_blocked());
  EXPECT_FALSE(a.wants_write());  // frozen: never asks for POLLOUT

  bool rejected = false;
  for (int i = 0; i < 100 && !rejected; ++i) {
    rejected = !a.SendFrame(MsgType::kPush, 2, 0, payload.span());
  }
  EXPECT_TRUE(rejected);
  EXPECT_GE(metrics.backpressure_rejects->value(), 1.0);
  EXPECT_NE(a.last_error().find("write queue full"), std::string::npos)
      << a.last_error();
  // Bounded: the queue never exceeded its cap plus one in-flight frame.
  EXPECT_LE(a.queued_bytes(), 4096u + kFrameHeaderBytes + payload.size());
  (void)b;
}

// An injected one-way (tx) partition silently discards outbound frames —
// the app-level send "succeeds" — while the rx side stays live, the
// network shape that used to park a worker in pull-wait for the full
// step timeout.
TEST(Connection, TxPartitionDropsFramesSilentlyWhileRxStaysLive) {
  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0]);
  Connection b(fds[1]);

  FaultInjector injector(/*seed=*/6);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("partition:tx@1#*", &spec_error))
      << spec_error;
  a.set_fault_injector(&injector);

  util::ByteBuffer payload = MakePayload(64, 2);
  ASSERT_TRUE(a.SendFrame(MsgType::kPush, 1, 0, payload.span()));  // lost
  EXPECT_TRUE(a.tx_dropped());
  EXPECT_FALSE(a.rx_blocked());  // tx-only: the other direction is fine
  EXPECT_EQ(a.FlushOutput(100), Connection::IoResult::kOk);
  EXPECT_FALSE(a.wants_write());

  // Nothing arrives at the peer.
  Frame frame;
  EXPECT_EQ(b.WaitFrame(&frame, 100), Connection::IoResult::kTimeout);

  // The reverse direction still delivers: b -> a is untouched.
  ASSERT_TRUE(b.SendFrame(MsgType::kPull, 3, 0, payload.span()));
  ASSERT_EQ(b.FlushOutput(1000), Connection::IoResult::kOk);
  ASSERT_EQ(a.WaitFrame(&frame, 1000), Connection::IoResult::kOk);
  EXPECT_EQ(frame.header.type, MsgType::kPull);
}

// A deadline is a result value, not an error; rpc/timeouts is the
// caller's to count (a lease-sliced wait runs many short deadlines).
TEST(Connection, WaitFrameTimesOutWithoutCountingIt) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  TransportMetrics metrics = TransportMetrics::RegisterIn(registry);

  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0], &metrics);
  Connection b(fds[1], &metrics);

  Frame frame;
  EXPECT_EQ(a.WaitFrame(&frame, 50), Connection::IoResult::kTimeout);
  EXPECT_FALSE(a.last_error().empty());
  EXPECT_EQ(metrics.timeouts->value(), 0.0);
  (void)b;
}

TEST(Connection, PeerCloseSurfacesAsClosed) {
  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0]);
  {
    Connection b(fds[1]);
    // b's destructor closes the socket.
  }
  Frame frame;
  EXPECT_EQ(a.WaitFrame(&frame, 1000), Connection::IoResult::kClosed);
}

TEST(Connection, MalformedBytesSurfaceAsParseError) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  TransportMetrics metrics = TransportMetrics::RegisterIn(registry);

  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0]);
  Connection b(fds[1], &metrics);

  const char garbage[] = "this is definitely not a 3LCR frame header....";
  ASSERT_GT(::send(a.fd(), garbage, sizeof(garbage), 0), 0);
  Frame frame;
  EXPECT_EQ(b.WaitFrame(&frame, 1000), Connection::IoResult::kError);
  EXPECT_EQ(b.parse_error(), ParseError::kBadMagic);
  EXPECT_EQ(metrics.frame_errors->value(), 1.0);
}

TEST(Connection, WireByteCountersMatchTraffic) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  TransportMetrics metrics = TransportMetrics::RegisterIn(registry);

  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0], &metrics);
  Connection b(fds[1], &metrics);

  util::ByteBuffer payload = MakePayload(100, 9);
  const double frame_bytes =
      static_cast<double>(kFrameHeaderBytes + payload.size());
  ASSERT_TRUE(a.SendFrame(MsgType::kHello, 0, 0, payload.span()));
  ASSERT_EQ(a.FlushOutput(1000), Connection::IoResult::kOk);
  Frame frame;
  ASSERT_EQ(b.WaitFrame(&frame, 1000), Connection::IoResult::kOk);

  EXPECT_EQ(metrics.wire_tx_bytes->value(), frame_bytes);
  EXPECT_EQ(metrics.wire_rx_bytes->value(), frame_bytes);
  EXPECT_EQ(metrics.wire_bytes->value(), 2 * frame_bytes);
  EXPECT_EQ(metrics.frames_tx->value(), 1.0);
  EXPECT_EQ(metrics.frames_rx->value(), 1.0);
}

// ---- Write-through sends: header and payload leave with one sendmsg(2),
// and only the tail the socket refuses is queued.

// Interleave non-blocking drains on both ends until `want` frames arrived.
std::vector<Frame> Exchange(Connection& a, Connection& b, std::size_t want) {
  std::vector<Frame> got;
  for (int i = 0; i < 100000 && got.size() < want; ++i) {
    EXPECT_NE(a.HandleWritable(), Connection::IoResult::kError)
        << a.last_error();
    EXPECT_NE(b.HandleReadable(), Connection::IoResult::kError)
        << b.last_error();
    Frame frame;
    while (b.PopFrame(&frame)) got.push_back(std::move(frame));
  }
  return got;
}

// Shrunken socket buffers make the first sendmsg(2) take only part of a
// frame; the rest is queued and flushed later, byte for byte, and the
// counters see exactly the frames and bytes of the traffic.
TEST(ConnectionWriteThrough, SmallSocketBuffersLeaveATailThatArrivesIntact) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  TransportMetrics tx_metrics = TransportMetrics::RegisterIn(registry);
  obs::MetricsRegistry rx_registry;
  rx_registry.set_enabled(true);
  TransportMetrics rx_metrics = TransportMetrics::RegisterIn(rx_registry);

  int fds[2];
  MakeSocketPair(fds);
  const int small = 8192;
  ASSERT_EQ(setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);
  ASSERT_EQ(setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small)),
            0);
  Connection a(fds[0], &tx_metrics);
  Connection b(fds[1], &rx_metrics);

  const std::vector<util::ByteBuffer> payloads = {
      MakePayload(300000, 1), MakePayload(10, 2), MakePayload(0, 3),
      MakePayload(90000, 4)};
  double bytes = 0.0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(a.SendFrame(MsgType::kPush, 7, static_cast<std::uint32_t>(i),
                            payloads[i].span()))
        << a.last_error();
    if (i == 0) {
      EXPECT_TRUE(a.wants_write());  // a tail was queued
    }
    bytes += static_cast<double>(kFrameHeaderBytes + payloads[i].size());
  }
  const std::vector<Frame> got = Exchange(a, b, payloads.size());
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got[i].header.tensor, i);
    EXPECT_EQ(got[i].payload, payloads[i]) << "frame " << i;
  }
  EXPECT_FALSE(a.wants_write());
  EXPECT_EQ(tx_metrics.frames_tx->value(), 4.0);
  EXPECT_EQ(tx_metrics.wire_tx_bytes->value(), bytes);
  EXPECT_EQ(rx_metrics.frames_rx->value(), 4.0);
  EXPECT_EQ(rx_metrics.wire_rx_bytes->value(), bytes);
}

// A frame sent while an earlier one is still queued goes behind it, both
// from SendFrame and from pre-encoded SendEncoded bytes.
TEST(ConnectionWriteThrough, SendsBehindAQueueKeepFrameOrder) {
  int fds[2];
  MakeSocketPair(fds);
  Connection a(fds[0]);
  Connection b(fds[1]);

  util::ByteBuffer big = MakePayload(2u << 20, 5);
  ASSERT_TRUE(a.SendFrame(MsgType::kPull, 1, 0, big.span()));
  ASSERT_TRUE(a.wants_write());
  util::ByteBuffer small = MakePayload(40, 6);
  ASSERT_TRUE(a.SendFrame(MsgType::kPull, 1, 1, small.span()));
  util::ByteBuffer encoded;
  EncodeFrame(MsgType::kPull, 1, 2, small.span(), encoded);
  ASSERT_TRUE(a.SendEncoded(encoded.span(), 1));
  ASSERT_TRUE(a.SendFrame(MsgType::kPull, 1, 3, big.span()));

  const std::vector<Frame> got = Exchange(a, b, 4);
  ASSERT_EQ(got.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].header.tensor, i);
  EXPECT_EQ(got[0].payload, big);
  EXPECT_EQ(got[1].payload, small);
  EXPECT_EQ(got[2].payload, small);
  EXPECT_EQ(got[3].payload, big);
}

// Faults still act on SendFrame's frame although it is never assembled in
// one buffer: a corrupted frame reaches the peer as a CRC failure, and a
// dropped one is swallowed while the next frame arrives.
TEST(ConnectionWriteThrough, CorruptAndDropFaultsActOnSendFrame) {
  util::ByteBuffer payload = MakePayload(200000, 7);
  {
    int fds[2];
    MakeSocketPair(fds);
    Connection a(fds[0]);
    Connection b(fds[1]);
    FaultInjector injector(/*seed=*/8);
    std::string spec_error;
    ASSERT_TRUE(injector.AddRulesFromSpec("corrupt:push@3", &spec_error))
        << spec_error;
    a.set_fault_injector(&injector);
    ASSERT_TRUE(a.SendFrame(MsgType::kPush, 3, 0, payload.span()));
    Connection::IoResult r = Connection::IoResult::kOk;
    for (int i = 0; i < 100000 && r != Connection::IoResult::kError; ++i) {
      ASSERT_NE(a.HandleWritable(), Connection::IoResult::kError);
      r = b.HandleReadable();
    }
    EXPECT_EQ(r, Connection::IoResult::kError);
    EXPECT_EQ(b.parse_error(), ParseError::kBadCrc);
    EXPECT_EQ(b.inbox_size(), 0u);
  }
  {
    int fds[2];
    MakeSocketPair(fds);
    Connection a(fds[0]);
    Connection b(fds[1]);
    FaultInjector injector(/*seed=*/9);
    std::string spec_error;
    ASSERT_TRUE(injector.AddRulesFromSpec("drop:push@3", &spec_error))
        << spec_error;
    a.set_fault_injector(&injector);
    ASSERT_TRUE(a.SendFrame(MsgType::kPush, 3, 0, payload.span()));
    EXPECT_FALSE(a.wants_write());
    ASSERT_TRUE(a.SendFrame(MsgType::kPush, 4, 1, payload.span()));
    const std::vector<Frame> got = Exchange(a, b, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].header.step, 4u);
    EXPECT_EQ(got[0].payload, payload);
    EXPECT_EQ(b.HandleReadable(), Connection::IoResult::kOk);
    EXPECT_EQ(b.inbox_size(), 0u);
  }
}

TEST(ConnectWithRetry, DeadPortFailsAfterBoundedRetries) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  TransportMetrics metrics = TransportMetrics::RegisterIn(registry);

  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 1;
  retry.max_backoff_ms = 2;
  std::string error;
  // Port 1 on loopback: reserved, nothing listens there in this container.
  const int fd = ConnectWithRetry("127.0.0.1", 1, retry, &metrics, &error);
  EXPECT_LT(fd, 0);
  EXPECT_NE(error.find("3 attempts"), std::string::npos) << error;
  EXPECT_EQ(metrics.connect_retries->value(), 2.0);  // attempts 2 and 3
}

// A wall-clock deadline caps the whole retry loop even when the attempt
// budget alone would keep it spinning much longer — the unified policy
// both initial connects and mid-run reconnects go through.
TEST(ConnectWithRetry, DeadlineCapsRetriesBeforeAttemptsExhaust) {
  RetryOptions retry;
  retry.max_attempts = 1000000;  // attempts alone would retry ~forever
  retry.initial_backoff_ms = 50;
  retry.max_backoff_ms = 50;
  retry.deadline_ms = 200;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  const int fd = ConnectWithRetry("127.0.0.1", 1, retry, nullptr, &error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(fd, 0);
  // Generous ceiling: the loop must stop near the 200 ms deadline, not
  // anywhere near a million attempts.
  EXPECT_LT(elapsed, 5000);
  EXPECT_NE(error.find("deadline"), std::string::npos) << error;
  EXPECT_NE(error.find("200 ms"), std::string::npos) << error;
}

TEST(ConnectWithRetry, SucceedsOnceListenerAppears) {
  // Reserve an ephemeral port, free it, then bring the listener up only
  // after the client has already started retrying.
  std::string error;
  int port = 0;
  int probe = ListenOn("127.0.0.1", 0, &error, &port);
  ASSERT_GE(probe, 0) << error;
  ::close(probe);

  std::atomic<int> client_fd{-2};
  std::thread client([&] {
    RetryOptions retry;
    retry.max_attempts = 100;
    retry.initial_backoff_ms = 5;
    retry.max_backoff_ms = 20;
    std::string client_error;
    client_fd = ConnectWithRetry("127.0.0.1", port, retry, nullptr,
                                 &client_error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int listener = ListenOn("127.0.0.1", port, &error, nullptr);
  ASSERT_GE(listener, 0) << error;
  client.join();
  EXPECT_GE(client_fd.load(), 0);
  if (client_fd >= 0) ::close(client_fd);
  ::close(listener);
}

TEST(BackoffDelayMs, UnseededMatchesPlainExponentialSchedule) {
  RetryOptions retry;
  retry.initial_backoff_ms = 50;
  retry.max_backoff_ms = 2000;
  retry.multiplier = 2.0;
  EXPECT_EQ(BackoffDelayMs(retry, 1), 50);
  EXPECT_EQ(BackoffDelayMs(retry, 2), 100);
  EXPECT_EQ(BackoffDelayMs(retry, 3), 200);
  EXPECT_EQ(BackoffDelayMs(retry, 4), 400);
  EXPECT_EQ(BackoffDelayMs(retry, 7), 2000);   // capped
  EXPECT_EQ(BackoffDelayMs(retry, 20), 2000);  // stays capped
}

TEST(BackoffDelayMs, SeededJitterIsDeterministicAndBounded) {
  RetryOptions retry;
  retry.initial_backoff_ms = 100;
  retry.max_backoff_ms = 5000;
  retry.multiplier = 2.0;
  retry.jitter = 0.5;
  retry.jitter_seed = 0xC0FFEEu;

  bool any_jittered = false;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const int delay = BackoffDelayMs(retry, attempt);
    // Same options, same attempt -> same delay (no hidden state).
    EXPECT_EQ(delay, BackoffDelayMs(retry, attempt));
    RetryOptions plain = retry;
    plain.jitter_seed = 0;
    const int base = BackoffDelayMs(plain, attempt);
    EXPECT_GE(delay, static_cast<int>(base * 0.5));
    EXPECT_LE(delay, std::min(static_cast<int>(base * 1.5) + 1,
                              retry.max_backoff_ms));
    if (delay != base) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
}

TEST(BackoffDelayMs, DistinctSeedsDesynchronizeSchedules) {
  RetryOptions a;
  a.jitter_seed = 1;
  RetryOptions b = a;
  b.jitter_seed = 2;
  bool differ = false;
  for (int attempt = 1; attempt <= 8 && !differ; ++attempt) {
    differ = BackoffDelayMs(a, attempt) != BackoffDelayMs(b, attempt);
  }
  EXPECT_TRUE(differ);
}

TEST(TcpServer, AcceptEchoDisconnectLifecycle) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  TransportMetrics metrics = TransportMetrics::RegisterIn(registry);

  TcpServer server(&metrics);
  std::string error;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0, &error)) << error;
  ASSERT_GT(server.port(), 0);

  std::atomic<int> accepts{0};
  std::atomic<int> disconnects{0};
  server.on_accept = [&](Connection&) { ++accepts; };
  server.on_frame = [&](Connection& conn, Frame&& frame) {
    // Echo with the step bumped so the client can tell it came back.
    conn.SendFrame(frame.header.type, frame.header.step + 1,
                   frame.header.tensor, frame.payload.span());
  };
  server.on_disconnect = [&](Connection&, const std::string&) {
    ++disconnects;
  };

  std::atomic<bool> stop{false};
  std::thread server_thread([&] {
    while (!stop.load()) server.Poll(20);
  });

  {
    RetryOptions retry;
    std::string connect_error;
    const int fd = ConnectWithRetry("127.0.0.1", server.port(), retry,
                                    nullptr, &connect_error);
    ASSERT_GE(fd, 0) << connect_error;
    Connection client(fd);
    util::ByteBuffer payload = MakePayload(64, 4);
    ASSERT_TRUE(client.SendFrame(MsgType::kPush, 10, 1, payload.span()));
    ASSERT_EQ(client.FlushOutput(2000), Connection::IoResult::kOk);
    Frame echoed;
    ASSERT_EQ(client.WaitFrame(&echoed, 2000), Connection::IoResult::kOk);
    EXPECT_EQ(echoed.header.step, 11u);
    EXPECT_EQ(echoed.payload, payload);
    // client destructor closes -> server sees a disconnect
  }

  for (int i = 0; i < 200 && disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  server_thread.join();
  EXPECT_EQ(accepts.load(), 1);
  EXPECT_EQ(disconnects.load(), 1);
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_EQ(metrics.disconnects->value(), 1.0);
  server.Close();
}

TEST(ListenOn, RejectsBadHost) {
  std::string error;
  int port = 0;
  EXPECT_LT(ListenOn("definitely.not.an.ip", 0, &error, &port), 0);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace threelc::rpc
