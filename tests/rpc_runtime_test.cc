// End-to-end tests for the TCP distributed runtime: a threaded
// RpcServer + N RpcWorkers over loopback must produce bitwise-identical
// model parameters to the in-process DistributedTrainer for the same
// seed/codec/steps, and every injected fault (rogue disconnect, garbage
// bytes, plan-hash mismatch, absent peers, dead port) must fail cleanly
// with a descriptive error instead of hanging or crashing; the handshake
// checks hold for HELLO and REJOIN alike. One run also
// checks that every phase timing the runtime reports — step JSONL, trace
// spans, /clusterz, stage profiler — is the same measurement.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "blockcodec/block_codec.h"
#include "compress/factory.h"
#include "data/synthetic.h"
#include "obs/cluster_view.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "ps/plan.h"
#include "ps/worker.h"
#include "rpc/runtime.h"
#include "rpc/transport.h"
#include "rpc_test_setup.h"
#include "train/model_zoo.h"
#include "util/rng.h"

namespace threelc::rpc {
namespace {

// Run server + N worker threads over loopback; on success returns the
// final global model. `worker_results`, when set, receives each worker's.
std::unique_ptr<nn::Model> RunTcpTraining(
    const TestSetup& setup,
    std::vector<WorkerResult>* worker_results = nullptr) {
  const int num_workers = setup.config.trainer.num_workers;
  ServerHarness h = MakeServer(setup);
  std::string error;
  EXPECT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  std::vector<WorkerResult> results(static_cast<std::size_t>(num_workers));
  std::vector<std::thread> workers;
  for (int w = 0; w < num_workers; ++w) {
    workers.emplace_back([&, w] {
      results[static_cast<std::size_t>(w)] =
          RunOneWorker(setup, w, h.server->port());
    });
  }
  for (auto& t : workers) t.join();
  server_thread.join();

  EXPECT_TRUE(server_ok) << h.server->error();
  for (int w = 0; w < num_workers; ++w) {
    EXPECT_TRUE(results[static_cast<std::size_t>(w)].ok)
        << "worker " << w << ": " << results[static_cast<std::size_t>(w)].error;
  }
  EXPECT_EQ(h.server->steps_completed(), setup.config.trainer.total_steps);
  if (worker_results != nullptr) *worker_results = results;
  if (!server_ok) return nullptr;
  return std::move(h.model);
}

void ExpectTcpMatchesInProcess(const compress::CodecConfig& codec,
                               const std::string& block_codec = "store") {
  TestSetup setup = MakeTestSetup(/*num_workers=*/2, /*steps=*/6, codec);
  setup.block_codec = block_codec;
  std::unique_ptr<nn::Model> tcp_model = RunTcpTraining(setup);
  ASSERT_NE(tcp_model, nullptr);
  EXPECT_TRUE(ModelsBitwiseEqual(*tcp_model, *RunInProcessReference(setup)));
}

TEST(RpcRuntime, BitwiseIdenticalToInProcessWithFloat32Codec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::Float32());
}

TEST(RpcRuntime, BitwiseIdenticalToInProcessWith3lcCodec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f));
}

// Wire parity for the second-stage block codec: wrapping every payload in
// the lz+rans envelope must not change a single model bit relative to the
// in-process trainer (and hence relative to a --block-codec store run,
// which the two tests above pin to the same trainer). Covers both tensor
// codecs: raw float32 frames and 3LC-compressed frames.
TEST(RpcRuntime, BlockCodecLzRansWireParityWithFloat32Codec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::Float32(), "lz+rans");
}

TEST(RpcRuntime, BlockCodecLzRansWireParityWith3lcCodec) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f), "lz+rans");
}

// Every registered non-store codec must hold wire parity, not just the
// composed one (a bug in either stage alone must not hide behind the
// other).
TEST(RpcRuntime, BlockCodecLzAndRansAloneWireParity) {
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f), "lz");
  ExpectTcpMatchesInProcess(compress::CodecConfig::ThreeLC(1.0f), "rans");
}

// A worker negotiating a different block codec than the server is a
// configuration error the handshake must reject loudly — silently mixing
// framed and bare payloads would corrupt training.
TEST(RpcRuntime, BlockCodecMismatchRejectedAtHandshake) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup);  // store
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  setup.block_codec = "lz+rans";  // the worker disagrees
  const WorkerResult worker = RunOneWorker(setup, 0, h.server->port());
  server_thread.join();

  EXPECT_FALSE(server_ok);
  EXPECT_FALSE(worker.ok);
  EXPECT_NE(h.server->error().find("block-codec"), std::string::npos)
      << h.server->error();
}

// phases_ms of every step record in a step-log JSONL: step -> name -> ms.
std::map<std::int64_t, std::map<std::string, double>> ReadStepPhases(
    const std::string& path) {
  std::map<std::int64_t, std::map<std::string, double>> steps;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\":\"step\"") == std::string::npos) continue;
    auto& phases = steps[std::atoll(line.c_str() + line.find("\"step\":") + 7)];
    const char* p = line.c_str() + line.find("\"phases_ms\":{") + 13;
    while (*p == '"') {
      const char* name_end = std::strchr(p + 1, '"');
      char* value_end = nullptr;
      phases[std::string(p + 1, name_end)] =
          std::strtod(name_end + 2, &value_end);
      p = value_end + (*value_end == ',');
    }
  }
  return steps;
}

// A worker's /clusterz total_ns for one phase.
double ClusterPhaseTotalNs(const std::string& json, int worker,
                           const std::string& phase) {
  std::size_t pos =
      json.find("\"" + std::to_string(worker) + "\":{\"last_step\"");
  pos = json.find("\"total_ns\":", json.find("\"" + phase + "\":{", pos));
  return pos == std::string::npos ? 0.0 : std::atof(json.c_str() + pos + 11);
}

// One instrument, four views: with the step JSONL, the trace and the stage
// profiler all on, a threaded loopback run must report every phase
// interval as the same number everywhere, within 1 us per span (the
// trace's rounding). (a) Each step's phases_ms entry is the sum of that
// step's same-name server spans; (b) each worker's /clusterz total_ns per
// phase is the sum of that worker's same-name spans; (c) each server
// stage's profiler total is the sum of its JSONL values; (d) each
// registry step/<phase>_ns histogram holds one sample per step and the
// same total.
TEST(RpcRuntime, PhaseTimingsAgreeAcrossJsonlTraceClusterzAndProfiler) {
  constexpr int kWorkers = 2;
  TestSetup setup = MakeTestSetup(kWorkers, /*steps=*/6,
                                  compress::CodecConfig::ThreeLC(1.0f));
  obs::TelemetryOptions options;
  options.metrics_path = ::testing::TempDir() + "phase_agreement.jsonl";
  options.trace_path = ::testing::TempDir() + "phase_agreement_trace.json";
  options.per_tensor = false;
  obs::Telemetry telemetry(options);
  obs::StageProfiler::Global().Reset();  // count only this run's stages
  setup.telemetry = &telemetry;
  ASSERT_NE(RunTcpTraining(setup), nullptr);
  telemetry.Flush();

  struct Sum {
    double value = 0.0;
    double tolerance = 0.0;  // in the unit of `value`
  };
  std::map<std::tuple<int, std::int64_t, std::string>, Sum> step_spans_us;
  std::map<std::pair<int, std::string>, Sum> track_spans_ns;
  for (const obs::TraceEvent& e : telemetry.tracer().snapshot()) {
    Sum& step_sum = step_spans_us[{e.track, e.step, e.name}];
    step_sum.value += e.dur_us;
    step_sum.tolerance += 1.0;
    Sum& track_sum = track_spans_ns[{e.track, e.name}];
    track_sum.value += e.dur_us * 1e3;
    track_sum.tolerance += 1e3;
  }

  const auto steps = ReadStepPhases(options.metrics_path);
  ASSERT_EQ(steps.size(), 6u);
  std::map<std::string, double> jsonl_total_ms;
  for (const auto& [step, phases] : steps) {
    ASSERT_EQ(phases.size(), 7u) << "step " << step;
    for (const auto& [name, ms] : phases) {
      const Sum& spans = step_spans_us[{0, step, name}];
      EXPECT_NEAR(ms * 1e3, spans.value, spans.tolerance)
          << "server span " << name << ", step " << step;
      jsonl_total_ms[name] += ms;
    }
  }

  const std::string clusterz = telemetry.cluster_view()->ToJson();
  for (int w = 0; w < kWorkers; ++w) {
    for (const char* phase :
         {"forward_backward", "encode", "push", "pull_wait", "decode"}) {
      const Sum& spans = track_spans_ns[{1 + w, phase}];
      EXPECT_GT(spans.tolerance, 0.0) << "worker " << w << ": no " << phase;
      EXPECT_NEAR(ClusterPhaseTotalNs(clusterz, w, phase), spans.value,
                  spans.tolerance)
          << "worker " << w << " phase " << phase;
    }
  }

  std::map<std::string, obs::StageSample> stages;
  for (obs::StageSample& s : obs::StageProfiler::Global().Snapshot()) {
    stages[s.path] = s;
  }
  for (const auto& [name, ms] : jsonl_total_ms) {
    const obs::StageSample& stage = stages["server_step/" + name];
    EXPECT_NEAR(static_cast<double>(stage.hist.total_ns), ms * 1e6,
                1e3 * static_cast<double>(stage.hist.count))
        << "profiler stage server_step/" << name;
    const obs::DurationHistogram registry =
        telemetry.metrics().histogram("step/" + name + "_ns")->Read();
    EXPECT_EQ(registry.count, steps.size()) << "step/" << name << "_ns";
    EXPECT_NEAR(static_cast<double>(registry.total_ns), ms * 1e6,
                1e3 * static_cast<double>(steps.size()))
        << "step/" << name << "_ns";
  }
  std::remove(options.metrics_path.c_str());
  std::remove(options.trace_path.c_str());
}

// A worker reads its TELEMETRY record's EA norm while it waits for the
// step's pulls, off the encode path. It must still be the norm of the
// state the step's encode left, bit for bit: at the end of a 3LC run, each
// worker's last record in the server's cluster view carries exactly the
// combined residual norm of its push contexts.
TEST(RpcRuntime, TelemetryEaNormIsTheWorkersResidualNorm) {
  constexpr int kWorkers = 2;
  TestSetup setup = MakeTestSetup(kWorkers, /*steps=*/5,
                                  compress::CodecConfig::ThreeLC(1.0f));
  obs::TelemetryOptions options;
  options.per_tensor = false;
  obs::Telemetry telemetry(options);
  setup.telemetry = &telemetry;
  std::vector<WorkerResult> results;
  ASSERT_NE(RunTcpTraining(setup, &results), nullptr);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kWorkers));
  for (int w = 0; w < kWorkers; ++w) {
    const double want = results[static_cast<std::size_t>(w)].residual_l2;
    const double got = telemetry.cluster_view()->worker_ea_l2(w);
    EXPECT_GT(want, 0.0) << "worker " << w;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "worker " << w << ": " << got << " vs " << want;
  }
}

TEST(RpcRuntime, PlanHashIsOrderStableAndCodecSensitive) {
  TestSetup setup =
      MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan = ps::TensorPlan::FromParams(
      model.Params(), setup.config.trainer.min_compress_elems);
  EXPECT_EQ(PlanHash(plan, "float32"), PlanHash(plan, "float32"));
  EXPECT_NE(PlanHash(plan, "float32"), PlanHash(plan, "3lc"));
}

// A server whose expected workers never show up must give up at the
// handshake deadline with a descriptive error, not hang.
TEST(RpcRuntime, HandshakeTimeoutFailsCleanly) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  ServerChaos chaos;
  chaos.handshake_timeout_ms = 200;
  ServerHarness h = MakeServer(setup, 0, 8, nullptr, chaos);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  EXPECT_FALSE(h.server->Run());
  EXPECT_FALSE(h.server->error().empty());
  EXPECT_NE(h.server->error().find("handshake"), std::string::npos)
      << h.server->error();
}

// A client that connects and vanishes mid-run is a fatal fault: the BSP
// barrier can never complete, so the server reports it immediately.
TEST(RpcRuntime, RogueDisconnectFailsServerCleanly) {
  TestSetup setup = MakeTestSetup(2, 100, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  {
    RetryOptions retry;
    std::string connect_error;
    const int fd = ConnectWithRetry("127.0.0.1", h.server->port(), retry,
                                    nullptr, &connect_error);
    ASSERT_GE(fd, 0) << connect_error;
    Connection rogue(fd);
    // Say a valid-looking HELLO so the server counts us, then vanish.
    HandshakePayload payload;
    payload.worker_id = 0;
    payload.plan_hash = PlanHash(*h.plan, h.codec->name());
    payload.codec = h.codec->name();
    util::ByteBuffer hello;
    EncodeHandshake(payload, /*rejoin=*/false, hello);
    ASSERT_TRUE(rogue.SendFrame(MsgType::kHello, 0, 0, hello.span()));
    ASSERT_EQ(rogue.FlushOutput(2000), Connection::IoResult::kOk);
    // Destructor closes the socket mid-handshake.
  }

  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_FALSE(h.server->error().empty());
  EXPECT_EQ(h.server->steps_completed(), 0);
}

// Garbage bytes on the wire must surface as a frame error -> clean
// failure, never an OOM, crash, or hang.
TEST(RpcRuntime, CorruptedBytesFailServerCleanly) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  {
    RetryOptions retry;
    std::string connect_error;
    const int fd = ConnectWithRetry("127.0.0.1", h.server->port(), retry,
                                    nullptr, &connect_error);
    ASSERT_GE(fd, 0) << connect_error;
    Connection rogue(fd);
    const char garbage[] = "GET /metricsz HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(rogue.fd(), garbage, sizeof(garbage) - 1, 0), 0);
    // Give the server's poll loop a moment to read + reject the bytes
    // before the socket closes, so the failure path exercised is the
    // parse error rather than the disconnect.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_FALSE(h.server->error().empty());
}

// A PUSH whose payload decodes but leaves a byte over is a protocol fault:
// the server names the worker and tensor and fails cleanly, completing no
// step.
TEST(RpcRuntime, TrailingBytesInPushFailServerCleanly) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::ThreeLC(1.0f));
  ServerHarness h = MakeServer(setup);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  const std::size_t last = h.plan->size() - 1;
  {
    RetryOptions retry;
    std::string connect_error;
    const int fd = ConnectWithRetry("127.0.0.1", h.server->port(), retry,
                                    nullptr, &connect_error);
    ASSERT_GE(fd, 0) << connect_error;
    Connection fake(fd);
    HandshakePayload payload;
    payload.worker_id = 0;
    payload.plan_hash = PlanHash(*h.plan, h.codec->name());
    payload.codec = h.codec->name();
    util::ByteBuffer hello;
    EncodeHandshake(payload, /*rejoin=*/false, hello);
    ASSERT_TRUE(fake.SendFrame(MsgType::kHello, 0, 0, hello.span()));
    Frame ack;
    ASSERT_EQ(fake.WaitFrame(&ack, 5000), Connection::IoResult::kOk);
    ASSERT_EQ(ack.header.type, MsgType::kHelloAck);

    // Step 0's pushes, each a valid codec payload; the last tensor's has
    // one byte too many.
    nn::Model model =
        train::BuildMlp(setup.config.model, setup.config.model_seed);
    ps::Worker worker(0, model, *h.plan, h.codec);
    for (std::size_t t = 0; t <= last; ++t) {
      util::ByteBuffer push;
      worker.EncodePush(t, push);
      if (t == last) push.AppendU8(0);
      ASSERT_TRUE(fake.SendFrame(MsgType::kPush, 0,
                                 static_cast<std::uint32_t>(t), push.span()));
    }
    util::ByteBuffer stats;
    stats.AppendF32(1.0f);
    ASSERT_TRUE(fake.SendFrame(MsgType::kStepStats, 0, 0, stats.span()));
    ASSERT_EQ(fake.FlushOutput(2000), Connection::IoResult::kOk);
    // Hold the socket open until the server is done, so the failure seen
    // is the step's and not the disconnect's.
    server_thread.join();
  }

  EXPECT_FALSE(server_ok);
  EXPECT_NE(h.server->error().find(
                "trailing bytes in PUSH payload from worker 0 tensor " +
                std::to_string(last)),
            std::string::npos)
      << h.server->error();
  EXPECT_EQ(h.server->steps_completed(), 0);
}

// Send one HELLO or REJOIN (a valid one, then `tamper`ed) to a fresh
// one-worker server and return the error its run fails with. The server
// answers a rejected handshake with an ERROR frame or a close.
std::string JoinFailure(bool rejoin,
                        const std::function<void(HandshakePayload&)>& tamper) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup);
  std::string error;
  EXPECT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  RetryOptions retry;
  std::string connect_error;
  const int fd = ConnectWithRetry("127.0.0.1", h.server->port(), retry, nullptr,
                                  &connect_error);
  EXPECT_GE(fd, 0) << connect_error;
  Connection impostor(fd);
  HandshakePayload payload;
  payload.worker_id = 0;
  payload.plan_hash = PlanHash(*h.plan, h.codec->name());
  payload.codec = h.codec->name();
  payload.block_codec = blockcodec::kStoreId;
  payload.epoch = rejoin ? 1 : 0;
  payload.next_step = 0;  // the step a fresh server is collecting
  tamper(payload);
  util::ByteBuffer bytes;
  EncodeHandshake(payload, rejoin, bytes);
  EXPECT_TRUE(impostor.SendFrame(rejoin ? MsgType::kRejoin : MsgType::kHello,
                                 0, 0, bytes.span()));
  EXPECT_EQ(impostor.FlushOutput(2000), Connection::IoResult::kOk);

  Frame reply;
  const Connection::IoResult got = impostor.WaitFrame(&reply, 5000);
  if (got == Connection::IoResult::kOk) {
    EXPECT_EQ(reply.header.type, MsgType::kError);
  } else {
    // The server may have torn the connection down before the ERROR frame
    // was readable; a close is also an acceptable rejection.
    EXPECT_EQ(got, Connection::IoResult::kClosed);
  }
  impostor.Close();
  server_thread.join();
  EXPECT_FALSE(server_ok);
  return h.server->error();
}

// HELLO and REJOIN share one join path: a worker built against a
// different plan/codec or block codec, or claiming an id the run does not
// have, is rejected at the handshake before any payload is interpreted,
// whichever message it sends.
TEST(RpcRuntime, JoinChecksRejectBadHelloAndRejoin) {
  const std::uint8_t other_block_codec = blockcodec::Find("lz+rans")->id();
  const std::vector<
      std::pair<std::string, std::function<void(HandshakePayload&)>>>
      cases = {
          {"plan", [](HandshakePayload& p) { p.plan_hash = 0xDEADBEEFu; }},
          {"plan", [](HandshakePayload& p) { p.codec = "3lc"; }},
          {"block-codec",
           [&](HandshakePayload& p) { p.block_codec = other_block_codec; }},
          {"out-of-range worker id",
           [](HandshakePayload& p) { p.worker_id = 7; }},
      };
  for (const bool rejoin : {false, true}) {
    for (const auto& [needle, tamper] : cases) {
      SCOPED_TRACE(std::string(rejoin ? "REJOIN" : "HELLO") + ": " + needle);
      const std::string error = JoinFailure(rejoin, tamper);
      EXPECT_NE(error.find(needle), std::string::npos) << error;
      EXPECT_NE(error.find(rejoin ? "REJOIN" : "HELLO"), std::string::npos)
          << error;
    }
  }
}

// The worker decodes the server's liveness frames as strictly as the
// server decodes its own: a malformed HEARTBEAT or EVICT fails the run,
// naming the message type, instead of being skipped. The server here is
// a fake that acks the HELLO and then sends the bad frame.
TEST(RpcRuntime, MalformedLivenessFrameFailsWorker) {
  TestSetup setup = MakeTestSetup(1, 2, compress::CodecConfig::Float32());
  for (const auto& [type, size] :
       {std::pair<MsgType, std::size_t>{MsgType::kHeartbeat, 3},
        std::pair<MsgType, std::size_t>{MsgType::kEvict, 5}}) {
    SCOPED_TRACE(MsgTypeName(type));
    std::string error;
    int port = -1;
    const int listen_fd = ListenOn("127.0.0.1", 0, &error, &port);
    ASSERT_GE(listen_fd, 0) << error;
    std::thread fake_server([&, type = type, size = size] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      ASSERT_GE(fd, 0);
      Connection conn(fd);
      Frame hello;
      ASSERT_EQ(conn.WaitFrame(&hello, 10000), Connection::IoResult::kOk);
      const HandshakePayload join =
          DecodeHandshake(hello.payload.span(), /*rejoin=*/false);
      HandshakeAckPayload ack;
      ack.num_workers = 1;
      ack.total_steps = 2;
      ack.plan_hash = join.plan_hash;
      ack.block_codec = join.block_codec;
      ack.epoch = 1;
      util::ByteBuffer ack_bytes;
      EncodeHandshakeAck(ack, /*rejoin=*/false, ack_bytes);
      ASSERT_TRUE(conn.SendFrame(MsgType::kHelloAck, 0, 0, ack_bytes.span()));
      const std::vector<std::uint8_t> junk(size, 0);
      ASSERT_TRUE(conn.SendFrame(type, 0, 0,
                                 util::ByteSpan(junk.data(), junk.size())));
      ASSERT_EQ(conn.FlushOutput(2000), Connection::IoResult::kOk);
      // Drain the worker's pushes until it hangs up.
      Frame ignored;
      while (conn.WaitFrame(&ignored, 10000) == Connection::IoResult::kOk) {
      }
    });
    const WorkerResult worker = RunOneWorker(setup, 0, port);
    fake_server.join();
    ::close(listen_fd);
    EXPECT_FALSE(worker.ok);
    EXPECT_NE(worker.error.find(std::string("malformed ") + MsgTypeName(type)),
              std::string::npos)
        << worker.error;
  }
}

// Worker side: a dead port exhausts its bounded retries and reports the
// connect failure; no server required.
TEST(RpcRuntime, WorkerFailsCleanlyAgainstDeadPort) {
  TestSetup setup = MakeTestSetup(1, 1, compress::CodecConfig::Float32());
  const train::TrainerConfig& tc = setup.config.trainer;
  nn::Model model =
      train::BuildMlp(setup.config.model, setup.config.model_seed);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(model.Params(), tc.min_compress_elems);
  auto codec = std::shared_ptr<const compress::Compressor>(
      compress::MakeCompressor(tc.codec));
  ps::Worker ps_worker(0, model, plan, codec);
  util::Rng seeder(tc.seed);
  util::Rng rng = seeder.Fork();
  data::Sampler sampler(setup.data.train, rng, tc.augment_noise);

  RpcWorkerConfig wc;
  wc.port = 1;  // reserved port, nothing listens
  wc.retry.max_attempts = 3;
  wc.retry.initial_backoff_ms = 1;
  wc.retry.max_backoff_ms = 2;
  RpcWorker worker(wc, ps_worker, plan, codec->name(), std::move(sampler));
  EXPECT_FALSE(worker.Run());
  EXPECT_FALSE(worker.error().empty());
  EXPECT_EQ(worker.steps_run(), 0);
}

}  // namespace
}  // namespace threelc::rpc
