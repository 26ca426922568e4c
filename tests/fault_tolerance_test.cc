// Fault-tolerance tests for the TCP distributed runtime: a worker killed
// at an arbitrary step and restarted from its crash checkpoint (model +
// error-accumulation buffers + sampler cursor + step counter) must REJOIN
// and leave the final model bitwise identical to a fault-free run, for
// both the float32 and 3LC codecs; injected connection faults must be
// survived via reconnect + pull replay; grace-window expiry must evict the
// dead worker and finish degraded on the survivors; and the deterministic
// FaultInjector must produce identical schedules from identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/factory.h"
#include "nn/checkpoint.h"
#include "obs/telemetry.h"
#include "ps/plan.h"
#include "rpc/fault.h"
#include "rpc/runtime.h"
#include "rpc/transport.h"
#include "rpc_test_setup.h"
#include "train/model_zoo.h"
#include "util/byte_buffer.h"
#include "util/fs.h"
#include "util/rng.h"

namespace threelc::rpc {
namespace {

// Kill worker `kill_worker` right after it completes step `kill_step`,
// restart it from its crash checkpoint, and require the final global model
// to be bitwise identical to a fault-free in-process run.
void ExpectKillRejoinParity(const compress::CodecConfig& codec,
                            std::int64_t kill_step,
                            const std::string& block_codec = "store") {
  SCOPED_TRACE("kill_step=" + std::to_string(kill_step));
  constexpr int kWorkers = 2;
  constexpr int kKillWorker = 1;
  TestSetup setup = MakeTestSetup(kWorkers, /*steps=*/6, codec);
  setup.block_codec = block_codec;
  const std::string ckpt =
      ::testing::TempDir() + "/ft_rejoin_" + std::to_string(kill_step) +
      ".ckpt";

  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000,
                               /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  WorkerResult results[kWorkers];
  std::thread survivor([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread victim([&] {
    WorkerChaos first;
    first.exit_after_step = kill_step;
    first.checkpoint_path = ckpt;
    WorkerResult life1 =
        RunOneWorker(setup, kKillWorker, h.server->port(), first);
    ASSERT_TRUE(life1.simulated_exit) << life1.error;
    WorkerChaos second;
    second.rejoin = true;
    second.checkpoint_path = ckpt;
    results[kKillWorker] =
        RunOneWorker(setup, kKillWorker, h.server->port(), second);
  });
  survivor.join();
  victim.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(results[w].ok) << "worker " << w << ": " << results[w].error;
  }
  EXPECT_EQ(h.server->rejoins(), 1u);
  EXPECT_EQ(h.server->evictions(), 0u);
  EXPECT_EQ(h.server->steps_completed(), setup.config.trainer.total_steps);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference))
      << "model diverged after kill@" << kill_step << " + rejoin";
  std::remove(ckpt.c_str());
}

TEST(FaultTolerance, KillRejoinBitwiseParityFloat32) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectKillRejoinParity(compress::CodecConfig::Float32(), kill_step);
  }
}

TEST(FaultTolerance, KillRejoinBitwiseParity3lc) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectKillRejoinParity(compress::CodecConfig::ThreeLC(1.0f), kill_step);
  }
}

// With lz+rans negotiated, the crash checkpoint is a 3LCZ compressed
// container and every replayed frame carries a block envelope; the
// kill+rejoin trajectory must still land bitwise on the reference model.
TEST(FaultTolerance, KillRejoinBitwiseParity3lcWithBlockCodec) {
  ExpectKillRejoinParity(compress::CodecConfig::ThreeLC(1.0f),
                         /*kill_step=*/2, "lz+rans");
}

// A connection the worker loses mid-run (injected close while queueing a
// PUSH) is survived in place: reconnect, REJOIN, recompute nothing — the
// stored encoded pushes are resent so the EA trajectory is unchanged.
TEST(FaultTolerance, InjectedCloseSurvivedByLiveReconnect) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  FaultInjector injector(/*seed=*/7);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("close:push@2", &spec_error))
      << spec_error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    WorkerChaos chaos;
    chaos.fault = &injector;
    chaos.max_reconnects = 3;
    results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
  });
  std::thread w1([&] {
    results[1] = RunOneWorker(setup, 1, h.server->port(), WorkerChaos{});
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(results[0].reconnects, 1u);
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_GE(h.server->rejoins(), 1u);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// Server-side injected close on a PULL send: the step has already been
// aggregated, so the rejoining worker is caught up from the bounded
// replay buffer (verbatim retained frames), and parity still holds.
TEST(FaultTolerance, ReplayBufferResyncsAfterServerSideDrop) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  FaultInjector injector(/*seed=*/11);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("close:pull@2", &spec_error))
      << spec_error;
  ServerHarness h =
      MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8, &injector);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      WorkerChaos chaos;
      chaos.max_reconnects = 3;
      results[w] = RunOneWorker(setup, w, h.server->port(), chaos);
    });
  }
  for (auto& t : workers) t.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(h.server->rejoins(), 1u);
  EXPECT_GE(h.server->replayed_frames(), 1u);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// A worker that dies and never comes back is evicted once the grace
// window expires; the run completes on the survivors (aggregation
// rescaled) instead of failing.
TEST(FaultTolerance, GraceExpiryEvictsAndFinishesDegraded) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerHarness h = MakeServer(setup, /*grace_ms=*/300, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.exit_after_step = 2;  // no checkpoint, no restart
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].simulated_exit);
  EXPECT_EQ(h.server->evictions(), 1u);
  EXPECT_EQ(h.server->rejoins(), 0u);
  EXPECT_EQ(h.server->steps_completed(), setup.config.trainer.total_steps);
}

// With grace_ms = 0 (the default) a mid-run disconnect is still fatal —
// the strict PR-3 failure model is preserved exactly.
TEST(FaultTolerance, StrictModeStillFailsFastOnDisconnect) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.exit_after_step = 1;
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();

  EXPECT_FALSE(server_ok);
  EXPECT_NE(h.server->error().find("disconnected"), std::string::npos)
      << h.server->error();
  EXPECT_EQ(h.server->evictions(), 0u);
}

// A REJOIN asking to resume from a step older than the bounded replay
// buffer is rejected with an ERROR frame (the worker cannot be caught up
// exactly), without failing the run for everyone else.
TEST(FaultTolerance, StaleRejoinRejectedWithoutKillingRun) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/8, compress::CodecConfig::ThreeLC(1.0f));
  const std::string ckpt = ::testing::TempDir() + "/ft_stale.ckpt";
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/1);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });

  WorkerResult results[2];
  std::thread w0([&] {
    results[0] = RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  });
  std::thread w1([&] {
    // Life 1: crash after step 5 so the replay buffer (depth 1) has
    // advanced far beyond step 0.
    WorkerChaos first;
    first.exit_after_step = 5;
    first.checkpoint_path = ckpt;
    WorkerResult life1 = RunOneWorker(setup, 1, h.server->port(), first);
    ASSERT_TRUE(life1.simulated_exit) << life1.error;

    // A rogue REJOIN claiming next_step=0: too old to replay -> ERROR.
    {
      nn::Model model =
          train::BuildMlp(setup.config.model, setup.config.model_seed);
      const ps::TensorPlan plan = ps::TensorPlan::FromParams(
          model.Params(), setup.config.trainer.min_compress_elems);
      auto codec = std::shared_ptr<const compress::Compressor>(
          compress::MakeCompressor(setup.config.trainer.codec));
      RetryOptions retry;
      std::string connect_error;
      const int fd = ConnectWithRetry("127.0.0.1", h.server->port(), retry,
                                      nullptr, &connect_error);
      ASSERT_GE(fd, 0) << connect_error;
      Connection stale(fd);
      HandshakePayload payload;
      payload.worker_id = 1;
      payload.plan_hash = PlanHash(plan, codec->name());
      payload.codec = codec->name();
      payload.epoch = 1;
      payload.next_step = 0;  // far behind the replay window
      util::ByteBuffer req;
      EncodeHandshake(payload, /*rejoin=*/true, req);
      ASSERT_TRUE(stale.SendFrame(MsgType::kRejoin, 0, 0, req.span()));
      ASSERT_EQ(stale.FlushOutput(2000), Connection::IoResult::kOk);
      Frame reply;
      const Connection::IoResult got = stale.WaitFrame(&reply, 5000);
      if (got == Connection::IoResult::kOk) {
        EXPECT_EQ(reply.header.type, MsgType::kError);
      } else {
        EXPECT_EQ(got, Connection::IoResult::kClosed);
      }
      stale.Close();
    }

    // Life 2: the legitimate rejoin from the checkpoint still works and
    // the run completes.
    WorkerChaos second;
    second.rejoin = true;
    second.checkpoint_path = ckpt;
    results[1] = RunOneWorker(setup, 1, h.server->port(), second);
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(h.server->rejoins(), 1u);  // the stale attempt doesn't count
  EXPECT_EQ(h.server->steps_completed(), setup.config.trainer.total_steps);
  std::remove(ckpt.c_str());
}

// A rejoining worker restores itself from its checkpoint_path before it
// connects; a file that is missing or corrupt fails the run cleanly,
// naming the path, instead of rejoining with fresh state.
TEST(FaultTolerance, RejoinFailsCleanlyOnMissingOrCorruptCheckpoint) {
  TestSetup setup =
      MakeTestSetup(1, /*steps=*/2, compress::CodecConfig::ThreeLC(1.0f));
  const std::string missing = ::testing::TempDir() + "/ft_missing.ckpt";
  const std::string corrupt = ::testing::TempDir() + "/ft_corrupt.ckpt";
  std::remove(missing.c_str());
  std::ofstream(corrupt, std::ios::binary) << "3LCK garbage, not a checkpoint";
  for (const std::string& path : {missing, corrupt}) {
    SCOPED_TRACE(path);
    WorkerChaos chaos;
    chaos.rejoin = true;
    chaos.checkpoint_path = path;
    // No server: the restore fails before any connect is attempted.
    const WorkerResult result = RunOneWorker(setup, 0, /*port=*/1, chaos);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.simulated_exit);
    EXPECT_NE(result.error.find("cannot resume from checkpoint '" + path),
              std::string::npos)
        << result.error;
  }
  std::remove(corrupt.c_str());
}

// RequestStop from another thread (the process supervisor's path when a
// child dies unrecoverably) fails the run promptly with the given reason.
TEST(FaultTolerance, RequestStopFailsRunWithReason) {
  TestSetup setup =
      MakeTestSetup(1, /*steps=*/1, compress::CodecConfig::Float32());
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  bool server_ok = true;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  h.server->RequestStop("supervisor says a child died");
  server_thread.join();
  EXPECT_FALSE(server_ok);
  EXPECT_NE(h.server->error().find("supervisor says a child died"),
            std::string::npos)
      << h.server->error();
}

// ---------- server crash recovery ----------

// The generation files "<ckpt>.g<N>" on disk, by ascending N.
std::vector<std::string> GenerationFiles(const std::string& ckpt) {
  const std::size_t slash = ckpt.rfind('/');
  const std::string prefix = ckpt.substr(slash + 1) + ".g";
  std::vector<std::string> names;
  util::Fs::Real()->List(ckpt.substr(0, slash), &names);
  std::vector<std::pair<unsigned long long, std::string>> gens;
  for (const std::string& name : names) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() || digits.find_first_not_of("0123456789") !=
                              std::string::npos) {
      continue;
    }
    gens.emplace_back(std::stoull(digits), ckpt.substr(0, slash + 1) + name);
  }
  std::sort(gens.begin(), gens.end());
  std::vector<std::string> paths;
  for (auto& gen : gens) paths.push_back(std::move(gen.second));
  return paths;
}

// Kill the *server* right after it completes step `kill_step` (its
// write-ahead checkpoint already on disk), resume a fresh server process
// from that checkpoint on the same port, and require the final global
// model to be bitwise identical to a fault-free in-process run. Both
// workers must survive the outage via their reconnect budget and REJOIN
// against the bumped incarnation epoch. With `kill_rule`, the server dies
// instead at step `kill_step`'s first PULL send ("killserver:pull@K":
// after the step's write-ahead checkpoint, before any byte of its fan-out
// leaves), and both incarnations share the injector, as the example's
// supervisor does: the spent rule must not kill the resumed server while
// it replays that step. `fs`, when given, is the first incarnation's
// checkpoint syscall seam; `inspect` sees the checkpoint path between the
// two incarnations.
void ExpectServerKillResumeParity(
    const compress::CodecConfig& codec, std::int64_t kill_step,
    const std::string& block_codec = "store", bool kill_rule = false,
    util::Fs* fs = nullptr,
    const std::function<void(const std::string&)>& inspect = nullptr) {
  SCOPED_TRACE("kill_step=" + std::to_string(kill_step));
  constexpr int kWorkers = 2;
  TestSetup setup = MakeTestSetup(kWorkers, /*steps=*/6, codec);
  setup.block_codec = block_codec;
  const std::string ckpt = ::testing::TempDir() + "/ft_server_kill_" +
                           std::to_string(kill_step) + ".sckpt";
  std::remove(ckpt.c_str());
  for (const std::string& gen : GenerationFiles(ckpt)) {  // an earlier run's
    std::remove(gen.c_str());
  }

  std::string error;
  FaultInjector injector(/*seed=*/3);
  FaultInjector* fault = nullptr;
  ServerChaos crashy;
  crashy.checkpoint_path = ckpt;
  crashy.checkpoint_every = 1;
  crashy.fs = fs;
  if (kill_rule) {
    ASSERT_TRUE(injector.AddRulesFromSpec(
        "killserver:pull@" + std::to_string(kill_step), &error))
        << error;
    fault = &injector;
  } else {
    crashy.exit_after_step = kill_step;
  }
  ServerHarness h1 =
      MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8, fault, crashy);
  ASSERT_TRUE(h1.server->Listen(&error)) << error;
  const int port = h1.server->port();

  bool server1_ok = true;
  std::thread server1_thread([&] { server1_ok = h1.server->Run(); });

  WorkerResult results[kWorkers];
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      WorkerChaos chaos;
      chaos.max_reconnects = 20;  // budget must span the restart gap
      results[w] = RunOneWorker(setup, w, port, chaos);
    });
  }

  server1_thread.join();
  EXPECT_FALSE(server1_ok);
  ASSERT_TRUE(h1.server->simulated_exit()) << h1.server->error();
  if (inspect) inspect(ckpt);

  // Second incarnation: restore everything from the checkpoint and rebind
  // the same port (SO_REUSEADDR) while the workers are still retrying.
  ServerChaos resumed;
  resumed.port = port;
  resumed.checkpoint_path = ckpt;
  resumed.checkpoint_every = 1;
  ServerHarness h2 = MakeServer(setup, /*grace_ms=*/20000,
                                /*replay_steps=*/8, fault, resumed);
  ASSERT_TRUE(h2.server->ResumeFromCheckpoint(ckpt, &error)) << error;
  ASSERT_TRUE(h2.server->Listen(&error)) << error;
  bool server2_ok = false;
  std::thread server2_thread([&] { server2_ok = h2.server->Run(); });

  for (auto& t : workers) t.join();
  server2_thread.join();

  ASSERT_TRUE(server2_ok) << h2.server->error();
  EXPECT_EQ(h2.server->epoch(), 2u);
  EXPECT_EQ(h2.server->rejoins(), 2u);
  EXPECT_EQ(h2.server->evictions(), 0u);
  EXPECT_EQ(h2.server->steps_completed(), setup.config.trainer.total_steps);
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(results[w].ok) << "worker " << w << ": " << results[w].error;
    EXPECT_GE(results[w].reconnects, 1u) << "worker " << w;
  }

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h2.model, *reference))
      << "model diverged after server kill@" << kill_step << " + resume";
  std::remove(ckpt.c_str());
}

TEST(FaultTolerance, KillServerResumeBitwiseParityFloat32) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectServerKillResumeParity(compress::CodecConfig::Float32(), kill_step);
  }
}

TEST(FaultTolerance, KillServerResumeBitwiseParity3lc) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectServerKillResumeParity(compress::CodecConfig::ThreeLC(1.0f),
                                 kill_step);
  }
}

TEST(FaultTolerance, KillServerRuleSharedAcrossRestartBitwiseParity3lc) {
  for (const std::int64_t kill_step : {0, 2, 4}) {
    ExpectServerKillResumeParity(compress::CodecConfig::ThreeLC(1.0f),
                                 kill_step, "store", /*kill_rule=*/true);
  }
}

// The write-ahead server checkpoint is a 3LCZ compressed container when
// lz+rans is negotiated; the resumed incarnation must restore from it —
// including the replay ring's already-enveloped frames — bitwise exactly.
TEST(FaultTolerance, KillServerResumeBitwiseParity3lcWithBlockCodec) {
  ExpectServerKillResumeParity(compress::CodecConfig::ThreeLC(1.0f),
                               /*kill_step=*/2, "lz+rans");
}

// The kinds of the generation files at `ckpt`, oldest first: 'S' for a
// snapshot, 'R' for a step record.
std::string GenerationKinds(const std::string& ckpt) {
  std::string kinds;
  for (const std::string& path : GenerationFiles(ckpt)) {
    kinds += nn::IsStepRecordFile(path) ? 'R' : 'S';
  }
  return kinds;
}

// Float32 pushes make each step record two model copies, so the records
// since the Run()-start snapshot outweigh it after two steps and the size
// rule writes a snapshot instead; the resume must load that snapshot and
// redo the records after it bitwise.
TEST(FaultTolerance, KillServerResumeFromSizeRuleSnapshotBitwiseParity) {
  ExpectServerKillResumeParity(
      compress::CodecConfig::Float32(), /*kill_step=*/3, "store",
      /*kill_rule=*/false, /*fs=*/nullptr, [](const std::string& ckpt) {
        // Run()-start snapshot, step 0's record, the size rule's snapshot
        // at step 1, then steps 2 and 3 as records.
        EXPECT_EQ(GenerationKinds(ckpt), "SRSRR");
      });
}

// One failed record write (EIO on step 1's record): the retry at the same
// durable point writes a snapshot, so the record chain has no gap, and a
// kill at step 4's fan-out still resumes bitwise from it.
TEST(FaultTolerance, FailedRecordWriteIsFollowedBySnapshotBitwiseParity) {
  util::FaultFs fs(util::Fs::Real(), /*seed=*/1);
  std::string error;
  // Write calls: 0 = the Run()-start snapshot, 1 + s = step s's record.
  ASSERT_TRUE(fs.AddRulesFromSpec("eio:write@2", &error)) << error;
  ExpectServerKillResumeParity(
      compress::CodecConfig::ThreeLC(1.0f), /*kill_step=*/4, "store",
      /*kill_rule=*/true, &fs, [&fs](const std::string& ckpt) {
        EXPECT_EQ(fs.faults_injected(), 1u);
        EXPECT_EQ(GenerationKinds(ckpt), "SRSRRR");
      });
}

// Worst case: the server crashes at the same step a worker does, so the
// resumed incarnation comes up while that worker is itself rejoining from
// its crash checkpoint. Both the survivor's live reconnect and the
// victim's cold rejoin must land on epoch 2, and parity must still hold.
TEST(FaultTolerance, ServerRestartWhileWorkerRejoining) {
  constexpr std::int64_t kCrashStep = 2;
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  const std::string server_ckpt =
      ::testing::TempDir() + "/ft_race_server.sckpt";
  const std::string worker_ckpt =
      ::testing::TempDir() + "/ft_race_worker.ckpt";
  std::remove(server_ckpt.c_str());

  ServerChaos crashy;
  crashy.checkpoint_path = server_ckpt;
  crashy.checkpoint_every = 1;
  crashy.exit_after_step = kCrashStep;
  ServerHarness h1 =
      MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8,
                 /*fault=*/nullptr, crashy);
  std::string error;
  ASSERT_TRUE(h1.server->Listen(&error)) << error;
  const int port = h1.server->port();

  bool server1_ok = true;
  std::thread server1_thread([&] { server1_ok = h1.server->Run(); });

  WorkerResult results[2];
  std::thread survivor([&] {
    WorkerChaos chaos;
    chaos.max_reconnects = 20;
    results[0] = RunOneWorker(setup, 0, port, chaos);
  });
  std::thread victim([&] {
    WorkerChaos first;
    first.exit_after_step = kCrashStep;
    first.checkpoint_path = worker_ckpt;
    first.max_reconnects = 20;
    WorkerResult life1 = RunOneWorker(setup, 1, port, first);
    ASSERT_TRUE(life1.simulated_exit) << life1.error;
    // Life 2 starts while the server may still be down: the initial
    // rejoin connect spends the same reconnect budget as mid-run drops.
    WorkerChaos second;
    second.rejoin = true;
    second.checkpoint_path = worker_ckpt;
    second.max_reconnects = 20;
    results[1] = RunOneWorker(setup, 1, port, second);
  });

  server1_thread.join();
  EXPECT_FALSE(server1_ok);
  ASSERT_TRUE(h1.server->simulated_exit()) << h1.server->error();

  ServerChaos resumed;
  resumed.port = port;
  resumed.checkpoint_path = server_ckpt;
  resumed.checkpoint_every = 1;
  ServerHarness h2 = MakeServer(setup, /*grace_ms=*/20000,
                                /*replay_steps=*/8, /*fault=*/nullptr,
                                resumed);
  ASSERT_TRUE(h2.server->ResumeFromCheckpoint(server_ckpt, &error)) << error;
  ASSERT_TRUE(h2.server->Listen(&error)) << error;
  bool server2_ok = false;
  std::thread server2_thread([&] { server2_ok = h2.server->Run(); });

  survivor.join();
  victim.join();
  server2_thread.join();

  ASSERT_TRUE(server2_ok) << h2.server->error();
  EXPECT_EQ(h2.server->epoch(), 2u);
  EXPECT_EQ(h2.server->rejoins(), 2u);
  EXPECT_EQ(h2.server->evictions(), 0u);
  EXPECT_EQ(h2.server->steps_completed(), setup.config.trainer.total_steps);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h2.model, *reference))
      << "model diverged after simultaneous server+worker crash";
  std::remove(server_ckpt.c_str());
  std::remove(worker_ckpt.c_str());
}

// A torn newest checkpoint generation (crash mid-write would be caught
// by the atomic rename; this simulates post-rename disk corruption) must
// never be half-loaded. With an older intact generation on disk, resume
// falls back to it; with every generation corrupted, resume is rejected
// with a "no usable checkpoint" diagnostic.
TEST(FaultTolerance, TornServerCheckpointFallsBackOrIsRejected) {
  TestSetup setup =
      MakeTestSetup(1, /*steps=*/2, compress::CodecConfig::Float32());
  const std::string ckpt = ::testing::TempDir() + "/ft_torn_server.sckpt";
  std::remove(ckpt.c_str());
  for (int g = 0; g < 16; ++g) {
    std::remove((ckpt + ".g" + std::to_string(g)).c_str());
  }

  // Produce valid generations via a clean run. checkpoint_every=1 over
  // two steps leaves the Run()-start snapshot, one step record per step
  // and the shutdown snapshot: the default retention of 2 keeps them all.
  ServerChaos chaos;
  chaos.checkpoint_path = ckpt;
  chaos.checkpoint_every = 1;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8,
                               /*fault=*/nullptr, chaos);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;
  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult result =
      RunOneWorker(setup, 0, h.server->port(), WorkerChaos{});
  server_thread.join();
  ASSERT_TRUE(server_ok) << h.server->error();
  ASSERT_TRUE(result.ok) << result.error;

  // Discover the generation numbers rather than assume them.
  std::vector<std::string> gens;
  for (int g = 0; g < 32; ++g) {
    const std::string path = ckpt + ".g" + std::to_string(g);
    std::FILE* probe = std::fopen(path.c_str(), "rb");
    if (probe != nullptr) {
      std::fclose(probe);
      gens.push_back(path);
    }
  }
  ASSERT_EQ(gens.size(), 4u) << "expected 2 snapshots and 2 step records";
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const bool snapshot = i == 0 || i + 1 == gens.size();
    EXPECT_NE(nn::IsStepRecordFile(gens[i]), snapshot) << gens[i];
  }
  const std::string gen0 = gens.front();  // older snapshot
  const std::string gen1 = gens.back();   // newest snapshot
  const auto read_bytes = [](const std::string& path) {
    std::vector<unsigned char> bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      bytes.clear();
    }
    std::fclose(f);
    return bytes;
  };
  const auto write_bytes = [&](const std::string& path,
                               const std::vector<unsigned char>& data) {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), out), data.size());
    std::fclose(out);
  };
  const std::vector<unsigned char> bytes0 = read_bytes(gen0);
  const std::vector<unsigned char> bytes1 = read_bytes(gen1);
  ASSERT_GT(bytes0.size(), 16u);
  ASSERT_GT(bytes1.size(), 16u);

  // Truncate the newest generation to half: resume must skip it and fall
  // back to the older intact one.
  write_bytes(gen1, std::vector<unsigned char>(
                        bytes1.begin(), bytes1.begin() + bytes1.size() / 2));
  {
    ServerHarness fresh =
        MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
    std::string resume_error;
    EXPECT_TRUE(fresh.server->ResumeFromCheckpoint(ckpt, &resume_error))
        << resume_error;
    EXPECT_EQ(fresh.server->checkpoint_fallbacks(), 1u);
    EXPECT_GE(fresh.server->epoch(), 1u);
  }

  // Flip a byte mid-file in the older generation too: with every
  // generation bad, resume must be rejected, never half-loaded.
  std::vector<unsigned char> flipped = bytes0;
  flipped[flipped.size() / 2] ^= 0x40;
  write_bytes(gen0, flipped);
  {
    ServerHarness fresh =
        MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
    std::string resume_error;
    EXPECT_FALSE(fresh.server->ResumeFromCheckpoint(ckpt, &resume_error))
        << "all-corrupt checkpoint set accepted";
    EXPECT_NE(resume_error.find("no usable checkpoint"), std::string::npos)
        << resume_error;
  }

  // Pristine bytes restore both generations: the newest loads with no
  // fallback, proving the harness itself is sound.
  write_bytes(gen0, bytes0);
  write_bytes(gen1, bytes1);
  ServerHarness fresh = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8);
  std::string resume_error;
  EXPECT_TRUE(fresh.server->ResumeFromCheckpoint(ckpt, &resume_error))
      << resume_error;
  EXPECT_EQ(fresh.server->checkpoint_fallbacks(), 0u);
  EXPECT_EQ(fresh.server->epoch(), 2u);
  for (const std::string& gen : gens) std::remove(gen.c_str());
}

// ---------- liveness: leases, hangs, one-way partitions ----------

// A worker whose endpoint freezes mid-run (injected `stall`: stops
// reading and flushing without closing, like a SIGSTOP'd process) is
// detected by BOTH leases: the server's lease expires (no frames in) and
// routes through the grace path, force-closing the half-open socket; the
// worker's own lease expires (no frames out of its blocked inbox) and it
// reconnects. The REJOIN resends the stored encoded push, so the final
// model is still bitwise identical to a fault-free run.
TEST(FaultTolerance, StalledWorkerLeaseEvictsThenRejoinsWithParity) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerChaos leases;
  leases.lease_ms = 400;
  leases.heartbeat_ms = 100;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8,
                               /*fault=*/nullptr, leases);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  FaultInjector injector(/*seed=*/21);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("stall:push@2", &spec_error))
      << spec_error;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    WorkerChaos chaos;
    chaos.lease_ms = 400;
    chaos.heartbeat_ms = 100;
    results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.fault = &injector;
    chaos.max_reconnects = 3;
    // Longer than the server's lease so the server detects the hang
    // first; the worker's own clock is the (slower) self-recovery path —
    // its blocked rx never sees the server's force-close.
    chaos.lease_ms = 1500;
    chaos.heartbeat_ms = 100;
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(results[1].reconnects, 1u);
  EXPECT_GE(h.server->lease_expiries(), 1u);
  EXPECT_GE(h.server->rejoins(), 1u);
  EXPECT_EQ(h.server->evictions(), 0u);  // grace held for the rejoin

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// A hung worker that never comes back (stall + zero reconnect budget)
// must converge to exactly the same survivors' model as a worker that
// died cleanly at the same point: lease expiry -> grace -> eviction is
// just a slower route to the rescaled aggregation.
TEST(FaultTolerance, HungWorkerEvictionMatchesCleanDeathRescaledParity) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));

  // Run 1: worker 1 freezes while sending its step-2 push (contributed
  // steps 0..1), detected only by the server's lease.
  ServerChaos leases;
  leases.lease_ms = 400;
  leases.heartbeat_ms = 100;
  ServerHarness hung = MakeServer(setup, /*grace_ms=*/300, /*replay_steps=*/8,
                                  /*fault=*/nullptr, leases);
  std::string error;
  ASSERT_TRUE(hung.server->Listen(&error)) << error;
  FaultInjector injector(/*seed=*/22);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("stall:push@2", &spec_error))
      << spec_error;
  {
    bool ok = false;
    std::thread server_thread([&] { ok = hung.server->Run(); });
    WorkerResult results[2];
    std::thread w0([&] {
      // Healthy survivor: beacons on (leases imply heartbeats), its own
      // lease generous enough to never self-trip while the server holds
      // the barrier for the hung peer.
      WorkerChaos chaos;
      chaos.lease_ms = 5000;
      chaos.heartbeat_ms = 100;
      results[0] = RunOneWorker(setup, 0, hung.server->port(), chaos);
    });
    std::thread w1([&] {
      WorkerChaos chaos;
      chaos.fault = &injector;
      chaos.max_reconnects = 0;  // the hung worker never returns
      chaos.lease_ms = 2000;     // server's (400 ms) lease detects first
      chaos.heartbeat_ms = 100;
      results[1] = RunOneWorker(setup, 1, hung.server->port(), chaos);
    });
    w0.join();
    w1.join();
    server_thread.join();
    ASSERT_TRUE(ok) << hung.server->error();
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);  // its reconnect budget was zero
    EXPECT_GE(hung.server->lease_expiries(), 1u);
    EXPECT_EQ(hung.server->evictions(), 1u);
    EXPECT_EQ(hung.server->steps_completed(),
              setup.config.trainer.total_steps);
  }

  // Run 2: worker 1 exits cleanly after completing step 1 — the same
  // contribution cut-off, detected by the disconnect instead of a lease.
  ServerHarness dead = MakeServer(setup, /*grace_ms=*/300, /*replay_steps=*/8);
  ASSERT_TRUE(dead.server->Listen(&error)) << error;
  {
    bool ok = false;
    std::thread server_thread([&] { ok = dead.server->Run(); });
    WorkerResult results[2];
    std::thread w0([&] {
      results[0] = RunOneWorker(setup, 0, dead.server->port(), WorkerChaos{});
    });
    std::thread w1([&] {
      WorkerChaos chaos;
      chaos.exit_after_step = 1;  // no checkpoint, no restart
      results[1] = RunOneWorker(setup, 1, dead.server->port(), chaos);
    });
    w0.join();
    w1.join();
    server_thread.join();
    ASSERT_TRUE(ok) << dead.server->error();
    EXPECT_EQ(dead.server->evictions(), 1u);
  }

  EXPECT_TRUE(ModelsBitwiseEqual(*hung.model, *dead.model))
      << "lease eviction and clean death diverged at the same cut-off";
}

// Satellite regression: a one-way (tx) partition leaves the worker
// blocked in pull-wait — its pushes vanish, but its rx side still sees
// the server, so its own lease never trips. The SERVER's lease must bound
// the hang: expiry force-closes the socket, the worker sees EOF and
// reconnects within lease + backoff, not pull_timeout_ms (20 s here, 60 s
// in production configs).
TEST(FaultTolerance, TxPartitionedWorkerReconnectsWithinLeaseBudget) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
  ServerChaos leases;
  leases.lease_ms = 500;
  leases.heartbeat_ms = 100;
  ServerHarness h = MakeServer(setup, /*grace_ms=*/20000, /*replay_steps=*/8,
                               /*fault=*/nullptr, leases);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  FaultInjector injector(/*seed=*/23);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("partition:tx@2", &spec_error))
      << spec_error;

  const auto start = std::chrono::steady_clock::now();
  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    WorkerChaos chaos;  // healthy survivor: beacons on, lease generous
    chaos.lease_ms = 5000;
    chaos.heartbeat_ms = 100;
    results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.fault = &injector;
    chaos.max_reconnects = 3;
    chaos.lease_ms = 2000;  // must NOT be what saves it: rx stays live
    chaos.heartbeat_ms = 100;
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_GE(results[1].reconnects, 1u);
  EXPECT_GE(h.server->lease_expiries(), 1u);
  EXPECT_GE(h.server->rejoins(), 1u);
  // Bounded by the server lease (500 ms) + backoff, nowhere near the
  // 20 s pull timeout the worker would otherwise ride out.
  EXPECT_LT(elapsed_ms, 10000.0);

  std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
  EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
}

// rpc/timeouts counts deadlines a worker actually missed. A healthy worker
// whose pull wait is stretched by a slow peer spends many short lease
// slices waiting between beacons; none of them is a timeout.
TEST(FaultTolerance, SlowPeerCostsHealthyWorkerNoTimeouts) {
  TestSetup setup =
      MakeTestSetup(2, /*steps=*/4, compress::CodecConfig::ThreeLC(1.0f));
  ServerChaos leases;
  leases.lease_ms = 2000;
  leases.heartbeat_ms = 500;  // sparse beacons: the healthy wait is sliced
  ServerHarness h = MakeServer(setup, /*grace_ms=*/0, /*replay_steps=*/8,
                               /*fault=*/nullptr, leases);
  std::string error;
  ASSERT_TRUE(h.server->Listen(&error)) << error;

  FaultInjector injector(/*seed=*/31);
  std::string spec_error;
  ASSERT_TRUE(injector.AddRulesFromSpec("delay300:push@1;delay300:push@2",
                                        &spec_error))
      << spec_error;
  obs::TelemetryOptions options;
  options.metrics_path = ::testing::TempDir() + "/ft_slow_peer_w0.jsonl";
  obs::Telemetry healthy_telemetry(options);
  TestSetup healthy = setup;
  healthy.telemetry = &healthy_telemetry;

  bool server_ok = false;
  std::thread server_thread([&] { server_ok = h.server->Run(); });
  WorkerResult results[2];
  std::thread w0([&] {
    WorkerChaos chaos;
    chaos.lease_ms = 2000;
    chaos.heartbeat_ms = 50;
    results[0] = RunOneWorker(healthy, 0, h.server->port(), chaos);
  });
  std::thread w1([&] {
    WorkerChaos chaos;
    chaos.fault = &injector;
    chaos.lease_ms = 2000;
    chaos.heartbeat_ms = 50;
    results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
  });
  w0.join();
  w1.join();
  server_thread.join();

  ASSERT_TRUE(server_ok) << h.server->error();
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(injector.faults_injected(), 2u);
  EXPECT_GT(healthy_telemetry.metrics().counter("rpc/heartbeats_sent")->value(),
            0.0);
  EXPECT_EQ(healthy_telemetry.metrics().counter("rpc/timeouts")->value(), 0.0);
  std::remove(options.metrics_path.c_str());
}

// The liveness additions to the injector grammar parse (direction rides
// the TYPE slot for partition rules) and bad directions are diagnosed.
TEST(FaultTolerance, StallAndPartitionSpecsParse) {
  FaultInjector ok(1);
  std::string error;
  EXPECT_TRUE(ok.AddRulesFromSpec(
      "stall:push@2;partition:rx@3;partition:tx@1#2;partition:both@any#*",
      &error))
      << error;
  FaultInjector bad(1);
  EXPECT_FALSE(bad.AddRulesFromSpec("partition:bogus@1", &error));
  EXPECT_NE(error.find("partition direction"), std::string::npos) << error;
}

// Seeded chaos sweep, in-process edition: each seed derives a random
// recoverable fault schedule (mixed corruption, close, delay, stall, and
// one-way partitions) for worker 1, and every seed must terminate
// cleanly with the survivors' — here, everyone's — final model bitwise
// identical to a fault-free run. tools/chaos_sweep.py runs the same idea
// against the real multi-process example.
TEST(FaultTolerance, ChaosSweepSeededSchedulesTerminateCleanly) {
  const char* const kMenu[] = {
      "corrupt:push@", "close:push@",      "delay50:pull@",
      "stall:push@",   "partition:tx@",    "partition:rx@",
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    const char* const action = kMenu[rng.Next() % 6];
    const std::int64_t at = 1 + static_cast<std::int64_t>(rng.Next() % 3);
    const std::string spec = std::string(action) + std::to_string(at);
    SCOPED_TRACE("spec=" + spec);

    TestSetup setup =
        MakeTestSetup(2, /*steps=*/6, compress::CodecConfig::ThreeLC(1.0f));
    ServerChaos leases;
    leases.lease_ms = 400;
    leases.heartbeat_ms = 100;
    ServerHarness h = MakeServer(setup, /*grace_ms=*/20000,
                                 /*replay_steps=*/8, /*fault=*/nullptr,
                                 leases);
    std::string error;
    ASSERT_TRUE(h.server->Listen(&error)) << error;

    FaultInjector injector(seed);
    std::string spec_error;
    ASSERT_TRUE(injector.AddRulesFromSpec(spec, &spec_error)) << spec_error;

    bool server_ok = false;
    std::thread server_thread([&] { server_ok = h.server->Run(); });
    WorkerResult results[2];
    std::thread w0([&] {
      WorkerChaos chaos;
      chaos.lease_ms = 400;
      chaos.heartbeat_ms = 100;
      results[0] = RunOneWorker(setup, 0, h.server->port(), chaos);
    });
    std::thread w1([&] {
      WorkerChaos chaos;
      chaos.fault = &injector;
      chaos.max_reconnects = 5;
      chaos.lease_ms = 400;
      chaos.heartbeat_ms = 100;
      results[1] = RunOneWorker(setup, 1, h.server->port(), chaos);
    });
    w0.join();
    w1.join();
    server_thread.join();

    ASSERT_TRUE(server_ok) << h.server->error();
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(h.server->evictions(), 0u);
    EXPECT_EQ(h.server->steps_completed(),
              setup.config.trainer.total_steps);

    std::unique_ptr<nn::Model> reference = RunInProcessReference(setup);
    EXPECT_TRUE(ModelsBitwiseEqual(*h.model, *reference));
  }
}

// ---------- deterministic fault injection ----------

std::vector<std::string> DriveSchedule(std::uint64_t seed) {
  FaultInjector injector(seed);
  std::string error;
  EXPECT_TRUE(
      injector.AddRulesFromSpec("corrupt:push@any#*;delay5:pull@3", &error))
      << error;
  for (std::uint64_t step = 0; step < 6; ++step) {
    for (int t = 0; t < 3; ++t) {
      injector.OnSend(MsgType::kPush, step, 512);
      injector.OnSend(MsgType::kPull, step, 2048);
    }
    injector.OnSend(MsgType::kStepStats, step, 12);
  }
  return injector.schedule_log();
}

TEST(FaultTolerance, SameSeedSameFaultSchedule) {
  const std::vector<std::string> a = DriveSchedule(1234);
  const std::vector<std::string> b = DriveSchedule(1234);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultTolerance, DifferentSeedDifferentFaultSchedule) {
  // Same rules, same traffic: the corrupted byte offsets must differ
  // because they are drawn from the seeded stream.
  const std::vector<std::string> a = DriveSchedule(1234);
  const std::vector<std::string> b = DriveSchedule(99);
  EXPECT_EQ(a.size(), b.size());  // rule matching is seed-independent
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace threelc::rpc
