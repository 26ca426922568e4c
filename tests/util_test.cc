// Unit tests for the util substrate: RNG, byte buffers, CSV emission,
// the thread pool, and the filesystem seam.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/atomic_file.h"
#include "util/byte_buffer.h"
#include "util/fs.h"
#include "util/csv_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace threelc::util {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Below(1), 0u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, IntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.Int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // The child stream should differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitMix64KnownSequenceIsStable) {
  std::uint64_t s1 = 0, s2 = 0;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
}

// ---------- ByteBuffer / ByteReader ----------

TEST(ByteBuffer, StartsEmpty) {
  ByteBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ByteBuffer, PushAndReadBytes) {
  ByteBuffer buf;
  buf.PushByte(0x12);
  buf.PushByte(0xFE);
  ByteReader r(buf);
  EXPECT_EQ(r.ReadByte(), 0x12);
  EXPECT_EQ(r.ReadByte(), 0xFE);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteBuffer, ScalarRoundTrip) {
  ByteBuffer buf;
  buf.AppendU8(7);
  buf.AppendU16(65500);
  buf.AppendU32(0xDEADBEEF);
  buf.AppendU64(0x0123456789ABCDEFULL);
  buf.AppendF32(3.25f);
  buf.AppendF64(-1e100);
  ByteReader r(buf);
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU16(), 65500);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadF32(), 3.25f);
  EXPECT_EQ(r.ReadF64(), -1e100);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteBuffer, AppendSpanCopies) {
  ByteBuffer a;
  a.AppendU32(42);
  ByteBuffer b;
  b.Append(a.span());
  EXPECT_EQ(a, b);
}

TEST(ByteReader, UnderflowThrows) {
  ByteBuffer buf;
  buf.AppendU16(1);
  ByteReader r(buf);
  EXPECT_THROW(r.ReadU32(), std::out_of_range);
}

TEST(ByteReader, ReadSpanAdvances) {
  ByteBuffer buf;
  for (int i = 0; i < 10; ++i) buf.PushByte(static_cast<std::uint8_t>(i));
  ByteReader r(buf);
  ByteSpan s = r.ReadSpan(4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s[3], 3);
  EXPECT_EQ(r.ReadByte(), 4);
  EXPECT_EQ(r.remaining(), 5u);
}

TEST(ByteReader, ReadSpanPastEndThrows) {
  ByteBuffer buf;
  buf.PushByte(1);
  ByteReader r(buf);
  EXPECT_THROW(r.ReadSpan(2), std::out_of_range);
}

TEST(ByteBuffer, ClearResets) {
  ByteBuffer buf;
  buf.AppendU64(9);
  buf.Clear();
  EXPECT_TRUE(buf.empty());
}

TEST(ByteReader, PositionTracksConsumption) {
  ByteBuffer buf;
  buf.AppendU32(1);
  buf.AppendU32(2);
  ByteReader r(buf);
  EXPECT_EQ(r.position(), 0u);
  r.ReadU32();
  EXPECT_EQ(r.position(), 4u);
}

// ---------- CsvWriter ----------

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.NewRow().Add(1).Add("x");
    csv.NewRow().Add(2.5).Add("y,z");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,x");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,\"y,z\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, EscapesQuotes) {
  const std::string path = ::testing::TempDir() + "/csv_quote.csv";
  {
    CsvWriter csv(path, {"v"});
    csv.NewRow().Add("say \"hi\"");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "\"say \"\"hi\"\"\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}),
               std::runtime_error);
}

// ---------- ThreadPool ----------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SizeClampsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> x{0};
  pool.ParallelFor(3, [&](std::size_t) { ++x; });
  EXPECT_EQ(x.load(), 3);
}

TEST(ParseLogLevel, AcceptsAliasesCaseInsensitively) {
  LogLevel level;
  ASSERT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  ASSERT_TRUE(ParseLogLevel("Warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  ASSERT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  ASSERT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.ElapsedSeconds(), 0.015);
  EXPECT_LT(t.ElapsedSeconds(), 5.0);
}

// Truncation regressions: a reader positioned one byte short of every
// field width must throw std::out_of_range, not read past the span. The
// wire runtime leans on this to reject short payloads loudly.
TEST(ByteReader, ThrowsOnTruncationAtEveryFieldWidth) {
  ByteBuffer buf;
  for (int i = 0; i < 16; ++i) buf.PushByte(static_cast<std::uint8_t>(i));

  auto reader_with = [&](std::size_t available) {
    return ByteReader(ByteSpan(buf.data(), available));
  };

  EXPECT_THROW(reader_with(0).ReadU8(), std::out_of_range);
  EXPECT_THROW(reader_with(1).ReadU16(), std::out_of_range);
  EXPECT_THROW(reader_with(3).ReadU32(), std::out_of_range);
  EXPECT_THROW(reader_with(7).ReadU64(), std::out_of_range);
  EXPECT_THROW(reader_with(3).ReadF32(), std::out_of_range);
  EXPECT_THROW(reader_with(7).ReadF64(), std::out_of_range);

  std::uint8_t sink[8];
  EXPECT_THROW(reader_with(7).ReadInto(sink, 8), std::out_of_range);
  EXPECT_THROW(reader_with(7).ReadSpan(8), std::out_of_range);

  // One byte more succeeds in each case.
  EXPECT_NO_THROW(reader_with(1).ReadU8());
  EXPECT_NO_THROW(reader_with(2).ReadU16());
  EXPECT_NO_THROW(reader_with(4).ReadU32());
  EXPECT_NO_THROW(reader_with(8).ReadU64());
  EXPECT_NO_THROW(reader_with(4).ReadF32());
  EXPECT_NO_THROW(reader_with(8).ReadF64());
  EXPECT_NO_THROW(reader_with(8).ReadInto(sink, 8));
  EXPECT_NO_THROW(reader_with(8).ReadSpan(8));
}

TEST(ByteReader, UnderflowLeavesCursorUnmoved) {
  ByteBuffer buf;
  buf.AppendU16(0x1234);
  ByteReader reader(buf);
  EXPECT_THROW(reader.ReadU32(), std::out_of_range);
  EXPECT_EQ(reader.position(), 0u);
  EXPECT_EQ(reader.ReadU16(), 0x1234);
  EXPECT_TRUE(reader.AtEnd());
}

// Resize growth must zero-fill (std::vector semantics) so a partial
// overwrite can never leak stale heap bytes onto the wire.
TEST(ByteBuffer, ResizeGrowthZeroFills) {
  ByteBuffer buf;
  for (int i = 0; i < 8; ++i) buf.PushByte(0xAB);
  buf.Resize(4);   // shrink keeps the prefix
  buf.Resize(12);  // growth must zero the new tail
  ASSERT_EQ(buf.size(), 12u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(buf.data()[i], 0xAB);
  for (std::size_t i = 4; i < 12; ++i) EXPECT_EQ(buf.data()[i], 0x00);
}

// ---------- Fs / FaultFs / AtomicFileWriter ----------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultFs, ParsesSpecGrammar) {
  std::vector<FsFaultRule> rules;
  std::string error;
  ASSERT_TRUE(FaultFs::ParseSpec(
      "enospc:write@any#*;eio:fsync@2;short:write@0;torn:rename@1#3",
      &rules, &error))
      << error;
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].action, FsFaultAction::kEnospc);
  EXPECT_FALSE(rules[0].any_op);
  EXPECT_EQ(rules[0].op, FsOp::kWrite);
  EXPECT_TRUE(rules[0].any_call);
  EXPECT_TRUE(rules[0].every_match);
  EXPECT_EQ(rules[1].action, FsFaultAction::kEio);
  EXPECT_EQ(rules[1].op, FsOp::kFsync);
  EXPECT_FALSE(rules[1].any_call);
  EXPECT_EQ(rules[1].call, 2u);
  EXPECT_EQ(rules[2].action, FsFaultAction::kShort);
  EXPECT_EQ(rules[3].action, FsFaultAction::kTorn);
  EXPECT_EQ(rules[3].occurrence, 3);
}

TEST(FaultFs, RejectsMalformedAndMismatchedSpecs) {
  std::vector<FsFaultRule> rules;
  std::string error;
  // Unknown action, missing '@', and actions bound to the wrong op.
  EXPECT_FALSE(FaultFs::ParseSpec("explode:write@0", &rules, &error));
  EXPECT_FALSE(FaultFs::ParseSpec("enospc:write", &rules, &error));
  EXPECT_FALSE(FaultFs::ParseSpec("short:fsync@0", &rules, &error));
  EXPECT_FALSE(FaultFs::ParseSpec("fsyncfail:write@0", &rules, &error));
  EXPECT_FALSE(FaultFs::ParseSpec("torn:write@0", &rules, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FaultFs, EnospcFailsTheTargetedWriteOnly) {
  const std::string path = ::testing::TempDir() + "/faultfs_enospc.txt";
  FaultFs fs(Fs::Real(), /*seed=*/1);
  std::string error;
  ASSERT_TRUE(fs.AddRulesFromSpec("enospc:write@1", &error)) << error;
  const int fd = fs.Open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(fs.Write(fd, "ok", 2), 2);
  errno = 0;
  EXPECT_EQ(fs.Write(fd, "no", 2), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(fs.Write(fd, "ok", 2), 2);  // only call index 1 is targeted
  fs.Close(fd);
  EXPECT_EQ(fs.faults_injected(), 1u);
  ASSERT_EQ(fs.schedule_log().size(), 1u);
  EXPECT_NE(fs.schedule_log()[0].find("enospc write call=1"),
            std::string::npos)
      << fs.schedule_log()[0];
  std::remove(path.c_str());
}

TEST(FaultFs, ShortWriteIsCompletedByTheRetryLoop) {
  const std::string path = ::testing::TempDir() + "/faultfs_short.txt";
  std::remove(path.c_str());
  FaultFs fs(Fs::Real(), /*seed=*/7);
  std::string error;
  ASSERT_TRUE(fs.AddRulesFromSpec("short:write@0", &error)) << error;
  {
    AtomicFileWriter w(path, &fs);
    const std::string payload = "the write loop must finish the tail";
    w.Write(payload.data(), payload.size());
    w.Commit();
  }
  EXPECT_GT(fs.calls(FsOp::kWrite), 1u);  // the short write forced a retry
  EXPECT_EQ(fs.faults_injected(), 1u);
  EXPECT_EQ(ReadWholeFile(path), "the write loop must finish the tail");
  std::remove(path.c_str());
}

TEST(FaultFs, FsyncFailureAbortsCommitAndRemovesTemp) {
  const std::string path = ::testing::TempDir() + "/faultfs_fsync.txt";
  std::remove(path.c_str());
  FaultFs fs(Fs::Real(), /*seed=*/3);
  std::string error;
  ASSERT_TRUE(fs.AddRulesFromSpec("fsyncfail:fsync@0", &error)) << error;
  std::string temp_path;
  try {
    AtomicFileWriter w(path, &fs);
    temp_path = w.temp_path();
    w.Write("x", 1);
    w.Commit();
    FAIL() << "Commit() with a failing fsync must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sync"), std::string::npos)
        << e.what();
  }
  // Neither the target nor the temp may exist: no torn state left behind.
  EXPECT_TRUE(ReadWholeFile(path).empty());
  EXPECT_TRUE(ReadWholeFile(temp_path).empty());
}

TEST(FaultFs, TornRenameLeavesTargetUntouchedAndLatchesCrash) {
  const std::string path = ::testing::TempDir() + "/faultfs_torn.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "previous contents";
  }
  FaultFs fs(Fs::Real(), /*seed=*/9);
  std::string error;
  ASSERT_TRUE(fs.AddRulesFromSpec("torn:rename@0", &error)) << error;
  {
    AtomicFileWriter w(path, &fs);
    w.Write("new contents", 12);
    w.Commit();  // "succeeds": the fault swallows the rename
  }
  EXPECT_EQ(ReadWholeFile(path), "previous contents");
  // The crash latch is check-and-clear: a restarted server sharing this
  // FaultFs must not crash again on its next checkpoint.
  EXPECT_TRUE(fs.TakeCrashRequest());
  EXPECT_FALSE(fs.TakeCrashRequest());
  std::remove(path.c_str());
  std::remove((path + ".tmp." + std::to_string(::getpid())).c_str());
}

TEST(AtomicFileWriter, CommitFsyncsFileAndParentDirectory) {
  const std::string path = ::testing::TempDir() + "/atomic_dirsync.txt";
  std::remove(path.c_str());
  FaultFs fs(Fs::Real(), /*seed=*/0);  // no rules: pure pass-through counter
  {
    AtomicFileWriter w(path, &fs);
    w.Write("durable", 7);
    w.Commit();
  }
  // One fsync for the temp file's data, one for the parent directory's
  // entry table — the documented durability contract.
  EXPECT_EQ(fs.calls(FsOp::kFsync), 2u);
  EXPECT_EQ(fs.calls(FsOp::kRename), 1u);
  EXPECT_EQ(fs.faults_injected(), 0u);
  EXPECT_EQ(ReadWholeFile(path), "durable");
  std::remove(path.c_str());
}

TEST(SweepStaleTemps, RemovesDeadPidTempsOnly) {
  const std::string dir = ::testing::TempDir() + "/sweep_test_dir";
  ::mkdir(dir.c_str(), 0755);
  const auto touch = [&](const std::string& name) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << "x";
  };
  // A pid that cannot exist (beyond any real pid_max) => stale.
  touch("ckpt.g3.tmp.999999999");
  // This process is alive => a live writer's temp, must survive.
  const std::string live = "ckpt.g4.tmp." + std::to_string(::getpid());
  touch(live);
  // Non-matching names must never be touched.
  touch("ckpt.g3");
  touch("ckpt.tmp.notapid");
  touch("unrelated.txt");

  EXPECT_EQ(SweepStaleTemps(*Fs::Real(), dir), 1);
  EXPECT_TRUE(ReadWholeFile(dir + "/ckpt.g3.tmp.999999999").empty());
  EXPECT_EQ(ReadWholeFile(dir + "/" + live), "x");
  EXPECT_EQ(ReadWholeFile(dir + "/ckpt.g3"), "x");
  EXPECT_EQ(ReadWholeFile(dir + "/ckpt.tmp.notapid"), "x");
  EXPECT_EQ(ReadWholeFile(dir + "/unrelated.txt"), "x");
  // Idempotent: nothing stale remains.
  EXPECT_EQ(SweepStaleTemps(*Fs::Real(), dir), 0);
  std::remove((dir + "/" + live).c_str());
  std::remove((dir + "/ckpt.g3").c_str());
  std::remove((dir + "/ckpt.tmp.notapid").c_str());
  std::remove((dir + "/unrelated.txt").c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace threelc::util
