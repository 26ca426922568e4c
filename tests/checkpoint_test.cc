// Tests for model checkpointing (save/load round trips and corruption
// handling).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>

#include "nn/checkpoint.h"
#include "nn/checkpoint_manager.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/fs.h"
#include "util/rng.h"

namespace threelc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

train::MlpSpec Spec() { return {6, {16, 8}, 3, true}; }

TEST(Checkpoint, RoundTripRestoresForwardOutputs) {
  auto model = train::BuildMlp(Spec(), 1);
  const std::string path = TempPath("ckpt_roundtrip.bin");
  nn::SaveCheckpoint(model, path);

  auto restored = train::BuildMlp(Spec(), 2);  // different init
  nn::LoadCheckpoint(restored, path);

  util::Rng rng(3);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

TEST(Checkpoint, RestoresBatchNormBuffers) {
  auto model = train::BuildMlp(Spec(), 4);
  // Drive the BN running statistics away from their init.
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    tensor::Tensor in(tensor::Shape{32, 6});
    tensor::FillNormal(in, rng, 2.0f, 3.0f);
    model.Forward(in, true);
  }
  const std::string path = TempPath("ckpt_buffers.bin");
  nn::SaveCheckpoint(model, path);
  auto restored = train::BuildMlp(Spec(), 6);
  nn::LoadCheckpoint(restored, path);
  auto orig_buffers = model.Buffers();
  auto rest_buffers = restored.Buffers();
  ASSERT_EQ(orig_buffers.size(), rest_buffers.size());
  for (std::size_t i = 0; i < orig_buffers.size(); ++i) {
    EXPECT_EQ(tensor::MaxAbsDiff(*orig_buffers[i], *rest_buffers[i]), 0.0f);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  auto model = train::BuildMlp(Spec(), 1);
  EXPECT_THROW(nn::LoadCheckpoint(model, TempPath("does_not_exist.bin")),
               std::runtime_error);
}

TEST(Checkpoint, BadMagicThrows) {
  const std::string path = TempPath("ckpt_bad_magic.bin");
  WriteFileBytes(path, "NOPE and some garbage");
  auto model = train::BuildMlp(Spec(), 1);
  EXPECT_THROW(nn::LoadCheckpoint(model, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ArchitectureMismatchThrows) {
  auto model = train::BuildMlp(Spec(), 1);
  const std::string path = TempPath("ckpt_arch.bin");
  nn::SaveCheckpoint(model, path);
  auto different = train::BuildMlp({6, {32, 8}, 3, true}, 1);
  EXPECT_THROW(nn::LoadCheckpoint(different, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileThrows) {
  auto model = train::BuildMlp(Spec(), 1);
  const std::string path = TempPath("ckpt_trunc.bin");
  nn::SaveCheckpoint(model, path);
  const std::string contents = ReadFileBytes(path);
  WriteFileBytes(path, contents.substr(0, contents.size() / 2));
  EXPECT_THROW(nn::LoadCheckpoint(model, path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------- v2 checksum trailer ----------

TEST(Checkpoint, ChecksumDetectsFlippedPayloadByte) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_crc_corrupt.bin");
  nn::SaveCheckpoint(model, path);

  // Flip one byte in the middle of the tensor data region.
  std::string contents = ReadFileBytes(path);
  contents[contents.size() / 2] ^= 0x01;
  WriteFileBytes(path, contents);

  auto restored = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(restored, path), std::runtime_error);
  std::remove(path.c_str());
}

// Version 1 (no CRC trailer) is unsupported: a v1 file is rejected by its
// version field before any tensor byte is trusted.
TEST(Checkpoint, V1FileIsRejectedAsUnsupported) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v1_rejected.bin");
  nn::SaveCheckpoint(model, path);
  std::string contents = ReadFileBytes(path);
  const std::uint32_t v1 = 1;
  std::memcpy(&contents[4], &v1, sizeof(v1));  // magic[4] | u32 version
  contents.resize(contents.size() - 4);        // v1 had no trailer
  WriteFileBytes(path, contents);
  auto restored = train::BuildMlp(Spec(), 8);
  try {
    nn::LoadCheckpoint(restored, path);
    ADD_FAILURE() << "a version-1 checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---------- v3 training state ----------

nn::TrainState MakeState() {
  nn::TrainState state;
  state.next_step = 41;
  state.codec_state = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  state.sampler_state = {0x10, 0x20, 0x30};
  return state;
}

TEST(Checkpoint, V3RoundTripRestoresModelAndState) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v3_roundtrip.bin");
  nn::SaveCheckpointWithState(model, MakeState(), path);

  auto restored = train::BuildMlp(Spec(), 8);
  nn::TrainState state;
  nn::LoadCheckpointState(restored, &state, path);
  EXPECT_EQ(state.next_step, 41u);
  EXPECT_EQ(state.codec_state, MakeState().codec_state);
  EXPECT_EQ(state.sampler_state, MakeState().sampler_state);
  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

// Plain LoadCheckpoint must accept a v3 file — readers that only want the
// model (evaluation snapshots) skip the training-state section.
TEST(Checkpoint, LoadCheckpointAcceptsV3AndSkipsState) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v3_model_only.bin");
  nn::SaveCheckpointWithState(model, MakeState(), path);
  auto restored = train::BuildMlp(Spec(), 8);
  EXPECT_NO_THROW(nn::LoadCheckpoint(restored, path));
  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

// LoadCheckpointState demands the state section: a v2 (model-only) file is
// an error, not silently-zero state.
TEST(Checkpoint, LoadCheckpointStateRejectsV2File) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v2_no_state.bin");
  nn::SaveCheckpoint(model, path);
  nn::TrainState state;
  EXPECT_THROW(nn::LoadCheckpointState(model, &state, path),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, V3ChecksumDetectsStateCorruption) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("ckpt_v3_corrupt.bin");
  nn::SaveCheckpointWithState(model, MakeState(), path);
  // Flip a byte near the end of the body — inside the training-state
  // section, before the CRC trailer.
  std::string contents = ReadFileBytes(path);
  contents[contents.size() - 7] ^= 0x01;
  WriteFileBytes(path, contents);
  nn::TrainState state;
  EXPECT_THROW(nn::LoadCheckpointState(model, &state, path),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---------- server checkpoint ("3LCS") ----------

util::ByteBuffer ReplayFrame(std::initializer_list<std::uint8_t> bytes) {
  util::ByteBuffer frame;
  frame.Append(bytes.begin(), bytes.size());
  return frame;
}

nn::ServerState MakeServerState() {
  nn::ServerState state;
  state.epoch = 3;
  state.next_step = 17;
  state.ps_state = {0xAA, 0xBB, 0xCC, 0x01, 0x02};
  state.evicted = {0, 1, 0};
  state.greeted = {1, 1, 0};
  nn::ServerState::ReplayStep s15;
  s15.step = 15;
  s15.frames = {ReplayFrame({0x10, 0x11}), ReplayFrame({0x12})};
  nn::ServerState::ReplayStep s16;
  s16.step = 16;
  s16.frames = {ReplayFrame({0x20}), ReplayFrame({0x21, 0x22, 0x23})};
  state.replay = {s15, s16};
  return state;
}

TEST(ServerCheckpoint, RoundTripRestoresModelAndEveryField) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_roundtrip.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);

  auto restored = train::BuildMlp(Spec(), 8);  // different init
  nn::ServerState state;
  nn::LoadServerCheckpoint(restored, &state, path);

  const nn::ServerState want = MakeServerState();
  EXPECT_EQ(state.epoch, want.epoch);
  EXPECT_EQ(state.next_step, want.next_step);
  EXPECT_EQ(state.ps_state, want.ps_state);
  EXPECT_EQ(state.evicted, want.evicted);
  EXPECT_EQ(state.greeted, want.greeted);
  ASSERT_EQ(state.replay.size(), want.replay.size());
  for (std::size_t i = 0; i < want.replay.size(); ++i) {
    EXPECT_EQ(state.replay[i].step, want.replay[i].step);
    EXPECT_EQ(state.replay[i].frames, want.replay[i].frames);
  }

  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                               restored.Forward(in, false)),
            0.0f);
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, EveryTruncationIsRejected) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_trunc.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);

  const std::string contents = ReadFileBytes(path);
  ASSERT_GT(contents.size(), 16u);

  // Sweep prefix lengths (stride keeps the test fast; the endpoints and
  // everything in between must all fail the CRC or hit a hard underflow).
  for (std::size_t len = 0; len < contents.size();
       len += (contents.size() / 97) + 1) {
    WriteFileBytes(path, contents.substr(0, len));
    auto victim = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    EXPECT_THROW(nn::LoadServerCheckpoint(victim, &state, path),
                 std::runtime_error)
        << "truncated to " << len << " of " << contents.size() << " bytes";
  }
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, FlippedByteIsRejected) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("sckpt_flip.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);
  const std::string contents = ReadFileBytes(path);
  for (const std::size_t pos :
       {contents.size() / 4, contents.size() / 2, contents.size() - 5}) {
    std::string corrupt = contents;
    corrupt[pos] ^= 0x08;
    WriteFileBytes(path, corrupt);
    auto victim = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    EXPECT_THROW(nn::LoadServerCheckpoint(victim, &state, path),
                 std::runtime_error)
        << "flip at byte " << pos;
  }
  std::remove(path.c_str());
}

// The two record types must not be confusable: a worker checkpoint is not
// a server checkpoint and vice versa.
TEST(ServerCheckpoint, MagicSeparatesWorkerAndServerRecords) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string worker_path = TempPath("sckpt_worker_rec.bin");
  const std::string server_path = TempPath("sckpt_server_rec.bin");
  nn::SaveCheckpoint(model, worker_path);
  nn::SaveServerCheckpoint(model, MakeServerState(), server_path);

  nn::ServerState state;
  EXPECT_THROW(nn::LoadServerCheckpoint(model, &state, worker_path),
               std::runtime_error);
  EXPECT_THROW(nn::LoadCheckpoint(model, server_path), std::runtime_error);
  std::remove(worker_path.c_str());
  std::remove(server_path.c_str());
}

// ---------- step records ("3LCW") ----------

util::ByteBuffer Push(std::size_t size, std::uint8_t seed) {
  util::ByteBuffer push;
  for (std::size_t i = 0; i < size; ++i) {
    push.PushByte(static_cast<std::uint8_t>(seed + 7 * i));
  }
  return push;
}

// Two steps over three workers: worker 1 is evicted, step 17 has two
// contributors, step 18 one, and every push has its own size.
nn::StepRecord MakeStepRecord(std::uint64_t first_step = 17) {
  nn::StepRecord record;
  record.epoch = 4;
  record.evicted = {0, 1, 0};
  record.greeted = {1, 1, 1};
  nn::StepRecord::Step a;
  a.step = first_step;
  a.lr = 0.0123f;
  a.contributors = {0, 2};
  a.pushes.resize(3);
  a.pushes[0] = {Push(5, 0x10), Push(1, 0x20)};
  a.pushes[2] = {Push(3, 0x30), Push(4, 0x40)};
  nn::StepRecord::Step b;
  b.step = first_step + 1;
  b.lr = -1.5e-39f;  // a subnormal: the lr must round-trip bit for bit
  b.contributors = {2};
  b.pushes.resize(3);
  b.pushes[2] = {Push(2, 0x50), Push(6, 0x60)};
  record.steps = {a, b};
  return record;
}

void SaveStepRecord(const nn::StepRecord& record, const std::string& path) {
  util::ByteBuffer blob;
  nn::EncodeStepRecord(record, &blob);
  nn::WriteStepRecord(blob, path);
}

TEST(StepRecord, RoundTripRestoresEveryField) {
  const std::string path = TempPath("record_roundtrip.bin");
  const nn::StepRecord want = MakeStepRecord();
  SaveStepRecord(want, path);
  EXPECT_TRUE(nn::IsStepRecordFile(path));

  nn::StepRecord got;
  nn::LoadStepRecord(&got, path);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.evicted, want.evicted);
  EXPECT_EQ(got.greeted, want.greeted);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(got.steps[i].step, want.steps[i].step);
    EXPECT_EQ(std::memcmp(&got.steps[i].lr, &want.steps[i].lr, sizeof(float)),
              0);
    EXPECT_EQ(got.steps[i].contributors, want.steps[i].contributors);
    // Indexed by worker id; non-contributors' rows stay empty.
    EXPECT_EQ(got.steps[i].pushes, want.steps[i].pushes);
  }
  std::remove(path.c_str());
}

TEST(StepRecord, EveryTruncationAndFlippedByteIsRejected) {
  const std::string path = TempPath("record_trunc.bin");
  SaveStepRecord(MakeStepRecord(), path);
  const std::string contents = ReadFileBytes(path);
  for (std::size_t len = 0; len < contents.size(); ++len) {
    WriteFileBytes(path, contents.substr(0, len));
    nn::StepRecord record;
    EXPECT_THROW(nn::LoadStepRecord(&record, path), std::runtime_error)
        << "truncated to " << len << " of " << contents.size() << " bytes";
  }
  for (std::size_t pos = 0; pos < contents.size(); ++pos) {
    std::string corrupt = contents;
    corrupt[pos] ^= 0x08;
    WriteFileBytes(path, corrupt);
    nn::StepRecord record;
    EXPECT_THROW(nn::LoadStepRecord(&record, path), std::runtime_error)
        << "flip at byte " << pos;
  }
  std::remove(path.c_str());
}

// A step record is not a server snapshot and vice versa.
TEST(StepRecord, MagicSeparatesRecordsAndSnapshots) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string record_path = TempPath("record_magic.bin");
  const std::string server_path = TempPath("record_magic.sckpt");
  SaveStepRecord(MakeStepRecord(), record_path);
  nn::SaveServerCheckpoint(model, MakeServerState(), server_path);

  nn::ServerState state;
  EXPECT_THROW(nn::LoadServerCheckpoint(model, &state, record_path),
               std::runtime_error);
  nn::StepRecord record;
  EXPECT_THROW(nn::LoadStepRecord(&record, server_path), std::runtime_error);
  EXPECT_FALSE(nn::IsStepRecordFile(server_path));
  std::remove(record_path.c_str());
  std::remove(server_path.c_str());
}

// ---------- 3LCZ compressed container ----------

// A model whose tensor bytes are trivially compressible, so every codec
// shrinks the blob and the save is guaranteed to emit the container (the
// skip-if-incompressible escape never fires).
nn::Model CompressibleModel(int seed) {
  auto model = train::BuildMlp(Spec(), seed);
  float v = 0.25f;
  for (auto& p : model.Params()) {
    tensor::Tensor* t = p.value;
    for (std::int64_t i = 0; i < t->num_elements(); ++i) t->data()[i] = v;
    v += 0.125f;  // distinct per tensor so a swapped load would show
  }
  return model;
}

bool HasContainerMagic(const std::string& bytes) {
  return bytes.size() >= 4 && bytes.compare(0, 4, "3LCZ") == 0;
}

// Container header layout (checkpoint.h): magic[4] | u32 version |
// u8 codec_id | u64 raw_size | u32 raw_crc32c | u32 comp_size.
constexpr std::size_t kCodecIdOffset = 8;
constexpr std::size_t kRawSizeOffset = 9;
constexpr std::size_t kRawCrcOffset = 17;

TEST(CompressedCheckpoint, RoundTripEveryCodecBitwiseExact) {
  auto model = CompressibleModel(7);
  const std::string bare = TempPath("zckpt_bare.bin");
  nn::SaveCheckpoint(model, bare);
  const std::size_t bare_size = ReadFileBytes(bare).size();

  for (const char* codec : {"lz", "rans", "lz+rans"}) {
    const std::string path = TempPath("zckpt_roundtrip.bin");
    nn::SaveCheckpoint(model, path, codec);
    const std::string bytes = ReadFileBytes(path);
    EXPECT_TRUE(HasContainerMagic(bytes)) << codec;
    EXPECT_LT(bytes.size(), bare_size) << codec;

    auto restored = train::BuildMlp(Spec(), 8);
    nn::LoadCheckpoint(restored, path);
    util::Rng rng(9);
    tensor::Tensor in(tensor::Shape{4, 6});
    tensor::FillNormal(in, rng, 0.0f, 1.0f);
    EXPECT_EQ(tensor::MaxAbsDiff(model.Forward(in, false),
                                 restored.Forward(in, false)),
              0.0f)
        << codec;
    std::remove(path.c_str());
  }
  std::remove(bare.c_str());
}

TEST(CompressedCheckpoint, StoreCodecWritesBareFile) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_store.bin");
  nn::SaveCheckpoint(model, path, "store");
  EXPECT_FALSE(HasContainerMagic(ReadFileBytes(path)));
  auto restored = train::BuildMlp(Spec(), 8);
  EXPECT_NO_THROW(nn::LoadCheckpoint(restored, path));
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, UnknownCodecNameThrowsOnSave) {
  auto model = CompressibleModel(7);
  EXPECT_THROW(nn::SaveCheckpoint(model, TempPath("zckpt_unknown.bin"),
                                  "zstd"),
               std::runtime_error);
}

TEST(CompressedCheckpoint, V3StateAndServerRecordsRoundTrip) {
  auto model = CompressibleModel(7);
  const std::string wpath = TempPath("zckpt_v3.bin");
  nn::SaveCheckpointWithState(model, MakeState(), wpath, "lz+rans");
  EXPECT_TRUE(HasContainerMagic(ReadFileBytes(wpath)));
  auto restored = train::BuildMlp(Spec(), 8);
  nn::TrainState state;
  nn::LoadCheckpointState(restored, &state, wpath);
  EXPECT_EQ(state.next_step, 41u);
  EXPECT_EQ(state.codec_state, MakeState().codec_state);

  const std::string spath = TempPath("zsckpt.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), spath, "lz+rans");
  EXPECT_TRUE(HasContainerMagic(ReadFileBytes(spath)));
  auto restored2 = train::BuildMlp(Spec(), 9);
  nn::ServerState sstate;
  nn::LoadServerCheckpoint(restored2, &sstate, spath);
  EXPECT_EQ(sstate.epoch, MakeServerState().epoch);
  EXPECT_EQ(sstate.replay.size(), MakeServerState().replay.size());

  util::Rng rng(9);
  tensor::Tensor in(tensor::Shape{4, 6});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  EXPECT_EQ(tensor::MaxAbsDiff(restored.Forward(in, false),
                               restored2.Forward(in, false)),
            0.0f);
  std::remove(wpath.c_str());
  std::remove(spath.c_str());
}

// The loader must cross-check the declared raw size against the decoded
// length independently of the CRC: a tampered size field fails even
// though the compressed payload itself is intact.
TEST(CompressedCheckpoint, DeclaredSizeMismatchIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_size.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[kRawSizeOffset] ^= 0x01;  // raw_size off by one
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, DeclaredCrcMismatchIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_crc.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[kRawCrcOffset] ^= 0x01;  // container CRC no longer matches
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, UnknownCodecIdIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_badid.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[kCodecIdOffset] = static_cast<char>(0xEE);
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, ImplausibleRawSizeIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_hugesize.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  for (int i = 0; i < 8; ++i) {
    bytes[kRawSizeOffset + i] = static_cast<char>(0xFF);
  }
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, TruncationSweepIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_trunc.bin");
  nn::SaveServerCheckpoint(model, MakeServerState(), path, "lz+rans");
  const std::string contents = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(contents));
  for (std::size_t len = 0; len < contents.size();
       len += (contents.size() / 97) + 1) {
    WriteFileBytes(path, contents.substr(0, len));
    auto victim = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    EXPECT_THROW(nn::LoadServerCheckpoint(victim, &state, path),
                 std::runtime_error)
        << "truncated to " << len << " of " << contents.size() << " bytes";
  }
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, TrailingGarbageIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_trailing.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes += "extra";
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, CompressedPayloadFlipIsRejected) {
  auto model = CompressibleModel(7);
  const std::string path = TempPath("zckpt_payload_flip.bin");
  nn::SaveCheckpoint(model, path, "lz+rans");
  std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(HasContainerMagic(bytes));
  bytes[bytes.size() / 2] ^= 0x04;
  WriteFileBytes(path, bytes);
  auto victim = train::BuildMlp(Spec(), 8);
  EXPECT_THROW(nn::LoadCheckpoint(victim, path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------- atomic write-temp + fsync + rename ----------

TEST(AtomicFile, CommitLeavesContentsAndNoTempBehind) {
  const std::string path = TempPath("atomic_commit.bin");
  std::string temp_path;
  {
    util::AtomicFileWriter w(path);
    temp_path = w.temp_path();
    // The file under construction lives at the temp sibling, not `path`.
    EXPECT_TRUE(std::ifstream(temp_path).good());
    EXPECT_FALSE(std::ifstream(path).good());
    w.Write("hello", 5);
    w.Commit();
  }
  EXPECT_EQ(ReadFileBytes(path), "hello");
  EXPECT_FALSE(std::ifstream(temp_path).good()) << "temp file leaked";
  std::remove(path.c_str());
}

TEST(AtomicFile, AbortRemovesTempAndPreservesPrevious) {
  const std::string path = TempPath("atomic_abort.bin");
  WriteFileBytes(path, "previous");
  std::string temp_path;
  {
    util::AtomicFileWriter w(path);
    temp_path = w.temp_path();
    w.Write("partial", 7);
    // Destroyed without Commit: exception-unwind path.
  }
  EXPECT_EQ(ReadFileBytes(path), "previous");
  EXPECT_FALSE(std::ifstream(temp_path).good()) << "temp file leaked";
  std::remove(path.c_str());
}

TEST(AtomicFile, StaleTempFromEarlierCrashIsOverwritten) {
  const std::string path = TempPath("atomic_stale.bin");
  // Learn this process's temp-sibling name, then plant garbage there as if
  // a previous attempt died mid-write.
  std::string temp_path;
  {
    util::AtomicFileWriter probe(path);
    temp_path = probe.temp_path();
  }
  WriteFileBytes(temp_path, "stale garbage from a crashed writer");
  auto model = train::BuildMlp(Spec(), 7);
  nn::SaveServerCheckpoint(model, MakeServerState(), path);
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  EXPECT_NO_THROW(nn::LoadServerCheckpoint(restored, &state, path));
  EXPECT_EQ(state.epoch, 3u);
  EXPECT_FALSE(std::ifstream(temp_path).good()) << "temp file leaked";
  std::remove(path.c_str());
}

// ---------- CheckpointManager: generations + last-good fallback ----------

// A state whose epoch encodes which Save() produced it, so fallback tests
// can tell generations apart after a load.
nn::ServerState NumberedState(std::uint64_t n) {
  nn::ServerState state = MakeServerState();
  state.epoch = n;
  state.next_step = static_cast<std::int64_t>(n) + 100;
  return state;
}

void RemoveGenerations(const std::string& path) {
  std::remove(path.c_str());
  for (int g = 0; g < 32; ++g) {
    std::remove((path + ".g" + std::to_string(g)).c_str());
  }
}

TEST(CheckpointManager, SaveNumbersGenerationsAndPrunesToRetention) {
  const std::string path = TempPath("mgr_retention.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  for (std::uint64_t n = 0; n < 5; ++n) mgr.Save(model, NumberedState(n));
  EXPECT_EQ(mgr.generation_count(), 2);
  EXPECT_EQ(mgr.next_generation(), 5u);
  // g3 and g4 survive; g0..g2 were pruned.
  for (int g = 0; g < 3; ++g) {
    EXPECT_TRUE(ReadFileBytes(mgr.GenerationPath(g)).empty()) << g;
  }
  for (int g = 3; g < 5; ++g) {
    EXPECT_FALSE(ReadFileBytes(mgr.GenerationPath(g)).empty()) << g;
  }
  // The newest generation is what Load returns.
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  std::string error;
  ASSERT_TRUE(mgr.Load(restored, &state, &error)) << error;
  EXPECT_EQ(state.epoch, 4u);
  EXPECT_EQ(mgr.fallbacks(), 0);
  EXPECT_EQ(mgr.loaded_path(), mgr.GenerationPath(4));
  RemoveGenerations(path);
}

TEST(CheckpointManager, NumberingResumesAfterRescanNeverReuses) {
  const std::string path = TempPath("mgr_renumber.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  {
    nn::CheckpointManager mgr({path, /*retain=*/2});
    for (std::uint64_t n = 0; n < 3; ++n) mgr.Save(model, NumberedState(n));
  }
  // A fresh incarnation scans disk (g1, g2 remain) and continues at g3.
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.ScanAndSweep();
  EXPECT_EQ(mgr.next_generation(), 3u);
  mgr.Save(model, NumberedState(3));
  EXPECT_FALSE(ReadFileBytes(mgr.GenerationPath(3)).empty());
  RemoveGenerations(path);
}

// The fallback matrix of the issue: corrupt the newest generation in each
// byte-region class (magic, header, payload, trailer) and truncate it;
// every variant must fall back to the older intact generation.
TEST(CheckpointManager, FallbackMatrixCorruptNewestEveryRegion) {
  const std::string path = TempPath("mgr_matrix.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.Save(model, NumberedState(0));
  mgr.Save(model, NumberedState(1));
  const std::string newest = mgr.GenerationPath(1);
  const std::string pristine = ReadFileBytes(newest);
  ASSERT_GT(pristine.size(), 32u);

  struct Corruption {
    const char* name;
    std::size_t flip_at;  // == npos for truncation
    std::size_t truncate_to;
  };
  const std::size_t kFlip = std::string::npos;
  const std::vector<Corruption> matrix = {
      {"magic", 0, kFlip},                        // "3LCS" tag
      {"header", 6, kFlip},                       // version/count region
      {"payload", pristine.size() / 2, kFlip},    // tensor bytes
      {"trailer", pristine.size() - 2, kFlip},    // CRC trailer
      {"truncated-half", kFlip, pristine.size() / 2},
      {"truncated-trailer", kFlip, pristine.size() - 3},
      {"empty", kFlip, 0},
  };
  for (const auto& c : matrix) {
    if (c.flip_at != kFlip) {
      std::string corrupt = pristine;
      corrupt[c.flip_at] ^= 0x04;
      WriteFileBytes(newest, corrupt);
    } else {
      WriteFileBytes(newest, pristine.substr(0, c.truncate_to));
    }
    nn::CheckpointManager victim({path, /*retain=*/2});
    auto restored = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    std::string error;
    ASSERT_TRUE(victim.Load(restored, &state, &error))
        << c.name << ": " << error;
    EXPECT_EQ(state.epoch, 0u) << c.name;  // the older generation's state
    EXPECT_EQ(victim.fallbacks(), 1) << c.name;
    EXPECT_EQ(victim.loaded_path(), victim.GenerationPath(0)) << c.name;
    ASSERT_EQ(victim.fallback_log().size(), 1u) << c.name;
    EXPECT_NE(victim.fallback_log()[0].find("unusable"), std::string::npos)
        << victim.fallback_log()[0];
  }
  RemoveGenerations(path);
}

TEST(CheckpointManager, AllGenerationsBadIsACleanError) {
  const std::string path = TempPath("mgr_allbad.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.Save(model, NumberedState(0));
  mgr.Save(model, NumberedState(1));
  for (int g = 0; g < 2; ++g) {
    std::string bytes = ReadFileBytes(mgr.GenerationPath(g));
    bytes[bytes.size() / 2] ^= 0x10;
    WriteFileBytes(mgr.GenerationPath(g), bytes);
  }
  nn::CheckpointManager victim({path, /*retain=*/2});
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  std::string error;
  EXPECT_FALSE(victim.Load(restored, &state, &error));
  EXPECT_NE(error.find("no usable checkpoint"), std::string::npos) << error;
  EXPECT_EQ(victim.fallbacks(), 2);
  RemoveGenerations(path);
}

TEST(CheckpointManager, NoFilesAtAllIsACleanError) {
  const std::string path = TempPath("mgr_nothing.sckpt");
  RemoveGenerations(path);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  auto model = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  std::string error;
  EXPECT_FALSE(mgr.Load(model, &state, &error));
  EXPECT_NE(error.find("no usable checkpoint"), std::string::npos) << error;
}

TEST(CheckpointManager, SaveThrowsOnInjectedDiskFull) {
  const std::string path = TempPath("mgr_enospc.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  util::FaultFs fault(util::Fs::Real(), /*seed=*/5);
  std::string spec_error;
  ASSERT_TRUE(fault.AddRulesFromSpec("enospc:write@any#*", &spec_error))
      << spec_error;
  nn::CheckpointManager::Options options;
  options.path = path;
  options.fs = &fault;
  nn::CheckpointManager mgr(options);
  EXPECT_THROW(mgr.Save(model, NumberedState(0)), std::runtime_error);
  EXPECT_GT(fault.faults_injected(), 0u);
  // The failed generation number is not consumed: a retry (now that the
  // "disk" has space again) lands at the same g0.
  EXPECT_EQ(mgr.next_generation(), 0u);
  util::FaultFs clean(util::Fs::Real(), /*seed=*/5);
  nn::CheckpointManager::Options retry_options;
  retry_options.path = path;
  retry_options.fs = &clean;
  nn::CheckpointManager retry(retry_options);
  retry.Save(model, NumberedState(0));
  EXPECT_FALSE(ReadFileBytes(retry.GenerationPath(0)).empty());
  RemoveGenerations(path);
}

// ---------- pinned bytes and corrupt lengths ----------

// Overwrites every parameter and buffer with values that depend only on
// their position, so pinned file bytes do not depend on the platform's
// math library.
void FillDeterministic(nn::Model& model) {
  std::size_t k = 0;
  auto fill = [&](tensor::Tensor* t) {
    float* d = t->data();
    for (std::int64_t i = 0; i < t->num_elements(); ++i) {
      d[i] = static_cast<float>(k++ % 97) * 0.25f - 12.0f;
    }
  };
  for (auto& p : model.Params()) fill(p.value);
  for (tensor::Tensor* b : model.Buffers()) fill(b);
}

// CRC32C of a file minus its 4-byte trailer. (The CRC of a whole file
// would not pin anything: a CRC over a body followed by that body's CRC
// depends only on the header and the length.)
std::uint32_t CrcBeforeTrailer(const std::string& bytes) {
  return util::Crc32c(bytes.data(), bytes.size() - 4);
}

// Sizes and checksums recorded from the stream-based serializer this one
// replaced: the file format must not move by a byte.
TEST(CheckpointFormat, ServerAndV3BytesArePinned) {
  auto model = train::BuildMlp(Spec(), 7);
  FillDeterministic(model);
  const std::string spath = TempPath("pin_server.sckpt");
  nn::SaveServerCheckpoint(model, MakeServerState(), spath);
  const std::string server = ReadFileBytes(spath);
  EXPECT_EQ(server.size(), 1729u);
  EXPECT_EQ(CrcBeforeTrailer(server), 0x6B571300u);

  const std::string wpath = TempPath("pin_worker_v3.ckpt");
  nn::SaveCheckpointWithState(model, MakeState(), wpath);
  const std::string worker = ReadFileBytes(wpath);
  EXPECT_EQ(worker.size(), 1667u);
  EXPECT_EQ(CrcBeforeTrailer(worker), 0xA91840EEu);

  // A reused serialization buffer writes the same bytes, whatever it
  // held before.
  util::ByteBuffer blob;
  blob.Append(worker.data(), worker.size());
  nn::SaveServerCheckpoint(model, MakeServerState(), spath, "store", nullptr,
                           &blob);
  EXPECT_EQ(ReadFileBytes(spath), server);

  // So does a write_ps_state hook appending the ps_state bytes in place.
  nn::ServerState hooked = MakeServerState();
  const std::vector<std::uint8_t> ps_state = hooked.ps_state;
  hooked.ps_state.clear();
  hooked.write_ps_state = [&](util::ByteBuffer& out) {
    out.Append(ps_state.data(), ps_state.size());
  };
  nn::SaveServerCheckpoint(model, hooked, spath, "store", nullptr, &blob);
  EXPECT_EQ(ReadFileBytes(spath), server);
  std::remove(spath.c_str());
  std::remove(wpath.c_str());
}

// Offset of `needle` in `bytes` (which must contain it).
std::size_t OffsetOf(const std::string& bytes, const std::string& needle) {
  const std::size_t at = bytes.find(needle);
  EXPECT_NE(at, std::string::npos);
  return at;
}

void SetU32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

struct LengthField {
  std::string name;
  std::size_t offset;
};

// Every u32 length/count of a MakeServerState() file, located from known
// bytes: the first tensor's name_len sits right after the tensor count.
std::vector<LengthField> ServerLengthFields(const std::string& bytes) {
  const std::size_t name_len = 12;
  std::uint32_t name_bytes;
  std::memcpy(&name_bytes, bytes.data() + name_len, sizeof(name_bytes));
  const std::size_t ps_state =
      OffsetOf(bytes, std::string("\x05\x00\x00\x00\xAA\xBB\xCC", 7));
  const std::size_t workers = ps_state + 4 + 5;
  const std::size_t replay = workers + 4 + 3 + 3;
  const std::size_t frames = replay + 4 + 8;
  return {{"name_len", name_len},
          {"rank", name_len + 4 + name_bytes},
          {"ps_state", ps_state},
          {"worker count", workers},
          {"replay count", replay},
          {"frame count", frames},
          {"frame size", frames + 4}};
}

// A length or count flipped to 0xFFFFFFFF must fail on the bytes that
// remain, as a runtime_error naming the file, before anything is sized
// by it (the CRC trailer is only checked after the body is parsed).
TEST(CheckpointFormat, HugeLengthsFailWithThePath) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string spath = TempPath("huge_len.sckpt");
  nn::SaveServerCheckpoint(model, MakeServerState(), spath);
  const std::string server = ReadFileBytes(spath);
  for (const LengthField& field : ServerLengthFields(server)) {
    std::string corrupt = server;
    SetU32(corrupt, field.offset, 0xFFFFFFFFu);
    WriteFileBytes(spath, corrupt);
    auto restored = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    try {
      nn::LoadServerCheckpoint(restored, &state, spath);
      ADD_FAILURE() << field.name << ": corrupt file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(spath), std::string::npos)
          << field.name << ": " << e.what();
    }
  }

  const std::string wpath = TempPath("huge_len_v3.ckpt");
  nn::SaveCheckpointWithState(model, MakeState(), wpath);
  const std::string worker = ReadFileBytes(wpath);
  const std::size_t codec_state =
      OffsetOf(worker, std::string("\x05\x00\x00\x00\xDE\xAD\xBE\xEF", 8));
  // name_len, codec_state and sampler_state (after the 5 codec bytes).
  for (const std::size_t at : {std::size_t{12}, codec_state,
                               codec_state + 4 + 5}) {
    std::string corrupt = worker;
    SetU32(corrupt, at, 0xFFFFFFFFu);
    WriteFileBytes(wpath, corrupt);
    auto restored = train::BuildMlp(Spec(), 8);
    nn::TrainState state;
    try {
      nn::LoadCheckpointState(restored, &state, wpath);
      ADD_FAILURE() << "offset " << at << ": corrupt file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(wpath), std::string::npos)
          << e.what();
    }
  }
  std::remove(spath.c_str());
  std::remove(wpath.c_str());
}

// Every u32 length/count of a MakeStepRecord() file set to 0xFFFFFFFF
// must fail on the bytes that remain, naming the file, before anything is
// sized by it. Offsets: magic+version (8) | epoch (8) | worker count at 16
// | 3 + 3 table bytes | step count at 26 | step (8) + lr (4) |
// contributor count at 42 | worker id (4) | tensor count at 50 | the first
// push's size at 54.
TEST(StepRecord, HugeLengthsFailWithThePath) {
  const std::string path = TempPath("record_huge_len.bin");
  SaveStepRecord(MakeStepRecord(), path);
  const std::string pristine = ReadFileBytes(path);
  std::uint32_t contributors = 0;
  std::memcpy(&contributors, pristine.data() + 42, sizeof(contributors));
  ASSERT_EQ(contributors, 2u);  // the layout above holds
  for (const std::size_t at : {16, 26, 42, 50, 54}) {
    std::string corrupt = pristine;
    SetU32(corrupt, at, 0xFFFFFFFFu);
    WriteFileBytes(path, corrupt);
    nn::StepRecord record;
    try {
      nn::LoadStepRecord(&record, path);
      ADD_FAILURE() << "offset " << at << ": corrupt file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

// A corrupt dimension (here negative) must be a runtime_error naming the
// file, not a failed CHECK in a tensor::Shape built from it.
TEST(CheckpointFormat, NegativeDimensionFailsWithThePath) {
  auto model = train::BuildMlp(Spec(), 7);
  const std::string path = TempPath("negative_dim.sckpt");
  nn::SaveServerCheckpoint(model, MakeServerState(), path);
  std::string corrupt = ReadFileBytes(path);
  std::size_t first_dim = 0;
  for (const LengthField& field : ServerLengthFields(corrupt)) {
    if (field.name == "rank") first_dim = field.offset + 4;
  }
  const std::int64_t negative = -1;
  std::memcpy(corrupt.data() + first_dim, &negative, sizeof(negative));
  WriteFileBytes(path, corrupt);
  auto restored = train::BuildMlp(Spec(), 8);
  nn::ServerState state;
  try {
    nn::LoadServerCheckpoint(restored, &state, path);
    ADD_FAILURE() << "corrupt file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointManager, FallsBackPastHugeLengths) {
  const std::string path = TempPath("mgr_huge_len.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.Save(model, NumberedState(0));
  mgr.Save(model, NumberedState(1));
  const std::string newest = mgr.GenerationPath(1);
  const std::string pristine = ReadFileBytes(newest);
  for (const LengthField& field : ServerLengthFields(pristine)) {
    std::string corrupt = pristine;
    SetU32(corrupt, field.offset, 0xFFFFFFFFu);
    WriteFileBytes(newest, corrupt);
    nn::CheckpointManager victim({path, /*retain=*/2});
    auto restored = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    std::string error;
    ASSERT_TRUE(victim.Load(restored, &state, &error))
        << field.name << ": " << error;
    EXPECT_EQ(state.epoch, 0u) << field.name;
    EXPECT_EQ(victim.fallbacks(), 1) << field.name;
  }
  RemoveGenerations(path);
}

// ---------- CheckpointManager: step records between snapshots ----------

// The record for `steps` consecutive steps starting at `first`, each with
// one contributor pushing `push_bytes` bytes.
nn::StepRecord RecordOf(std::uint64_t first, int steps,
                        std::size_t push_bytes = 4) {
  nn::StepRecord record;
  record.epoch = 5;
  record.evicted = {0, 0, 0};
  record.greeted = {1, 1, 0};
  for (int i = 0; i < steps; ++i) {
    nn::StepRecord::Step step;
    step.step = first + static_cast<std::uint64_t>(i);
    step.lr = 0.5f;
    step.contributors = {1};
    step.pushes.resize(3);
    step.pushes[1] = {Push(push_bytes, static_cast<std::uint8_t>(i))};
    record.steps.push_back(step);
  }
  return record;
}

std::string Kinds(const nn::CheckpointManager& mgr) {
  std::string kinds;
  for (std::uint64_t g = 0; g < mgr.next_generation(); ++g) {
    const std::string path = mgr.GenerationPath(g);
    if (ReadFileBytes(path).empty()) continue;
    kinds += nn::IsStepRecordFile(path) ? 'R' : 'S';
  }
  return kinds;
}

TEST(CheckpointManager, SaveRecordDeclinesUntilASnapshotAndPastItsSize) {
  const std::string path = TempPath("mgr_record_rules.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  EXPECT_FALSE(mgr.SaveRecord(RecordOf(0, 1)));  // no snapshot yet
  EXPECT_EQ(mgr.next_generation(), 0u);

  mgr.Save(model, NumberedState(0));
  const std::size_t snapshot = ReadFileBytes(mgr.GenerationPath(0)).size();
  util::ByteBuffer blob;
  nn::EncodeStepRecord(RecordOf(0, 1, 300), &blob);
  const std::size_t fits = snapshot / blob.size();
  ASSERT_GE(fits, 2u);
  for (std::size_t i = 0; i < fits; ++i) {
    EXPECT_TRUE(mgr.SaveRecord(RecordOf(i, 1, 300))) << i;
  }
  // One more would make the records outweigh the snapshot.
  EXPECT_FALSE(mgr.SaveRecord(RecordOf(fits, 1, 300)));
  mgr.Save(model, NumberedState(1));
  EXPECT_TRUE(mgr.SaveRecord(RecordOf(fits, 1, 300)));
  EXPECT_EQ(Kinds(mgr), "S" + std::string(fits, 'R') + "SR");
  RemoveGenerations(path);
}

TEST(CheckpointManager, FailedSaveMakesTheNextOneASnapshot) {
  const std::string path = TempPath("mgr_record_fail.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  util::FaultFs fault(util::Fs::Real(), /*seed=*/5);
  std::string spec_error;
  // Write calls: 0 = the snapshot, 1 = the first record.
  ASSERT_TRUE(fault.AddRulesFromSpec("eio:write@1", &spec_error))
      << spec_error;
  nn::CheckpointManager::Options options;
  options.path = path;
  options.fs = &fault;
  nn::CheckpointManager mgr(options);
  mgr.Save(model, NumberedState(0));
  EXPECT_THROW(mgr.SaveRecord(RecordOf(0, 1)), std::runtime_error);
  EXPECT_FALSE(mgr.SaveRecord(RecordOf(0, 1)));
  mgr.Save(model, NumberedState(1));
  EXPECT_TRUE(mgr.SaveRecord(RecordOf(1, 1)));
  EXPECT_EQ(Kinds(mgr), "SSR");
  RemoveGenerations(path);
}

TEST(CheckpointManager, RetentionCountsSnapshotsAndKeepsTheirRecords) {
  const std::string path = TempPath("mgr_record_retain.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  nn::CheckpointManager mgr({path, /*retain=*/2});
  mgr.Save(model, NumberedState(0));                 // g0
  ASSERT_TRUE(mgr.SaveRecord(RecordOf(100, 1)));     // g1
  mgr.Save(model, NumberedState(1));                 // g2
  ASSERT_TRUE(mgr.SaveRecord(RecordOf(101, 1)));     // g3
  ASSERT_TRUE(mgr.SaveRecord(RecordOf(102, 1)));     // g4
  EXPECT_EQ(mgr.generation_count(), 5);
  mgr.Save(model, NumberedState(2));                 // g5: prunes g0, g1
  EXPECT_EQ(mgr.generation_count(), 4);
  EXPECT_TRUE(ReadFileBytes(mgr.GenerationPath(0)).empty());
  EXPECT_TRUE(ReadFileBytes(mgr.GenerationPath(1)).empty());
  EXPECT_EQ(Kinds(mgr), "SRRS");
  // A fresh incarnation's scan tells records from snapshots.
  nn::CheckpointManager rescanned({path, /*retain=*/2});
  rescanned.ScanAndSweep();
  rescanned.Save(model, NumberedState(3));           // g6: prunes g2..g4
  EXPECT_EQ(rescanned.generation_count(), 2);
  EXPECT_EQ(Kinds(rescanned), "SS");
  RemoveGenerations(path);
}

TEST(CheckpointManager, LoadReturnsTheRecordChainAfterTheSnapshot) {
  const std::string path = TempPath("mgr_record_chain.sckpt");
  RemoveGenerations(path);
  auto model = train::BuildMlp(Spec(), 7);
  {
    nn::CheckpointManager mgr({path, /*retain=*/2});
    mgr.Save(model, NumberedState(0));              // next_step 100
    ASSERT_TRUE(mgr.SaveRecord(RecordOf(100, 2)));  // steps 100, 101
    ASSERT_TRUE(mgr.SaveRecord(RecordOf(102, 1)));
    ASSERT_TRUE(mgr.SaveRecord(RecordOf(103, 1)));
  }
  const auto load = [&](std::vector<nn::StepRecord>* records, int fallbacks) {
    nn::CheckpointManager victim({path, /*retain=*/2});
    auto restored = train::BuildMlp(Spec(), 8);
    nn::ServerState state;
    std::string error;
    ASSERT_TRUE(victim.Load(restored, &state, &error, records)) << error;
    EXPECT_EQ(state.next_step, 100u);
    EXPECT_EQ(victim.loaded_path(), victim.GenerationPath(0));
    EXPECT_EQ(victim.fallbacks(), fallbacks);
  };
  std::vector<nn::StepRecord> records;
  load(&records, 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].steps.size(), 2u);
  EXPECT_EQ(records[2].steps[0].step, 103u);

  // A corrupt record ends the chain there and counts as a fallback.
  nn::CheckpointManager names({path, /*retain=*/2});
  const std::string g2 = names.GenerationPath(2);
  const std::string pristine = ReadFileBytes(g2);
  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x01;
  WriteFileBytes(g2, corrupt);
  load(&records, 1);
  EXPECT_EQ(records.size(), 1u);

  // So does a record that does not continue at the step the chain is at.
  SaveStepRecord(RecordOf(105, 1), g2);
  load(&records, 1);
  EXPECT_EQ(records.size(), 1u);

  // A newer snapshot that fails to load is passed over: the records after
  // it still continue the older snapshot's chain.
  WriteFileBytes(g2, pristine);
  {
    nn::CheckpointManager mgr({path, /*retain=*/4});
    mgr.ScanAndSweep();
    mgr.Save(model, NumberedState(1));              // g4, then torn below
    ASSERT_TRUE(mgr.SaveRecord(RecordOf(104, 1)));  // g5
  }
  WriteFileBytes(names.GenerationPath(4), "3LCS");
  load(&records, 1);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[3].steps[0].step, 104u);
  RemoveGenerations(path);
}

}  // namespace
}  // namespace threelc
