#include "nn/checkpoint.h"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "blockcodec/block_codec.h"
#include "util/atomic_file.h"
#include "util/byte_buffer.h"
#include "util/crc32.h"

namespace threelc::nn {

namespace {

constexpr char kMagic[4] = {'3', 'L', 'C', 'K'};
constexpr std::uint32_t kVersionModel = 2;       // tensors + CRC32C trailer
constexpr std::uint32_t kVersionTrainState = 3;  // + training-state section

// Server checkpoints: distinct magic, own version counter. The body is
// CRC-protected like a model checkpoint.
constexpr char kServerMagic[4] = {'3', 'L', 'C', 'S'};
constexpr std::uint32_t kServerVersion = 1;

// Step records (write-ahead, between server snapshots): own magic ("3LCR"
// is the wire frame's), own version counter, CRC-protected body.
constexpr char kRecordMagic[4] = {'3', 'L', 'C', 'W'};
constexpr std::uint32_t kRecordVersion = 1;

// Compressed container ("3LCZ"): an outer wrapper holding a complete
// model or server checkpoint blob run through a blockcodec. Layout:
//   magic "3LCZ" | u32 container_version | u8 codec_id | u64 raw_size
//   | u32 raw_crc32c | u32 comp_size | comp bytes (nothing after)
// Loaders accept either form: a file starting with "3LCZ" is unwrapped
// (strictly: comp_size must consume the rest of the file, the decoded
// length must equal raw_size, and the decoded bytes must match
// raw_crc32c) before the inner magic is even looked at; any other file
// is parsed as a bare checkpoint, so pre-container files keep loading.
constexpr char kContainerMagic[4] = {'3', 'L', 'C', 'Z'};
constexpr std::uint32_t kContainerVersion = 1;
constexpr std::size_t kContainerHeaderBytes = 4 + 4 + 1 + 8 + 4 + 4;
// Defense against a corrupt raw_size committing us to a huge allocation;
// far above any checkpoint this repo writes.
constexpr std::uint64_t kMaxContainerRawBytes = 1ull << 32;

// Magic + version: the bytes before the CRC-covered body.
constexpr std::size_t kHeaderBytes = 8;

struct NamedTensor {
  std::string name;
  Tensor* tensor;
};

std::vector<NamedTensor> CollectTensors(Model& model) {
  std::vector<NamedTensor> tensors;
  for (auto& p : model.Params()) tensors.push_back({p.name, p.value});
  auto buffers = model.Buffers();
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    tensors.push_back({"__buffer_" + std::to_string(i), buffers[i]});
  }
  return tensors;
}

// Every save builds the complete file in one in-memory blob (checkpoints
// here are small — a model plus bounded state — so the container path can
// compress it as one block): BeginBlob writes magic | version, the
// sections append the body in place, and EndBlob appends the CRC32C of the
// body in one pass. Clear() keeps the blob's capacity, so a caller that
// passes the same blob to every save (CheckpointManager) serializes
// without allocating once the first save has sized it.
void BeginBlob(util::ByteBuffer& blob, const char (&magic)[4],
               std::uint32_t version) {
  blob.Clear();
  blob.Append(magic, sizeof(magic));
  blob.AppendU32(version);
}

void EndBlob(util::ByteBuffer& blob) {
  blob.AppendU32(util::Crc32c(blob.data() + kHeaderBytes,
                              blob.size() - kHeaderBytes));
}

void AppendBytes(util::ByteBuffer& blob, util::ByteSpan v) {
  blob.AppendU32(static_cast<std::uint32_t>(v.size()));
  blob.Append(v.data(), v.size());
}

// Atomically write a finished checkpoint blob, optionally wrapped in the
// compressed container. `store` (or a block the codec cannot shrink —
// the skip-if-incompressible escape) writes the bare blob, byte-for-byte
// what pre-container versions wrote.
void WriteBlob(const std::string& path, const util::ByteBuffer& blob,
               const std::string& block_codec, const char* what,
               util::Fs* fs) {
  const blockcodec::BlockCodec* codec = blockcodec::Find(block_codec);
  if (codec == nullptr) {
    throw std::runtime_error(std::string(what) + ": unknown block codec '" +
                             block_codec + "' (known: " +
                             blockcodec::KnownNames() + ")");
  }
  util::AtomicFileWriter out(path, fs);
  bool wrapped = false;
  if (codec->id() != blockcodec::kStoreId) {
    util::ByteBuffer encoded;
    codec->Encode(blob.span(), encoded);
    if (encoded.size() + kContainerHeaderBytes < blob.size()) {
      util::ByteBuffer header;
      header.Append(kContainerMagic, sizeof(kContainerMagic));
      header.AppendU32(kContainerVersion);
      header.AppendU8(codec->id());
      header.AppendU64(static_cast<std::uint64_t>(blob.size()));
      header.AppendU32(util::Crc32c(blob.data(), blob.size()));
      header.AppendU32(static_cast<std::uint32_t>(encoded.size()));
      out.Write(header.data(), header.size());
      out.Write(encoded.data(), encoded.size());
      wrapped = true;
    }
  }
  if (!wrapped) out.Write(blob.data(), blob.size());
  out.Commit();
}

// Read the whole file, unwrapping (and strictly validating) the "3LCZ"
// container when present. Returns the bare checkpoint bytes.
util::ByteBuffer ReadCheckpointBytes(const std::string& path,
                                     const char* what) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  const std::streamsize size = in.tellg();
  util::ByteBuffer bytes;
  if (size > 0) {
    bytes.Resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()), size);
  }
  if (size < 0 || !in) {
    throw std::runtime_error(std::string(what) + ": cannot read " + path);
  }
  if (bytes.size() < sizeof(kContainerMagic) ||
      std::memcmp(bytes.data(), kContainerMagic,
                  sizeof(kContainerMagic)) != 0) {
    return bytes;  // bare (pre-container) checkpoint
  }
  try {
    util::ByteReader reader(bytes);
    reader.ReadSpan(sizeof(kContainerMagic));
    const std::uint32_t version = reader.ReadU32();
    if (version != kContainerVersion) {
      throw std::runtime_error("unsupported container version " +
                               std::to_string(version));
    }
    const std::uint8_t codec_id = reader.ReadU8();
    const blockcodec::BlockCodec* codec = blockcodec::FindById(codec_id);
    if (codec == nullptr) {
      throw std::runtime_error("unknown block codec id " +
                               std::to_string(static_cast<int>(codec_id)));
    }
    const std::uint64_t raw_size = reader.ReadU64();
    if (raw_size > kMaxContainerRawBytes) {
      throw std::runtime_error("declared raw size " +
                               std::to_string(raw_size) + " is implausible");
    }
    const std::uint32_t raw_crc = reader.ReadU32();
    const std::uint32_t comp_size = reader.ReadU32();
    util::ByteSpan comp = reader.ReadSpan(comp_size);
    if (!reader.AtEnd()) {
      throw std::runtime_error("trailing bytes after compressed payload");
    }
    util::ByteBuffer decoded;
    codec->Decode(comp, static_cast<std::size_t>(raw_size), decoded);
    // Cross-check both invariants independently: the decoded length must
    // equal the declared raw size AND the decoded bytes must match the
    // stored CRC. Either failing means the container lies about its
    // contents — reject rather than hand corrupt bytes to the parser.
    if (decoded.size() != raw_size) {
      throw std::runtime_error("decoded length " +
                               std::to_string(decoded.size()) +
                               " != declared raw size " +
                               std::to_string(raw_size));
    }
    if (util::Crc32c(decoded.data(), decoded.size()) != raw_crc) {
      throw std::runtime_error("decoded bytes fail the container CRC32C");
    }
    return decoded;
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(what) +
                             ": bad compressed container in " + path + ": " +
                             e.what());
  }
}

// A u32 count of records, each at least `min_record_bytes` long, refused
// when the remaining bytes cannot hold that many — so a corrupt count
// fails here instead of sizing an allocation before the CRC trailer is
// checked.
std::uint32_t ReadCount(util::ByteReader& in, std::size_t min_record_bytes,
                        const char* field) {
  const std::uint32_t count = in.ReadU32();
  if (count > in.remaining() / min_record_bytes) {
    throw std::runtime_error(std::string(field) + " " +
                             std::to_string(count) + " exceeds the " +
                             std::to_string(in.remaining()) +
                             " bytes that remain");
  }
  return count;
}

// A u32-length-prefixed byte string (the AppendBytes layout).
std::vector<std::uint8_t> ReadBytes(util::ByteReader& in, const char* field) {
  const util::ByteSpan bytes = in.ReadSpan(ReadCount(in, 1, field));
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

// Parses the bare checkpoint in `path`: `magic`, then `parse(reader,
// version)` reads the body, then the CRC32C trailer must match the body
// bytes `parse` consumed. Every failure, a truncated file included, is a
// std::runtime_error naming `path`.
template <typename Parse>
void ParseFile(const std::string& path, const char* what,
               const char (&magic)[4], Parse&& parse) {
  const util::ByteBuffer bytes = ReadCheckpointBytes(path, what);
  try {
    util::ByteReader in(bytes);
    if (std::memcmp(in.ReadSpan(sizeof(magic)).data(), magic,
                    sizeof(magic)) != 0) {
      throw std::runtime_error("bad magic");
    }
    parse(in, in.ReadU32());
    const std::size_t body_bytes = in.position() - kHeaderBytes;
    if (in.ReadU32() !=
        util::Crc32c(bytes.data() + kHeaderBytes, body_bytes)) {
      throw std::runtime_error("CRC32C mismatch (file corrupt)");
    }
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(what) + ": " + path + ": " +
                             e.what());
  }
}

void WriteTensorSection(util::ByteBuffer& blob, Model& model) {
  auto tensors = CollectTensors(model);
  blob.AppendU32(static_cast<std::uint32_t>(tensors.size()));
  for (auto& [name, tensor] : tensors) {
    blob.AppendU32(static_cast<std::uint32_t>(name.size()));
    blob.Append(name.data(), name.size());
    const auto& dims = tensor->shape().dims();
    blob.AppendU32(static_cast<std::uint32_t>(dims.size()));
    for (auto d : dims) blob.AppendScalar<std::int64_t>(d);
    blob.Append(tensor->data(), tensor->byte_size());
  }
}

void ReadTensorSection(util::ByteReader& in, Model& model) {
  auto tensors = CollectTensors(model);
  if (in.ReadU32() != tensors.size()) {
    throw std::runtime_error("tensor count mismatch");
  }
  for (auto& [name, tensor] : tensors) {
    const util::ByteSpan stored = in.ReadSpan(ReadCount(in, 1, "name_len"));
    const std::string stored_name(stored.begin(), stored.end());
    if (stored_name != name) {
      throw std::runtime_error("tensor name mismatch: expected " + name +
                               ", found " + stored_name);
    }
    std::vector<std::int64_t> dims(ReadCount(in, sizeof(std::int64_t), "rank"));
    for (auto& d : dims) d = in.ReadScalar<std::int64_t>();
    // Compared as numbers: a corrupt (say, negative) dimension must fail
    // here, not in a tensor::Shape built from it.
    if (dims != tensor->shape().dims()) {
      throw std::runtime_error("shape mismatch for " + name);
    }
    in.ReadInto(tensor->data(), tensor->byte_size());
  }
}

void WriteStateSection(util::ByteBuffer& blob, const TrainState& state) {
  blob.AppendU64(state.next_step);
  AppendBytes(blob, state.codec_state);
  AppendBytes(blob, state.sampler_state);
}

void ReadStateSection(util::ByteReader& in, TrainState* state) {
  state->next_step = in.ReadU64();
  state->codec_state = ReadBytes(in, "codec_state");
  state->sampler_state = ReadBytes(in, "sampler_state");
}

// Shared load path: restores tensors, fills *state from a v3 section when
// requested (require_state), otherwise validates and discards it, and
// verifies the CRC trailer.
void LoadImpl(Model& model, TrainState* state, bool require_state,
              const std::string& path) {
  ParseFile(path, "checkpoint", kMagic,
            [&](util::ByteReader& in, std::uint32_t version) {
              if (version < kVersionModel || version > kVersionTrainState) {
                throw std::runtime_error("unsupported version " +
                                         std::to_string(version));
              }
              if (require_state && version < kVersionTrainState) {
                throw std::runtime_error(
                    "version " + std::to_string(version) +
                    " has no training-state section; cannot resume exactly");
              }
              ReadTensorSection(in, model);
              if (version >= kVersionTrainState) {
                TrainState discard;
                ReadStateSection(in, state != nullptr ? state : &discard);
              }
            });
}

void WriteServerStateSection(util::ByteBuffer& blob, const ServerState& state) {
  if (state.evicted.size() != state.greeted.size()) {
    throw std::runtime_error(
        "server checkpoint: evicted/greeted table size mismatch");
  }
  blob.AppendU64(state.epoch);
  blob.AppendU64(state.next_step);
  if (state.write_ps_state) {
    const std::size_t length_at = blob.size();
    blob.AppendU32(0);  // patched once the length is known
    state.write_ps_state(blob);
    const auto length =
        static_cast<std::uint32_t>(blob.size() - length_at - 4);
    std::memcpy(blob.data() + length_at, &length, sizeof(length));
  } else {
    AppendBytes(blob, state.ps_state);
  }
  AppendBytes(blob, state.evicted);
  blob.Append(state.greeted.data(), state.greeted.size());
  blob.AppendU32(static_cast<std::uint32_t>(state.replay.size()));
  for (const auto& entry : state.replay) {
    blob.AppendU64(entry.step);
    blob.AppendU32(static_cast<std::uint32_t>(entry.frames.size()));
    for (const auto& frame : entry.frames) AppendBytes(blob, frame.span());
  }
}

// evicted and greeted share one u32 worker count.
void ReadTables(util::ByteReader& in, std::vector<std::uint8_t>* evicted,
                std::vector<std::uint8_t>* greeted) {
  const std::uint32_t workers = ReadCount(in, 2, "worker count");
  const util::ByteSpan e = in.ReadSpan(workers);
  const util::ByteSpan g = in.ReadSpan(workers);
  evicted->assign(e.begin(), e.end());
  greeted->assign(g.begin(), g.end());
}

void ReadServerStateSection(util::ByteReader& in, ServerState* state) {
  state->epoch = in.ReadU64();
  state->next_step = in.ReadU64();
  state->ps_state = ReadBytes(in, "ps_state");
  ReadTables(in, &state->evicted, &state->greeted);
  // Smallest replay entry: u64 step + u32 frame count; frame: u32 size.
  state->replay.resize(ReadCount(in, 12, "replay count"));
  for (auto& entry : state->replay) {
    entry.step = in.ReadU64();
    entry.frames.resize(ReadCount(in, 4, "frame count"));
    for (auto& frame : entry.frames) {
      frame.Clear();
      frame.Append(in.ReadSpan(ReadCount(in, 1, "frame size")));
    }
  }
}

}  // namespace

void SaveCheckpoint(Model& model, const std::string& path,
                    const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob;
  BeginBlob(blob, kMagic, kVersionModel);
  WriteTensorSection(blob, model);
  EndBlob(blob);
  WriteBlob(path, blob, block_codec, "checkpoint", fs);
}

void SaveCheckpointWithState(Model& model, const TrainState& state,
                             const std::string& path,
                             const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob;
  BeginBlob(blob, kMagic, kVersionTrainState);
  WriteTensorSection(blob, model);
  WriteStateSection(blob, state);
  EndBlob(blob);
  WriteBlob(path, blob, block_codec, "checkpoint", fs);
}

void LoadCheckpoint(Model& model, const std::string& path) {
  LoadImpl(model, nullptr, /*require_state=*/false, path);
}

void LoadCheckpointState(Model& model, TrainState* state,
                         const std::string& path) {
  LoadImpl(model, state, /*require_state=*/true, path);
}

void SaveServerCheckpoint(Model& model, const ServerState& state,
                          const std::string& path,
                          const std::string& block_codec, util::Fs* fs,
                          util::ByteBuffer* blob) {
  util::ByteBuffer local;
  util::ByteBuffer& out = blob != nullptr ? *blob : local;
  BeginBlob(out, kServerMagic, kServerVersion);
  WriteTensorSection(out, model);
  WriteServerStateSection(out, state);
  EndBlob(out);
  WriteBlob(path, out, block_codec, "server checkpoint", fs);
}

void LoadServerCheckpoint(Model& model, ServerState* state,
                          const std::string& path) {
  ParseFile(path, "server checkpoint", kServerMagic,
            [&](util::ByteReader& in, std::uint32_t version) {
              if (version != kServerVersion) {
                throw std::runtime_error("unsupported version " +
                                         std::to_string(version));
              }
              ReadTensorSection(in, model);
              ReadServerStateSection(in, state);
            });
}

void EncodeStepRecord(const StepRecord& record, util::ByteBuffer* blob) {
  if (record.evicted.size() != record.greeted.size()) {
    throw std::runtime_error(
        "step record: evicted/greeted table size mismatch");
  }
  BeginBlob(*blob, kRecordMagic, kRecordVersion);
  blob->AppendU64(record.epoch);
  AppendBytes(*blob, record.evicted);
  blob->Append(record.greeted.data(), record.greeted.size());
  blob->AppendU32(static_cast<std::uint32_t>(record.steps.size()));
  for (const StepRecord::Step& step : record.steps) {
    blob->AppendU64(step.step);
    blob->AppendF32(step.lr);
    blob->AppendU32(static_cast<std::uint32_t>(step.contributors.size()));
    for (const std::size_t w : step.contributors) {
      blob->AppendU32(static_cast<std::uint32_t>(w));
      blob->AppendU32(static_cast<std::uint32_t>(step.pushes[w].size()));
      for (const util::ByteBuffer& push : step.pushes[w]) {
        AppendBytes(*blob, push.span());
      }
    }
  }
  EndBlob(*blob);
}

void WriteStepRecord(const util::ByteBuffer& blob, const std::string& path,
                     util::Fs* fs) {
  WriteBlob(path, blob, "store", "step record", fs);
}

void LoadStepRecord(StepRecord* record, const std::string& path) {
  ParseFile(path, "step record", kRecordMagic,
            [&](util::ByteReader& in, std::uint32_t version) {
              if (version != kRecordVersion) {
                throw std::runtime_error("unsupported version " +
                                         std::to_string(version));
              }
              record->epoch = in.ReadU64();
              ReadTables(in, &record->evicted, &record->greeted);
              const std::size_t workers = record->evicted.size();
              // Smallest step: u64 step + f32 lr + u32 contributor count;
              // contributor: u32 id + u32 tensor count; tensor: u32 size.
              record->steps.resize(ReadCount(in, 16, "step count"));
              for (StepRecord::Step& step : record->steps) {
                step.step = in.ReadU64();
                step.lr = in.ReadF32();
                step.contributors.resize(
                    ReadCount(in, 8, "contributor count"));
                if (step.contributors.empty()) {
                  throw std::runtime_error("step " +
                                           std::to_string(step.step) +
                                           " has no contributors");
                }
                step.pushes.assign(workers, {});
                for (std::size_t i = 0; i < step.contributors.size(); ++i) {
                  const std::uint32_t w = in.ReadU32();
                  if (w >= workers ||
                      (i > 0 && w <= step.contributors[i - 1])) {
                    throw std::runtime_error(
                        "step " + std::to_string(step.step) +
                        " contributor " + std::to_string(w) +
                        " is out of range or order");
                  }
                  step.contributors[i] = w;
                  step.pushes[w].resize(ReadCount(in, 4, "tensor count"));
                  for (util::ByteBuffer& push : step.pushes[w]) {
                    push.Append(in.ReadSpan(ReadCount(in, 1, "push size")));
                  }
                }
              }
            });
}

bool IsStepRecordFile(const std::string& path) {
  char magic[sizeof(kRecordMagic)] = {};
  std::ifstream in(path, std::ios::binary);
  return in.read(magic, sizeof(magic)) &&
         std::memcmp(magic, kRecordMagic, sizeof(magic)) == 0;
}

}  // namespace threelc::nn
