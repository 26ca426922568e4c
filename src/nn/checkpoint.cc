#include "nn/checkpoint.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <sstream>
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

// Stream wrappers that fold every byte written/read after the version
// field into a running CRC32C, so the trailer covers the whole body.
// Writes accumulate the complete blob in memory (checkpoints here are
// small — a model plus bounded state) so the container path can compress
// it as one block; the blob then goes to disk through an
// AtomicFileWriter (temp + fsync + rename), so an exception or crash at
// any point leaves the previous checkpoint intact.
struct CrcWriter {
  util::ByteBuffer& out;
  std::uint32_t crc = 0;

  void Write(const void* data, std::size_t n) {
    if (n == 0) return;
    out.Append(data, n);
    crc = util::Crc32cExtend(crc, data, n);
  }
  template <typename T>
  void WriteScalar(T v) {
    Write(&v, sizeof(T));
  }
};

struct CrcReader {
  std::istream& in;
  std::uint32_t crc = 0;

  void Read(void* data, std::size_t n) {
    if (n == 0) return;
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (!in) throw std::runtime_error("checkpoint: unexpected end of file");
    crc = util::Crc32cExtend(crc, data, n);
  }
  template <typename T>
  T ReadScalar() {
    T v;
    Read(&v, sizeof(T));
    return v;
  }
};

template <typename T>
T ReadScalarRaw(std::istream& in) {
  T v;
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("checkpoint: unexpected end of file");
  return v;
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
std::vector<std::uint8_t> ReadCheckpointBytes(const std::string& path,
                                              const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (bytes.size() < sizeof(kContainerMagic) ||
      std::memcmp(bytes.data(), kContainerMagic,
                  sizeof(kContainerMagic)) != 0) {
    return bytes;  // bare (pre-container) checkpoint
  }
  try {
    util::ByteReader reader(util::ByteSpan(bytes.data(), bytes.size()));
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
    return std::vector<std::uint8_t>(decoded.data(),
                                     decoded.data() + decoded.size());
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(what) +
                             ": bad compressed container in " + path + ": " +
                             e.what());
  }
}

// In-memory istream over the (possibly unwrapped) checkpoint bytes, so
// one parser serves bare files and container contents alike.
std::istringstream MemoryStream(const std::vector<std::uint8_t>& bytes) {
  return std::istringstream(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
      std::ios::binary);
}

void WriteTensorSection(CrcWriter& body, Model& model) {
  auto tensors = CollectTensors(model);
  body.WriteScalar<std::uint32_t>(static_cast<std::uint32_t>(tensors.size()));
  for (auto& [name, tensor] : tensors) {
    body.WriteScalar<std::uint32_t>(static_cast<std::uint32_t>(name.size()));
    body.Write(name.data(), name.size());
    const auto& dims = tensor->shape().dims();
    body.WriteScalar<std::uint32_t>(static_cast<std::uint32_t>(dims.size()));
    for (auto d : dims) body.WriteScalar<std::int64_t>(d);
    body.Write(tensor->data(), tensor->byte_size());
  }
}

void ReadTensorSection(CrcReader& body, Model& model) {
  auto tensors = CollectTensors(model);
  const auto count = body.ReadScalar<std::uint32_t>();
  if (count != tensors.size()) {
    throw std::runtime_error("checkpoint: tensor count mismatch");
  }
  for (auto& [name, tensor] : tensors) {
    const auto name_len = body.ReadScalar<std::uint32_t>();
    std::string stored_name(name_len, '\0');
    body.Read(stored_name.data(), name_len);
    if (stored_name != name) {
      throw std::runtime_error("checkpoint: tensor name mismatch: expected " +
                               name + ", found " + stored_name);
    }
    const auto rank = body.ReadScalar<std::uint32_t>();
    std::vector<std::int64_t> dims(rank);
    for (auto& d : dims) d = body.ReadScalar<std::int64_t>();
    if (tensor::Shape(dims) != tensor->shape()) {
      throw std::runtime_error("checkpoint: shape mismatch for " + name);
    }
    body.Read(tensor->data(), tensor->byte_size());
  }
}

void WriteStateSection(CrcWriter& body, const TrainState& state) {
  body.WriteScalar<std::uint64_t>(state.next_step);
  body.WriteScalar<std::uint32_t>(
      static_cast<std::uint32_t>(state.codec_state.size()));
  body.Write(state.codec_state.data(), state.codec_state.size());
  body.WriteScalar<std::uint32_t>(
      static_cast<std::uint32_t>(state.sampler_state.size()));
  body.Write(state.sampler_state.data(), state.sampler_state.size());
}

void ReadStateSection(CrcReader& body, TrainState* state) {
  state->next_step = body.ReadScalar<std::uint64_t>();
  state->codec_state.resize(body.ReadScalar<std::uint32_t>());
  body.Read(state->codec_state.data(), state->codec_state.size());
  state->sampler_state.resize(body.ReadScalar<std::uint32_t>());
  body.Read(state->sampler_state.data(), state->sampler_state.size());
}

void CheckVersion(std::uint32_t version, const std::string& path) {
  if (version < kVersionModel || version > kVersionTrainState) {
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version) + " in " + path);
  }
}

// Shared load path: restores tensors, fills *state from a v3 section when
// requested (require_state), otherwise validates and discards it, and
// verifies the CRC trailer.
void LoadImpl(Model& model, TrainState* state, bool require_state,
              const std::string& path) {
  const std::vector<std::uint8_t> bytes =
      ReadCheckpointBytes(path, "checkpoint");
  std::istringstream in = MemoryStream(bytes);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("checkpoint: bad magic in " + path);
  }
  const auto version = ReadScalarRaw<std::uint32_t>(in);
  CheckVersion(version, path);
  if (require_state && version < kVersionTrainState) {
    throw std::runtime_error(
        "checkpoint: " + path + " (version " + std::to_string(version) +
        ") has no training-state section; cannot resume exactly");
  }

  CrcReader body{in};
  ReadTensorSection(body, model);
  if (version >= kVersionTrainState) {
    TrainState discard;
    ReadStateSection(body, state != nullptr ? state : &discard);
  }
  const auto stored = ReadScalarRaw<std::uint32_t>(in);
  if (stored != body.crc) {
    throw std::runtime_error("checkpoint: CRC32C mismatch in " + path +
                             " (file corrupt)");
  }
}

void WriteServerStateSection(CrcWriter& body, const ServerState& state) {
  if (state.evicted.size() != state.greeted.size()) {
    throw std::runtime_error(
        "server checkpoint: evicted/greeted table size mismatch");
  }
  body.WriteScalar<std::uint64_t>(state.epoch);
  body.WriteScalar<std::uint64_t>(state.next_step);
  body.WriteScalar<std::uint32_t>(
      static_cast<std::uint32_t>(state.ps_state.size()));
  body.Write(state.ps_state.data(), state.ps_state.size());
  body.WriteScalar<std::uint32_t>(
      static_cast<std::uint32_t>(state.evicted.size()));
  body.Write(state.evicted.data(), state.evicted.size());
  body.Write(state.greeted.data(), state.greeted.size());
  body.WriteScalar<std::uint32_t>(
      static_cast<std::uint32_t>(state.replay.size()));
  for (const auto& entry : state.replay) {
    body.WriteScalar<std::uint64_t>(entry.step);
    body.WriteScalar<std::uint32_t>(
        static_cast<std::uint32_t>(entry.frames.size()));
    for (const auto& frame : entry.frames) {
      body.WriteScalar<std::uint32_t>(static_cast<std::uint32_t>(frame.size()));
      body.Write(frame.data(), frame.size());
    }
  }
}

void ReadServerStateSection(CrcReader& body, ServerState* state) {
  state->epoch = body.ReadScalar<std::uint64_t>();
  state->next_step = body.ReadScalar<std::uint64_t>();
  state->ps_state.resize(body.ReadScalar<std::uint32_t>());
  body.Read(state->ps_state.data(), state->ps_state.size());
  const auto workers = body.ReadScalar<std::uint32_t>();
  state->evicted.resize(workers);
  body.Read(state->evicted.data(), state->evicted.size());
  state->greeted.resize(workers);
  body.Read(state->greeted.data(), state->greeted.size());
  state->replay.resize(body.ReadScalar<std::uint32_t>());
  for (auto& entry : state->replay) {
    entry.step = body.ReadScalar<std::uint64_t>();
    entry.frames.resize(body.ReadScalar<std::uint32_t>());
    for (auto& frame : entry.frames) {
      frame.resize(body.ReadScalar<std::uint32_t>());
      body.Read(frame.data(), frame.size());
    }
  }
}

}  // namespace

void SaveCheckpoint(Model& model, const std::string& path,
                    const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob;
  blob.Append(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersionModel;
  blob.Append(&version, sizeof(version));

  CrcWriter body{blob};
  WriteTensorSection(body, model);
  blob.Append(&body.crc, sizeof(body.crc));
  WriteBlob(path, blob, block_codec, "checkpoint", fs);
}

void SaveCheckpointWithState(Model& model, const TrainState& state,
                             const std::string& path,
                             const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob;
  blob.Append(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersionTrainState;
  blob.Append(&version, sizeof(version));

  CrcWriter body{blob};
  WriteTensorSection(body, model);
  WriteStateSection(body, state);
  blob.Append(&body.crc, sizeof(body.crc));
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
                          const std::string& block_codec, util::Fs* fs) {
  util::ByteBuffer blob;
  blob.Append(kServerMagic, sizeof(kServerMagic));
  const std::uint32_t version = kServerVersion;
  blob.Append(&version, sizeof(version));

  CrcWriter body{blob};
  WriteTensorSection(body, model);
  WriteServerStateSection(body, state);
  blob.Append(&body.crc, sizeof(body.crc));
  WriteBlob(path, blob, block_codec, "server checkpoint", fs);
}

void LoadServerCheckpoint(Model& model, ServerState* state,
                          const std::string& path) {
  const std::vector<std::uint8_t> bytes =
      ReadCheckpointBytes(path, "server checkpoint");
  std::istringstream in = MemoryStream(bytes);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kServerMagic, sizeof(kServerMagic)) != 0) {
    throw std::runtime_error("server checkpoint: bad magic in " + path);
  }
  const auto version = ReadScalarRaw<std::uint32_t>(in);
  if (version != kServerVersion) {
    throw std::runtime_error("server checkpoint: unsupported version " +
                             std::to_string(version) + " in " + path);
  }
  CrcReader body{in};
  ReadTensorSection(body, model);
  ReadServerStateSection(body, state);
  const auto stored = ReadScalarRaw<std::uint32_t>(in);
  if (stored != body.crc) {
    throw std::runtime_error("server checkpoint: CRC32C mismatch in " + path +
                             " (file corrupt)");
  }
}

}  // namespace threelc::nn
