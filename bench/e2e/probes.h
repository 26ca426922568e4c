// Layer probes for bench_e2e: decorators that time the runtime's calls
// into the compress and util layers through their public interfaces only,
// so the benchmark measures the unmodified program from outside.
//
// Each probe instance is used by exactly one thread (a worker's codec, the
// server's codec, the server's checkpoint filesystem) and read by the main
// thread only after that thread has been joined, so none of them locks.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "util/fs.h"

namespace threelc::bench {

// Milliseconds on the steady clock since the first call (made at the top
// of main, so every stamp in a session shares one origin).
double NowMs();

// Restrict the calling thread to `cpu`; a negative cpu leaves it free.
void PinToCpu(int cpu);

enum class SpanKind : std::uint8_t {
  kEncode,
  kDecode,
  kFsOpen,
  kFsWrite,
  kFsFsync,
  kFsClose,
  kFsRename,
  kFsUnlink,
  kFsList,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  double t0 = 0.0;  // NowMs() at entry
  double t1 = 0.0;  // NowMs() at exit
  std::int64_t step = -1;
  std::uint64_t bytes = 0;     // encode: payload bytes; fs write: bytes
  std::uint64_t elements = 0;  // encode: tensor elements
  SpanKind kind = SpanKind::kEncode;
};

// Compressor decorator. name() is the wrapped codec's, so the plan hash
// and handshake are unchanged. The step of a call is derived from the call
// count: the runtime makes a fixed number of codec calls per step per role
// (one Encode per compressed tensor on a worker; one Decode per compressed
// tensor per worker, then one Encode per compressed tensor on the server).
//
// Untraced (spans == false) the probe records exactly one stamp per step,
// at entry to the step's first Encode. Traced, it also keeps one Span per
// Encode and Decode.
class CodecProbe : public compress::Compressor {
 public:
  CodecProbe(std::shared_ptr<const compress::Compressor> inner, bool spans,
             std::int64_t steps, int encodes_per_step, int decodes_per_step);

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<compress::Context> MakeContext(
      const compress::Shape& shape) const override {
    return inner_->MakeContext(shape);
  }
  void Decode(compress::ByteReader& in,
              compress::Tensor& out) const override;
  bool lossy() const override { return inner_->lossy(); }

  // NowMs() at entry to each step's first Encode; -1 for steps never run.
  const std::vector<double>& step_starts() const { return step_starts_; }
  const std::vector<Span>& spans() const { return spans_; }
  // Step of the most recent Encode (-1 before the first).
  std::int64_t encode_step() const {
    return encodes_ == 0 ? -1 : (encodes_ - 1) / encodes_per_step_;
  }

 protected:
  void EncodeImpl(const compress::Tensor& in, compress::Context& ctx,
                  compress::ByteBuffer& out,
                  compress::EncodeStats* stats) const override;

 private:
  std::shared_ptr<const compress::Compressor> inner_;
  bool record_spans_;
  std::int64_t encodes_per_step_;
  std::int64_t decodes_per_step_;
  mutable std::int64_t encodes_ = 0;
  mutable std::int64_t decodes_ = 0;
  mutable std::vector<double> step_starts_;
  mutable std::vector<Span> spans_;
};

// util::Fs decorator over the real filesystem for the server's checkpoint
// writes. Traced, every call becomes a Span tagged with the server step
// whose generation it writes (the step of the server codec's latest
// Encode: the write-ahead checkpoint follows the pull encode).
class FsProbe : public util::Fs {
 public:
  FsProbe(bool spans, const CodecProbe& server_codec);

  int Open(const std::string& path, int flags, mode_t mode) override;
  ssize_t Write(int fd, const void* data, std::size_t n) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const std::string& from, const std::string& to) override;
  int Unlink(const std::string& path) override;
  bool List(const std::string& dir, std::vector<std::string>* names) override;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void Record(SpanKind kind, double t0, std::uint64_t bytes);

  bool record_spans_;
  const CodecProbe& server_codec_;
  util::Fs& real_;
  std::vector<Span> spans_;
};

}  // namespace threelc::bench
