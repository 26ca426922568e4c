// bench_e2e: one session of the repository benchmark (see README.md).
//
// A session trains one workload end to end in this process: the real
// rpc::RpcServer on the main thread and two rpc::RpcWorker threads over
// loopback TCP, optionally through the bench's relay (relay.h). Every
// layer is measured from outside, through the probes in probes.h, the
// relay, and a replay of captured payloads; nothing under src/ knows it is
// being measured. The session prints one JSON object on stdout, which
// run.py checks and turns into the benchmark's metrics.
//
// Usage:
//   bench_e2e --workload lan-3lc --seed 7 --steps 200 [--traced] [--relay]
//             [--state-dir DIR] [--trace-out trace.json]
//
//   --traced     record spans, insert the relay on every workload, attribute
//                each step to layers and replay captured payloads
//   --relay      route an untraced session through the relay (the WAN
//                workload always is), so its socket bytes are counted
//   --state-dir  where the durable workload creates its checkpoint dir
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "blockcodec/block_codec.h"
#include "compress/factory.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "net/bandwidth.h"
#include "nn/loss.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "probes.h"
#include "ps/plan.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "relay.h"
#include "rpc/frame.h"
#include "rpc/runtime.h"
#include "train/experiment.h"
#include "train/model_zoo.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace threelc;
using bench::NowMs;
using bench::Span;
using bench::SpanKind;

namespace {

constexpr int kWorkers = 2;
constexpr std::int64_t kBatchPerWorker = 8;
constexpr std::int64_t kWarmupSteps = 20;
// Relay capture cadence and replay repetitions (median taken).
constexpr int kCaptureEvery = 50;
constexpr int kReplayRepeats = 5;

struct Workload {
  const char* name;
  compress::CodecConfig codec;
  const char* block_codec;
  double link_bps;  // relay rate per direction per link; 0 = direct LAN
  bool durable;     // write-ahead server checkpoint every step
};

// Why each workload exists is recorded in README.md. wan-3lc pins lz+rans
// because plain rans fails to round-trip some 3LC payloads (README.md).
const Workload kWorkloads[] = {
    {"lan-3lc", compress::CodecConfig::ThreeLC(1.0f), "store", 0.0, false},
    {"lan-f32", compress::CodecConfig::Float32(), "store", 0.0, false},
    {"wan-3lc", compress::CodecConfig::ThreeLC(1.0f), "lz+rans", 10e6, false},
    {"durable-3lc", compress::CodecConfig::ThreeLC(1.0f), "store", 0.0, true},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Full precision: run.py aggregates these values and reports them unrounded.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- per-step views of the probe spans ---------------------------------------

// The calls of one kind one role made in one step: wall window and sums.
struct Window {
  double start = -1.0;
  double end = -1.0;
  double sum_ms = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t elements = 0;
  bool seen() const { return start >= 0.0; }
};

std::vector<Window> ByStep(const std::vector<Span>& spans, SpanKind kind,
                           std::int64_t steps) {
  std::vector<Window> out(static_cast<std::size_t>(steps));
  for (const Span& s : spans) {
    if (s.kind != kind || s.step < 0 || s.step >= steps) continue;
    Window& w = out[static_cast<std::size_t>(s.step)];
    if (!w.seen() || s.t0 < w.start) w.start = s.t0;
    w.end = std::max(w.end, s.t1);
    w.sum_ms += s.t1 - s.t0;
    w.bytes += s.bytes;
    w.elements += s.elements;
  }
  return out;
}

struct Mean {
  double sum = 0.0;
  std::int64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

using Layers = std::map<std::string, double>;

// Blocking-path attribution of the traced session. Each server cycle, from
// the server's first Decode of step s to that of step s+1, is split into
// consecutive segments: server decode / ps self time / server encode, then
// on the critical worker of step s+1 (the last to finish encoding it) the
// pull latency, pull decode, compute, push encode and push latency. Only
// the gaps between one role's back-to-back codec calls stay unattributed.
void Attribute(const Workload& wl, std::int64_t steps, std::int64_t warm,
               const std::vector<const bench::CodecProbe*>& workers,
               const bench::CodecProbe& server, const bench::FsProbe& fs,
               double mean_period_ms, Layers& out) {
  std::vector<std::vector<Window>> enc, dec;
  for (const bench::CodecProbe* w : workers) {
    enc.push_back(ByStep(w->spans(), SpanKind::kEncode, steps));
    dec.push_back(ByStep(w->spans(), SpanKind::kDecode, steps));
  }
  const std::vector<Window> sdec =
      ByStep(server.spans(), SpanKind::kDecode, steps);
  const std::vector<Window> senc =
      ByStep(server.spans(), SpanKind::kEncode, steps);

  Mean compute, push_enc, pull_dec, srv_dec, srv_enc, ps_self, push_lat,
      pull_lat, skew, period, attributed, ckpt, fs_write, fs_fsync, fs_bytes;
  double push_bits = 0, push_elems = 0, pull_bits = 0, pull_elems = 0;
  std::vector<Window> fs_win(static_cast<std::size_t>(steps));
  std::vector<double> fs_write_ms(static_cast<std::size_t>(steps), 0.0);
  std::vector<double> fs_fsync_ms(static_cast<std::size_t>(steps), 0.0);
  for (const Span& s : fs.spans()) {
    if (s.step < 0 || s.step >= steps) continue;
    const auto i = static_cast<std::size_t>(s.step);
    Window& w = fs_win[i];
    if (!w.seen()) w.start = s.t0;
    w.end = std::max(w.end, s.t1);
    w.bytes += s.bytes;
    if (s.kind == SpanKind::kFsWrite) fs_write_ms[i] += s.t1 - s.t0;
    if (s.kind == SpanKind::kFsFsync) fs_fsync_ms[i] += s.t1 - s.t0;
  }

  for (std::int64_t s = warm; s + 1 < steps; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const std::size_t n = i + 1;
    std::size_t crit = 0;
    for (std::size_t w = 1; w < enc.size(); ++w) {
      if (enc[w][n].end > enc[crit][n].end) crit = w;
    }
    const Window& e = enc[crit][n];
    const Window& d = dec[crit][i];
    const double self =
        senc[i].end - sdec[i].start - sdec[i].sum_ms - senc[i].sum_ms;
    const double seg[] = {sdec[i].sum_ms,        self,
                          senc[i].sum_ms,        d.start - senc[i].end,
                          d.sum_ms,              e.start - d.end,
                          e.sum_ms,              sdec[n].start - e.end};
    double total = 0.0;
    for (double v : seg) total += v;
    srv_dec.Add(seg[0]);
    ps_self.Add(seg[1]);
    srv_enc.Add(seg[2]);
    pull_lat.Add(seg[3]);
    pull_dec.Add(seg[4]);
    compute.Add(seg[5]);
    push_enc.Add(seg[6]);
    push_lat.Add(seg[7]);
    attributed.Add(total);
    period.Add(sdec[n].start - sdec[i].start);
    skew.Add(std::fabs(enc[0][n].end - enc[enc.size() - 1][n].end));
    for (const auto& we : enc) {
      push_bits += 8.0 * static_cast<double>(we[i].bytes);
      push_elems += static_cast<double>(we[i].elements);
    }
    pull_bits += 8.0 * static_cast<double>(senc[i].bytes);
    pull_elems += static_cast<double>(senc[i].elements);
    if (fs_win[i].seen()) ckpt.Add(fs_win[i].end - senc[i].end);
    fs_write.Add(fs_write_ms[i]);
    fs_fsync.Add(fs_fsync_ms[i]);
    fs_bytes.Add(static_cast<double>(fs_win[i].bytes));
  }

  out["nn.compute_ms"] = compute.value();
  out["compress.push_encode_ms"] = push_enc.value();
  out["compress.pull_decode_ms"] = pull_dec.value();
  out["compress.server_decode_ms"] = srv_dec.value();
  out["compress.server_encode_ms"] = srv_enc.value();
  out["compress.push_bits_per_value"] = push_bits / push_elems;
  out["compress.pull_bits_per_value"] = pull_bits / pull_elems;
  out["ps.server_self_ms"] = ps_self.value();
  out["rpc.push_latency_ms"] = push_lat.value();
  out["rpc.pull_latency_ms"] = pull_lat.value();
  out["rpc.barrier_skew_ms"] = skew.value();
  out["nn.checkpoint_ms"] = ckpt.value();
  out["util.fs_write_ms"] = fs_write.value();
  out["util.fs_fsync_ms"] = fs_fsync.value();
  out["util.fs_bytes_per_step"] = fs_bytes.value();
  out["trace.unattributed_frac"] = 1.0 - attributed.value() / period.value();

  // The analytic time model (src/net) fed this run's measured compute,
  // codec time and one worker's bytes, at the workload's link rate (LAN:
  // unlimited, so the model sees no wire time at all).
  const net::NetworkModel model(
      net::LinkConfig{wl.link_bps > 0 ? wl.link_bps : 1e18, 0.0});
  const auto per_worker = [&](const char* key) {
    return static_cast<std::size_t>(out[key] / kWorkers);
  };
  const double model_ms =
      1e3 * model.StepSeconds((compute.value() + ps_self.value()) / 1e3,
                              (push_enc.value() + pull_dec.value() +
                               srv_dec.value() + srv_enc.value()) / 1e3,
                              per_worker("link.push_bytes_per_step"),
                              per_worker("link.pull_bytes_per_step"));
  out["net.model_step_ms"] = model_ms;
  out["net.model_residual_frac"] = (mean_period_ms - model_ms) / mean_period_ms;
}

// The link as the relay saw it: counts, and per step the window from the
// first byte of its PUSH (or PULL) frames in to their last byte out.
void LinkMetrics(const Workload& wl, std::int64_t steps, std::int64_t warm,
                 const bench::Relay& relay, double mean_period_ms,
                 Layers& out) {
  Mean push_bytes, pull_bytes, frames, push_wire, pull_wire;
  double moved_bits = 0.0, busy_ms = 0.0;
  for (std::int64_t s = warm; s + 1 < steps; ++s) {
    const auto i = static_cast<std::size_t>(s);
    double bytes[2] = {0, 0}, first[2] = {-1, -1}, last[2] = {-1, -1};
    double step_frames = 0;
    for (const auto& link : relay.links()) {
      for (int d = 0; d < 2; ++d) {
        const bench::PipeStep& ps = link[static_cast<std::size_t>(d)].steps[i];
        step_frames += static_cast<double>(ps.frames);
        if (ps.first_in_ms < 0.0 || ps.last_out_ms < 0.0) continue;
        bytes[d] += static_cast<double>(ps.bytes);
        first[d] = first[d] < 0 ? ps.first_in_ms
                                : std::min(first[d], ps.first_in_ms);
        last[d] = std::max(last[d], ps.last_out_ms);
        moved_bits += 8.0 * static_cast<double>(ps.bytes);
        busy_ms += ps.last_out_ms - ps.first_in_ms;
      }
    }
    push_bytes.Add(bytes[0]);
    pull_bytes.Add(bytes[1]);
    frames.Add(step_frames);
    push_wire.Add(last[0] - first[0]);
    pull_wire.Add(last[1] - first[1]);
  }
  out["link.push_bytes_per_step"] = push_bytes.value();
  out["link.pull_bytes_per_step"] = pull_bytes.value();
  out["link.frames_per_step"] = frames.value();
  out["link.push_wire_ms"] = push_wire.value();
  out["link.pull_wire_ms"] = pull_wire.value();
  out["link.achieved_mbps"] = busy_ms > 0 ? moved_bits / busy_ms / 1e3 : 0.0;
  // Share of the links' capacity a step uses: only a shaped link has one.
  const double pipes = 2.0 * static_cast<double>(relay.links().size());
  const double capacity_ms =
      pipes * mean_period_ms * static_cast<double>(push_bytes.n);
  out["link.busy_frac"] =
      wl.link_bps > 0 ? moved_bits / wl.link_bps * 1e3 / capacity_ms : 0.0;
}

// Replays the frames the relay captured (every kCaptureEvery-th step)
// through the frame and block-codec functions the runtime calls, timing
// one step's worth of each: the server parses every PUSH, each worker
// parses every PULL; PUSH frames are built once per worker, PULL frames
// once per step (shared fan-out); likewise for the block stage.
void Replay(const Workload& wl, const bench::Relay& relay, Layers& out,
            std::vector<std::string>& errors) {
  const blockcodec::BlockCodec* codec = blockcodec::Find(wl.block_codec);
  const bool block = codec->id() != blockcodec::kStoreId;
  std::set<std::int64_t> steps;
  for (const auto& link : relay.links()) {
    for (const auto& pipe : link) {
      for (const auto& [step, bytes] : pipe.captured) steps.insert(step);
    }
  }
  Mean parse_ms, encode_ms, block_enc_ms, block_dec_ms;
  double stage1 = 0.0, envelope = 0.0;
  for (const std::int64_t step : steps) {
    // Inputs: each pipe's captured stream for this step.
    std::vector<const std::vector<std::uint8_t>*> up, down;
    for (const auto& link : relay.links()) {
      auto it = link[0].captured.find(step);
      if (it != link[0].captured.end()) up.push_back(&it->second);
      it = link[1].captured.find(step);
      if (it != link[1].captured.end()) down.push_back(&it->second);
    }
    std::vector<double> parse, enc, benc, bdec;
    std::vector<rpc::Frame> push_frames, pull_frames;
    for (int rep = 0; rep < kReplayRepeats; ++rep) {
      std::vector<rpc::Frame> pushes, pulls;
      const double t0 = NowMs();
      for (const auto* bytes : up) {
        rpc::FrameParser parser;
        if (!parser.Feed(util::ByteSpan(bytes->data(), bytes->size()),
                         &pushes)) {
          errors.push_back("replay: captured PUSH stream does not parse");
        }
      }
      for (std::size_t l = 0; l < down.size(); ++l) {
        rpc::FrameParser parser;
        std::vector<rpc::Frame> frames;
        if (!parser.Feed(util::ByteSpan(down[l]->data(), down[l]->size()),
                         &frames)) {
          errors.push_back("replay: captured PULL stream does not parse");
        }
        if (l == 0) pulls = std::move(frames);
      }
      parse.push_back(NowMs() - t0);
      push_frames = std::move(pushes);
      pull_frames = std::move(pulls);
    }
    std::vector<const rpc::Frame*> built;  // frames the runtime encodes
    for (const rpc::Frame& f : push_frames) built.push_back(&f);
    for (const rpc::Frame& f : pull_frames) built.push_back(&f);
    for (int rep = 0; rep < kReplayRepeats; ++rep) {
      util::ByteBuffer sink;
      const double t0 = NowMs();
      for (const rpc::Frame* f : built) {
        sink.Clear();
        rpc::EncodeFrame(f->header, f->payload.span(), sink);
      }
      enc.push_back(NowMs() - t0);
    }
    if (block) {
      // Decode: the server unwraps every PUSH, each worker every PULL.
      std::vector<util::ByteBuffer> raw(built.size());
      for (int rep = 0; rep < kReplayRepeats; ++rep) {
        const double t0 = NowMs();
        for (std::size_t k = 0; k < built.size(); ++k) {
          const bool is_pull = k >= push_frames.size();
          const std::size_t times = is_pull ? down.size() : 1;
          for (std::size_t r = 0; r < times; ++r) {
            raw[k].Clear();
            blockcodec::DecodeBlock(built[k]->payload.span(),
                                    rpc::kMaxPayloadBytes, raw[k]);
          }
        }
        bdec.push_back(NowMs() - t0);
      }
      for (int rep = 0; rep < kReplayRepeats; ++rep) {
        util::ByteBuffer sink;
        const double t0 = NowMs();
        for (std::size_t k = 0; k < built.size(); ++k) {
          sink.Clear();
          blockcodec::EncodeBlock(*codec, raw[k].span(), sink);
          if (rep == 0 && (sink.size() != built[k]->payload.size() ||
                           std::memcmp(sink.data(), built[k]->payload.data(),
                                       sink.size()) != 0)) {
            errors.push_back("replay: re-encoded block differs from the wire");
          }
        }
        benc.push_back(NowMs() - t0);
      }
      for (std::size_t k = 0; k < built.size(); ++k) {
        stage1 += static_cast<double>(raw[k].size());
        envelope += static_cast<double>(built[k]->payload.size());
      }
    }
    parse_ms.Add(Median(parse));
    encode_ms.Add(Median(enc));
    block_enc_ms.Add(Median(benc));
    block_dec_ms.Add(Median(bdec));
  }
  out["rpc.frame_parse_ms"] = parse_ms.value();
  out["rpc.frame_encode_ms"] = encode_ms.value();
  // A store workload bypasses the block stage: no work, ratio 1.
  out["blockcodec.encode_ms"] = block_enc_ms.value();
  out["blockcodec.decode_ms"] = block_dec_ms.value();
  out["blockcodec.ratio"] = envelope > 0 ? stage1 / envelope : 1.0;
}

// Chrome-trace JSON of the traced session, through the repository's own
// tracer: one track per role and one per link direction.
void WriteChromeTrace(const std::string& path,
                      const std::vector<const bench::CodecProbe*>& workers,
                      const bench::CodecProbe& server,
                      const bench::FsProbe& fs, const bench::Relay& relay) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  auto span = [&](const char* name, int track, double t0, double t1,
                  std::int64_t step) {
    tracer.RecordSpan(name, track, t0 * 1e3, (t1 - t0) * 1e3, step);
  };
  tracer.SetTrackName(0, "server");
  for (const Span& s : server.spans()) {
    span(s.kind == SpanKind::kEncode ? "server_encode" : "server_decode", 0,
         s.t0, s.t1, s.step);
  }
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const int track = static_cast<int>(1 + w);
    tracer.SetTrackName(track, "worker " + std::to_string(w));
    for (const Span& s : workers[w]->spans()) {
      span(s.kind == SpanKind::kEncode ? "push_encode" : "pull_decode", track,
           s.t0, s.t1, s.step);
    }
  }
  const int fs_track = static_cast<int>(1 + workers.size());
  tracer.SetTrackName(fs_track, "checkpoint fs");
  for (const Span& s : fs.spans()) {
    span(bench::SpanKindName(s.kind), fs_track, s.t0, s.t1, s.step);
  }
  for (std::size_t l = 0; l < relay.links().size(); ++l) {
    for (std::size_t d = 0; d < 2; ++d) {
      const int track = fs_track + 1 + static_cast<int>(2 * l + d);
      tracer.SetTrackName(track, "link " + std::to_string(l) +
                                     (d == 0 ? " push" : " pull"));
      const auto& steps = relay.links()[l][d].steps;
      for (std::size_t s = 0; s < steps.size(); ++s) {
        if (steps[s].first_in_ms < 0 || steps[s].last_out_ms < 0) continue;
        span(d == 0 ? "push_wire" : "pull_wire", track, steps[s].first_in_ms,
             steps[s].last_out_ms, static_cast<std::int64_t>(s));
      }
    }
  }
  std::ofstream out(path);
  tracer.WriteChromeTrace(out);
}

// FNV-1a 64 over every parameter value, in plan order.
std::uint64_t HashParams(nn::Model& model) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nn::ParamRef& p : model.Params()) {
    const auto* b = reinterpret_cast<const std::uint8_t*>(p.value->data());
    for (std::size_t i = 0; i < p.value->byte_size(); ++i) {
      h = (h ^ b[i]) * 1099511628211ULL;
    }
  }
  return h;
}

bool SameParams(nn::Model& a, nn::Model& b) {
  const std::vector<nn::ParamRef> pa = a.Params(), pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].value->byte_size() != pb[i].value->byte_size() ||
        std::memcmp(pa[i].value->data(), pb[i].value->data(),
                    pa[i].value->byte_size()) != 0) {
      return false;
    }
  }
  return true;
}

// One CPU per role (server, each worker, relay) when the process may use
// that many, as if each ran on its own machine. This also keeps a worker
// that the relay wakes from preempting the relay's pacing thread on the
// relay's own CPU, which otherwise stalls the other link's transfer.
std::vector<int> RoleCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.size() < static_cast<std::size_t>(kWorkers + 2)) {
    cpus.assign(kWorkers + 2, -1);
  }
  return cpus;
}

// The durable workload's checkpoint directory, removed with its contents
// however the session ends.
struct TempDir {
  std::filesystem::path path;
  ~TempDir() {
    std::error_code ignored;
    if (!path.empty()) std::filesystem::remove_all(path, ignored);
  }
};

struct WorkerSide {
  nn::Model model;
  std::shared_ptr<bench::CodecProbe> codec;
  std::unique_ptr<ps::Worker> ps_worker;
  std::unique_ptr<rpc::RpcWorker> rpc;
  bool ok = false;
};

int Run(const util::Flags& flags) {
  const std::string name = flags.GetString("workload", "");
  const Workload* wl = FindWorkload(name);
  if (wl == nullptr) {
    std::cerr << "bench_e2e: unknown --workload '" << name << "'\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const std::int64_t steps = flags.GetInt("steps", 200);
  const bool traced = flags.GetBool("traced", false);
  const bool use_relay =
      traced || wl->link_bps > 0 || flags.GetBool("relay", false);
  const std::string state_dir = flags.GetString("state-dir", ".");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::int64_t warm = std::min(kWarmupSteps, steps / 3);
  if (steps < 4) {
    std::cerr << "bench_e2e: --steps must be at least 4\n";
    return 2;
  }

  // Inputs: the seed derives the model initialisation and the workers'
  // sampler seeds. The dataset is DefaultExperiment's fixed synthetic task,
  // part of the workload like a benchmark's fixed corpus: drawing a new
  // teacher per seed moved test accuracy by ~20% between seeds, more than
  // any bound could tolerate.
  train::ExperimentConfig config = train::DefaultExperiment();
  util::Rng seeder(seed);
  config.model_seed = seeder.Next();
  config.model.hidden = {512, 512};
  train::TrainerConfig& tc = config.trainer;
  tc.seed = seeder.Next();
  tc.num_workers = kWorkers;
  tc.batch_size = kBatchPerWorker;
  tc.total_steps = steps;
  tc.codec = wl->codec;
  const data::SyntheticData data = data::MakeTeacherDataset(config.data);
  // Set-up is timed from here: generating the benchmark's inputs is not
  // the system's work (it is also ~350 ms of CPU-bound RNG whose noise
  // would swamp everything the system does before its first step).
  const double inputs_ready_ms = NowMs();

  // Server side.
  nn::Model server_model = train::BuildMlp(config.model, config.model_seed);
  const ps::TensorPlan plan =
      ps::TensorPlan::FromParams(server_model.Params(), tc.min_compress_elems);
  int compressed = 0;
  for (const ps::PlanEntry& e : plan.entries()) compressed += e.compressed;
  auto make_codec = [&](int encodes, int decodes) {
    return std::make_shared<bench::CodecProbe>(
        std::shared_ptr<const compress::Compressor>(
            compress::MakeCompressor(tc.codec)),
        traced, steps, encodes, decodes);
  };
  const auto server_codec = make_codec(compressed, kWorkers * compressed);
  ps::ParameterServer ps_server(server_model, plan, server_codec, tc.optimizer);
  bench::FsProbe fs(traced, *server_codec);

  TempDir ckpt_dir;
  rpc::RpcServerConfig sc;
  sc.num_workers = kWorkers;
  sc.total_steps = steps;
  sc.lr_max = tc.lr_max;
  sc.lr_min = tc.lr_min;
  sc.handshake_timeout_ms = 30000;
  sc.step_timeout_ms = 30000;
  sc.shutdown_timeout_ms = 30000;
  sc.block_codec = wl->block_codec;
  if (wl->durable) {
    std::string tmpl = state_dir + "/ckpt-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::cerr << "bench_e2e: cannot create a checkpoint dir in " << state_dir
                << ": " << std::strerror(errno) << "\n";
      return 1;
    }
    ckpt_dir.path = tmpl;
    sc.checkpoint_path = (ckpt_dir.path / "server.ckpt").string();
    sc.checkpoint_every = 1;
    sc.checkpoint_retain = 2;
    sc.fs = &fs;
  }
  rpc::RpcServer server(sc, ps_server, server_codec->name());
  std::string error;
  if (!server.Listen(&error)) {
    std::cerr << "bench_e2e: listen failed: " << error << "\n";
    return 1;
  }
  std::unique_ptr<bench::Relay> relay;
  const std::vector<int> cpus = RoleCpus();  // server, workers..., relay
  if (use_relay) {
    bench::RelayOptions ro;
    ro.server_port = server.port();
    ro.rate_bps = wl->link_bps;
    ro.steps = steps;
    ro.capture_every = traced ? kCaptureEvery : 0;
    ro.cpu = cpus[kWorkers + 1];
    relay = std::make_unique<bench::Relay>(ro);
    if (!relay->Start(&error)) {
      std::cerr << "bench_e2e: relay failed: " << error << "\n";
      return 1;
    }
  }

  // Workers, seeded as DistributedTrainer seeds worker w's sampler.
  std::vector<std::unique_ptr<WorkerSide>> workers;
  util::Rng sampler_seeder(tc.seed);
  for (int w = 0; w < kWorkers; ++w) {
    auto side = std::make_unique<WorkerSide>();
    side->model = train::BuildMlp(config.model, config.model_seed);
    side->codec = make_codec(compressed, compressed);
    side->ps_worker =
        std::make_unique<ps::Worker>(w, side->model, plan, side->codec);
    rpc::RpcWorkerConfig wc;
    wc.port = relay ? relay->port() : server.port();
    wc.worker_id = w;
    wc.batch_size = tc.batch_size;
    wc.handshake_timeout_ms = 30000;
    wc.pull_timeout_ms = 30000;
    wc.io_timeout_ms = 30000;
    wc.block_codec = wl->block_codec;
    side->rpc = std::make_unique<rpc::RpcWorker>(
        wc, *side->ps_worker, plan, side->codec->name(),
        data::Sampler(data.train, sampler_seeder.Fork(), tc.augment_noise));
    workers.push_back(std::move(side));
  }
  std::vector<std::jthread> threads;  // joined on every way out
  for (std::size_t w = 0; w < workers.size(); ++w) {
    WorkerSide* s = workers[w].get();
    const int cpu = cpus[1 + w];
    threads.emplace_back([s, cpu] {
      bench::PinToCpu(cpu);
      s->ok = s->rpc->Run();
    });
  }
  bench::PinToCpu(cpus[0]);
  const bool server_ok = server.Run();
  for (std::jthread& t : threads) t.join();
  if (relay) relay->Stop();

  // Output checks. Any failure makes run.py count the session's steps as
  // failed.
  std::vector<std::string> errors;
  if (!server_ok) errors.push_back("server: " + server.error());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (!workers[w]->ok) {
      errors.push_back("worker " + std::to_string(w) + ": " +
                       workers[w]->rpc->error());
    }
  }
  if (!SameParams(workers[0]->model, workers[1]->model)) {
    errors.push_back("workers' final parameters differ");
  }
  std::vector<const bench::CodecProbe*> worker_codecs;
  for (const auto& side : workers) worker_codecs.push_back(side->codec.get());
  for (const bench::CodecProbe* c : worker_codecs) {
    if (c->step_starts().back() < 0.0) {
      errors.push_back("a worker missed steps");
    }
  }
  std::uint64_t relay_bytes = 0, malformed = 0;
  if (relay) {
    if (!relay->error().empty()) errors.push_back(relay->error());
    if (relay->links().size() != static_cast<std::size_t>(kWorkers)) {
      errors.push_back("relay saw " + std::to_string(relay->links().size()) +
                       " links");
    }
    for (const auto& link : relay->links()) {
      for (const bench::PipeStats& p : link) {
        relay_bytes += p.bytes;
        malformed += p.malformed;
      }
    }
    if (malformed > 0) errors.push_back("relay saw a malformed frame header");
  }

  // Quality: the server's global model (batch-norm buffers from the BYE)
  // on the held-out test set.
  double correct = 0.0, loss_sum = 0.0, count = 0.0;
  for (const data::Batch& b : data::EvalBatches(data.test, 256)) {
    const tensor::Tensor logits = server_model.Forward(b.inputs, false);
    const nn::LossResult r = nn::SoftmaxCrossEntropy(logits, b.labels);
    const double n = static_cast<double>(b.labels.size());
    correct += static_cast<double>(r.correct);
    loss_sum += r.loss * n;
    count += n;
  }

  // Set-up ends at the last worker's first step stamp. A step period is the
  // time between one worker's consecutive first-Encode stamps.
  double setup_ms = 0.0, wall_ms = 0.0;
  std::vector<double> periods;
  for (const bench::CodecProbe* c : worker_codecs) {
    const std::vector<double>& st = c->step_starts();
    setup_ms = std::max(setup_ms, st[0] - inputs_ready_ms);
    wall_ms += (st[static_cast<std::size_t>(steps - 1)] -
                st[static_cast<std::size_t>(warm)]) / kWorkers;
    for (std::int64_t s = warm; s + 1 < steps; ++s) {
      periods.push_back(st[static_cast<std::size_t>(s + 1)] -
                        st[static_cast<std::size_t>(s)]);
    }
  }

  const double mean_period_ms =
      wall_ms / static_cast<double>(steps - 1 - warm);
  Layers layers;
  if (relay && errors.empty()) {
    LinkMetrics(*wl, steps, warm, *relay, mean_period_ms, layers);
  }
  if (traced && errors.empty()) {
    Attribute(*wl, steps, warm, worker_codecs, *server_codec, fs,
              mean_period_ms, layers);
    Replay(*wl, *relay, layers, errors);
    if (!trace_out.empty()) {
      WriteChromeTrace(trace_out, worker_codecs, *server_codec, fs, *relay);
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  const std::int64_t timed = steps - 1 - warm;
  std::string json = "{";
  json += "\"workload\":" + obs::JsonString(wl->name);
  json += ",\"seed\":" + std::to_string(seed);
  json += ",\"steps\":" + std::to_string(steps);
  json += ",\"steps_completed\":" + std::to_string(server.steps_completed());
  json += ",\"traced\":" + std::string(traced ? "true" : "false");
  json += ",\"relay\":" + std::string(relay ? "true" : "false");
  json += ",\"link_mbps\":" + JsonNumber(wl->link_bps / 1e6);
  json += ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    json += (i ? "," : "") + obs::JsonString(errors[i]);
  }
  json += "]";
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(HashParams(server_model)));
  json += ",\"server_params_fnv\":" + obs::JsonString(hash);
  json += ",\"setup_s\":" + JsonNumber(setup_ms / 1e3);
  json += ",\"timed_samples\":" +
          std::to_string(timed * kWorkers * kBatchPerWorker);
  json += ",\"timed_wall_s\":" + JsonNumber(wall_ms / 1e3);
  json += ",\"peak_rss_mb\":" +
          JsonNumber(static_cast<double>(usage.ru_maxrss) / 1024.0);
  json += ",\"test_accuracy\":" + JsonNumber(count > 0 ? correct / count : 0);
  json += ",\"test_loss\":" + JsonNumber(count > 0 ? loss_sum / count : 0);
  if (relay) {
    json += ",\"wire_bytes_per_step\":" +
            JsonNumber(static_cast<double>(relay_bytes) /
                       static_cast<double>(steps));
  }
  json += ",\"periods_ms\":[";
  for (std::size_t i = 0; i < periods.size(); ++i) {
    json += (i ? "," : "") + JsonNumber(periods[i]);
  }
  json += "],\"layers\":{";
  bool first = true;
  for (const auto& [key, value] : layers) {
    json += (first ? "" : ",") + obs::JsonString(key) + ":" +
            JsonNumber(value);
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  NowMs();  // the session's clock origin
  try {
    return Run(util::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
