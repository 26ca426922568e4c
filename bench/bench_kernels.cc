// Codec kernel microbenchmarks (google-benchmark).
//
// Backs the paper's computation-overhead claims (§5.3): 3LC's stages are
// cheap vectorizable passes; MQE 1-bit pays extra passes for partition
// means; sparsification pays sampling + gather. Also demonstrates that
// encode time is linear in tensor elements, which justifies the time
// model's element_scale extrapolation (DESIGN.md).
#include <benchmark/benchmark.h>

#include <vector>

#include "compress/factory.h"
#include "compress/quantize3.h"
#include "compress/quartic.h"
#include "compress/zero_run.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/crc32.h"
#include "util/rng.h"

using namespace threelc;
using compress::CodecConfig;

namespace {

tensor::Tensor MakeInput(std::int64_t n, double zero_prob = 0.0) {
  util::Rng rng(99);
  tensor::Tensor t(tensor::Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    t[static_cast<std::size_t>(i)] =
        rng.Bernoulli(zero_prob) ? 0.0f : rng.NormalFloat(0.0f, 1.0f);
  }
  return t;
}

void BM_Quantize3(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto in = MakeInput(n);
  std::vector<std::int8_t> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compress::Quantize3(in.data(), static_cast<std::size_t>(n), 1.0f,
                            out.data()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Quantize3)->Range(1 << 10, 1 << 20);

void BM_Quantize3WithResidual(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto in = MakeInput(n);
  std::vector<std::int8_t> out(static_cast<std::size_t>(n));
  std::vector<float> residual(static_cast<std::size_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::Quantize3WithResidual(
        in.data(), static_cast<std::size_t>(n), 1.0f, out.data(),
        residual.data()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Quantize3WithResidual)->Range(1 << 10, 1 << 20);

void BM_QuarticEncode(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto in = MakeInput(n);
  std::vector<std::int8_t> ternary(static_cast<std::size_t>(n));
  compress::Quantize3(in.data(), static_cast<std::size_t>(n), 1.0f,
                      ternary.data());
  util::ByteBuffer out;
  for (auto _ : state) {
    out.Clear();
    compress::QuarticEncode(ternary.data(), static_cast<std::size_t>(n), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuarticEncode)->Range(1 << 10, 1 << 20);

void BM_QuarticDecode(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto in = MakeInput(n);
  std::vector<std::int8_t> ternary(static_cast<std::size_t>(n));
  compress::Quantize3(in.data(), static_cast<std::size_t>(n), 1.0f,
                      ternary.data());
  util::ByteBuffer encoded;
  compress::QuarticEncode(ternary.data(), static_cast<std::size_t>(n),
                          encoded);
  std::vector<std::int8_t> decoded(static_cast<std::size_t>(n));
  for (auto _ : state) {
    compress::QuarticDecode(encoded.span(), static_cast<std::size_t>(n),
                            decoded.data());
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuarticDecode)->Range(1 << 10, 1 << 20);

void BM_TwoBitEncode(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto in = MakeInput(n);
  std::vector<std::int8_t> ternary(static_cast<std::size_t>(n));
  compress::Quantize3(in.data(), static_cast<std::size_t>(n), 1.0f,
                      ternary.data());
  util::ByteBuffer out;
  for (auto _ : state) {
    out.Clear();
    compress::TwoBitEncode(ternary.data(), static_cast<std::size_t>(n), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TwoBitEncode)->Range(1 << 14, 1 << 18);

// ZRE cost depends on input sparsity: denser zero runs mean fewer output
// bytes and faster scans.
void BM_ZeroRunEncode(benchmark::State& state) {
  const std::int64_t n = 1 << 18;
  const double zero_prob = static_cast<double>(state.range(0)) / 100.0;
  auto in = MakeInput(n, zero_prob);
  std::vector<std::int8_t> ternary(static_cast<std::size_t>(n));
  compress::Quantize3(in.data(), static_cast<std::size_t>(n), 1.0f,
                      ternary.data());
  util::ByteBuffer quartic;
  compress::QuarticEncode(ternary.data(), static_cast<std::size_t>(n),
                          quartic);
  util::ByteBuffer out;
  for (auto _ : state) {
    out.Clear();
    compress::ZeroRunEncode(quartic.span(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["zre_bytes"] = static_cast<double>(out.size());
}
BENCHMARK(BM_ZeroRunEncode)->Arg(0)->Arg(50)->Arg(90)->Arg(99);

void BM_ZeroRunDecode(benchmark::State& state) {
  const std::int64_t n = 1 << 18;
  auto in = MakeInput(n, 0.9);
  std::vector<std::int8_t> ternary(static_cast<std::size_t>(n));
  compress::Quantize3(in.data(), static_cast<std::size_t>(n), 1.0f,
                      ternary.data());
  util::ByteBuffer quartic;
  compress::QuarticEncode(ternary.data(), static_cast<std::size_t>(n),
                          quartic);
  util::ByteBuffer encoded;
  compress::ZeroRunEncode(quartic.span(), encoded);
  util::ByteBuffer decoded;
  for (auto _ : state) {
    decoded.Clear();
    compress::ZeroRunDecode(encoded.span(), decoded, quartic.size());
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZeroRunDecode);

// CRC32C over every wire frame payload and checkpoint body: a 64 KiB
// block and one lan-f32 tensor-sized payload (1,470,504 B).
void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64 << 10)->Arg(1470504);

// The dense layers' products at the benchmark MLP's batch-8 shapes
// (192 -> 512 -> 512 -> 10): Args are {batch, in, out}. Forward is
// Y = X W (Matmul), the weight gradient X^T dY (MatmulTransA), the input
// gradient dY W^T (MatmulTransB).
struct DenseOperands {
  explicit DenseOperands(const benchmark::State& state)
      : batch(state.range(0)), in(state.range(1)), out(state.range(2)) {
    util::Rng rng(3);
    tensor::FillNormal(x, rng, 0.0f, 1.0f);
    tensor::FillNormal(w, rng, 0.0f, 0.05f);
    tensor::FillNormal(dy, rng, 0.0f, 1.0f);
  }
  void SetFlops(benchmark::State& state) const {
    state.counters["GFLOP/s"] = benchmark::Counter(
        2e-9 * static_cast<double>(batch * in * out) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  }
  std::int64_t batch, in, out;
  tensor::Tensor x{tensor::Shape{batch, in}}, w{tensor::Shape{in, out}},
      dy{tensor::Shape{batch, out}};
};

void DenseShapes(benchmark::internal::Benchmark* b) {
  b->Args({8, 192, 512})->Args({8, 512, 512})->Args({8, 512, 10});
}

void BM_Matmul(benchmark::State& state) {
  const DenseOperands o(state);
  tensor::Tensor y(tensor::Shape{o.batch, o.out});
  for (auto _ : state) {
    tensor::Matmul(o.x, o.w, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  o.SetFlops(state);
}
BENCHMARK(BM_Matmul)->Apply(DenseShapes);

void BM_MatmulTransA(benchmark::State& state) {
  const DenseOperands o(state);
  tensor::Tensor dw(tensor::Shape{o.in, o.out});
  for (auto _ : state) {
    tensor::MatmulTransA(o.x, o.dy, dw);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  o.SetFlops(state);
}
BENCHMARK(BM_MatmulTransA)->Apply(DenseShapes);

void BM_MatmulTransB(benchmark::State& state) {
  const DenseOperands o(state);
  tensor::Tensor dx(tensor::Shape{o.batch, o.in});
  for (auto _ : state) {
    tensor::MatmulTransB(o.dy, o.w, dx);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  o.SetFlops(state);
}
BENCHMARK(BM_MatmulTransB)->Apply(DenseShapes);

// Full-codec encode throughput for every compared design — the per-value
// CPU cost column behind Table 1's computation-overhead story.
void BM_CodecEncode(benchmark::State& state,
                    const compress::CodecConfig& config) {
  const std::int64_t n = 1 << 17;
  auto codec = compress::MakeCompressor(config);
  auto in = MakeInput(n);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer out;
  for (auto _ : state) {
    out.Clear();
    codec->Encode(in, *ctx, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["payload_bytes"] = static_cast<double>(out.size());
}
BENCHMARK_CAPTURE(BM_CodecEncode, float32, CodecConfig::Float32());
BENCHMARK_CAPTURE(BM_CodecEncode, int8, CodecConfig::EightBit());
BENCHMARK_CAPTURE(BM_CodecEncode, stoch3_qe, CodecConfig::StochThreeQE());
BENCHMARK_CAPTURE(BM_CodecEncode, mqe_1bit, CodecConfig::MqeOneBit());
BENCHMARK_CAPTURE(BM_CodecEncode, sparse25,
                  CodecConfig::Sparsification(0.25f));
BENCHMARK_CAPTURE(BM_CodecEncode, sparse5, CodecConfig::Sparsification(0.05f));
BENCHMARK_CAPTURE(BM_CodecEncode, threelc_s100, CodecConfig::ThreeLC(1.00f));
BENCHMARK_CAPTURE(BM_CodecEncode, threelc_s175, CodecConfig::ThreeLC(1.75f));
BENCHMARK_CAPTURE(BM_CodecEncode, threelc_s190, CodecConfig::ThreeLC(1.90f));

void BM_CodecDecode(benchmark::State& state,
                    const compress::CodecConfig& config) {
  const std::int64_t n = 1 << 17;
  auto codec = compress::MakeCompressor(config);
  auto in = MakeInput(n);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer encoded;
  codec->Encode(in, *ctx, encoded);
  tensor::Tensor out(in.shape());
  for (auto _ : state) {
    util::ByteReader reader(encoded);
    codec->Decode(reader, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_CodecDecode, float32, CodecConfig::Float32());
BENCHMARK_CAPTURE(BM_CodecDecode, int8, CodecConfig::EightBit());
BENCHMARK_CAPTURE(BM_CodecDecode, mqe_1bit, CodecConfig::MqeOneBit());
BENCHMARK_CAPTURE(BM_CodecDecode, threelc_s100, CodecConfig::ThreeLC(1.00f));
BENCHMARK_CAPTURE(BM_CodecDecode, threelc_s175, CodecConfig::ThreeLC(1.75f));

// --- Observability overhead (src/obs) -------------------------------------
// The disabled-registry path is the one every hot loop pays when telemetry
// is off; it must stay a relaxed load + branch (the "<5% step overhead"
// budget in ISSUE/DESIGN terms is dominated by this).

void BM_MetricsCounterDisabled(benchmark::State& state) {
  obs::MetricsRegistry registry;  // disabled by default
  obs::Counter* counter = registry.counter("bench/disabled");
  for (auto _ : state) {
    counter->Add(1.0);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterDisabled);

void BM_MetricsCounterEnabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::Counter* counter = registry.counter("bench/enabled");
  for (auto _ : state) {
    counter->Add(1.0);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterEnabled);

// Full-codec encode with the stats sink attached — the per-tensor cost the
// trainer pays per step when --metrics-out requests per-tensor records.
void BM_CodecEncodeWithStats(benchmark::State& state) {
  const std::int64_t n = 1 << 17;
  auto codec = compress::MakeCompressor(CodecConfig::ThreeLC(1.00f));
  auto in = MakeInput(n);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer out;
  for (auto _ : state) {
    out.Clear();
    compress::EncodeStats stats;
    codec->Encode(in, *ctx, out, &stats);
    benchmark::DoNotOptimize(stats.zeros);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CodecEncodeWithStats);

// --- Live-monitoring overhead ---------------------------------------------
// The watchdog and flight recorder run once per training step (not per
// tensor element), so their cost must be microseconds against step times
// of milliseconds — i.e. within measurement noise of a training step.

obs::StepTelemetry MakeBenchStep(std::int64_t step) {
  obs::StepTelemetry st;
  st.step = step;
  st.loss = 1.0 / static_cast<double>(step + 1);
  st.lr = 0.1;
  st.push_bytes = 123456;
  st.pull_bytes = 65432;
  st.push_values = 1 << 18;
  st.pull_values = 1 << 18;
  st.push_bits_per_value = 1.2;
  st.pull_bits_per_value = 0.9;
  st.codec_seconds = 0.004;
  st.contributors = 8;
  st.phases_ms = {{"forward_backward", 8.0}, {"encode_push", 2.0}};
  for (int t = 0; t < 4; ++t) {
    obs::TensorStepTelemetry ts;
    ts.name = "dense" + std::to_string(t) + "/W";
    ts.elements = 1 << 16;
    ts.push_bytes = 9000;
    ts.pull_bytes = 9000;
    ts.push_residual_l2 = 0.5;
    ts.pull_residual_l2 = 0.4;
    st.tensors.push_back(ts);
  }
  return st;
}

void BM_HealthMonitorObserveStep(benchmark::State& state) {
  obs::HealthMonitor monitor{obs::HealthMonitorOptions{}, nullptr};
  std::int64_t step = 0;
  for (auto _ : state) {
    monitor.ObserveStep(MakeBenchStep(step++));
    benchmark::DoNotOptimize(&monitor);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HealthMonitorObserveStep);

void BM_FlightRecorderRecordStep(benchmark::State& state) {
  obs::FlightRecorder recorder("/dev/null", obs::FlightRecorder::kDefaultCapacity);
  std::int64_t step = 0;
  for (auto _ : state) {
    recorder.RecordStep(MakeBenchStep(step++));
    benchmark::DoNotOptimize(&recorder);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderRecordStep);

// --- Stage profiler overhead ----------------------------------------------
// ScopedStage sits inside the codec inner stages and the transport read /
// write paths, so both the disabled (one relaxed load + branch) and the
// enabled (two clock reads + relaxed accumulator stores) cost must stay
// nanoseconds, and a step-phase scope with only its slot live (profiler
// and tracer off) must cost no more than the two clock reads it needs.
// bench_step enforces the end-to-end <2% budget; these keep the per-scope
// numbers visible.

void BM_StageScopeDisabled(benchmark::State& state) {
  obs::StageProfiler profiler;  // disabled by default
  for (auto _ : state) {
    obs::ScopedStage stage(&profiler, "bench");
    benchmark::DoNotOptimize(&profiler);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageScopeDisabled);

void BM_StageScopeSlotOnly(benchmark::State& state) {
  obs::StageProfiler profiler;  // disabled by default
  obs::Tracer tracer;           // disabled by default
  std::uint64_t slot_ns = 0;
  for (auto _ : state) {
    obs::ScopedStage stage(&profiler, "bench", &slot_ns, {&tracer, 0, 0});
    benchmark::DoNotOptimize(&slot_ns);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageScopeSlotOnly);

void BM_StageScopeEnabled(benchmark::State& state) {
  obs::StageProfiler profiler;
  profiler.set_enabled(true);
  for (auto _ : state) {
    obs::ScopedStage stage(&profiler, "bench");
    benchmark::DoNotOptimize(&profiler);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageScopeEnabled);

void BM_StageScopeEnabledNested(benchmark::State& state) {
  obs::StageProfiler profiler;
  profiler.set_enabled(true);
  for (auto _ : state) {
    obs::ScopedStage outer(&profiler, "outer");
    obs::ScopedStage inner(&profiler, "inner");
    benchmark::DoNotOptimize(&profiler);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageScopeEnabledNested);

}  // namespace

BENCHMARK_MAIN();
