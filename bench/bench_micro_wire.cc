/**
 * @file
 * Microbenchmark (google-benchmark): the strategy server's per-request
 * codec and fingerprint layers, over two request shapes (the argument):
 * 0 is a serve-mix hot-set transformer (two layers, hidden 1024,
 * sequence 500) and 1 is ResNet50.
 *
 *  - BM_Crc32: crc32 over the request frame; `per_KB` is the time per
 *    KiB;
 *  - BM_PeelFrame: the frame header checks plus the payload CRC;
 *  - BM_DecodeRequest: the payload decoded into a WireRequest;
 *  - BM_RequestKey: the key pass — validate and digest, no workload —
 *    which is all an exact hit costs after the peel;
 *  - BM_FingerprintRequest: the digest and features of a decoded
 *    workload, the worker path's fingerprint;
 *  - BM_FrameRequest: encode plus frame, what a client sends.
 *
 * `bytes` is the frame size of the shape.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <string>

#include "common/crc32.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "net/wire.h"
#include "npu/memory_system.h"
#include "serve/fingerprint.h"

namespace {

using namespace opdvfs;

struct Shape
{
    net::WireRequest request;
    std::string payload;
    std::string frame;
};

std::array<Shape, 2>
buildShapes()
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "mix-1024-500";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = 500;
    std::array<Shape, 2> shapes;
    shapes[0].request.workload =
        models::buildTransformerTraining(memory, model, 5);
    shapes[0].request.seed = 654321;
    shapes[1].request.workload = models::buildWorkload("ResNet50", memory, 1);
    shapes[1].request.seed = 1;
    for (Shape &s : shapes) {
        s.payload = net::encodeRequest(s.request);
        s.frame = net::frameMessage(net::MsgType::Request, s.payload);
    }
    return shapes;
}

const Shape &
shape(std::int64_t index)
{
    static const std::array<Shape, 2> shapes = buildShapes();
    return shapes[static_cast<std::size_t>(index)];
}

void
countBytes(benchmark::State &state, const Shape &s)
{
    state.counters["bytes"] = static_cast<double>(s.frame.size());
}

void
BM_Crc32(benchmark::State &state)
{
    const Shape &s = shape(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(s.frame));
    countBytes(state, s);
    state.counters["per_KB"] = benchmark::Counter(
        static_cast<double>(s.frame.size()) / 1024.0,
        benchmark::Counter::kIsIterationInvariantRate
            | benchmark::Counter::kInvert);
}

void
BM_PeelFrame(benchmark::State &state)
{
    const Shape &s = shape(state.range(0));
    for (auto _ : state) {
        std::size_t consumed = 0;
        benchmark::DoNotOptimize(net::peelFrame(s.frame, &consumed));
    }
    countBytes(state, s);
}

void
BM_DecodeRequest(benchmark::State &state)
{
    const Shape &s = shape(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(net::decodeRequest(s.payload));
    countBytes(state, s);
}

void
BM_RequestKey(benchmark::State &state)
{
    const Shape &s = shape(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(net::requestKey(s.payload));
    countBytes(state, s);
}

void
BM_FingerprintRequest(benchmark::State &state)
{
    const Shape &s = shape(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(serve::fingerprintRequest(
            s.request.workload, s.request.chip, s.request.perf_loss_target,
            s.request.seed));
    countBytes(state, s);
}

void
BM_FrameRequest(benchmark::State &state)
{
    const Shape &s = shape(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(net::frameRequest(s.request));
    countBytes(state, s);
}

BENCHMARK(BM_Crc32)->Arg(0)->Arg(1);
BENCHMARK(BM_PeelFrame)->Arg(0)->Arg(1);
BENCHMARK(BM_DecodeRequest)->Arg(0)->Arg(1);
BENCHMARK(BM_RequestKey)->Arg(0)->Arg(1);
BENCHMARK(BM_FingerprintRequest)->Arg(0)->Arg(1);
BENCHMARK(BM_FrameRequest)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
