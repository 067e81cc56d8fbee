/**
 * @file
 * Microbenchmark (google-benchmark): the cost of the profiler's
 * measurement noise (the CANN profiler's error model, Sect. 6.2).
 * Every simulated op draws it, and after the thermal warm-up
 * (Sect. 7.4) nearly all of them retire outside a measurement window,
 * whose deviates the profiler skips in one Rng::skipGaussians batch
 * when the window opens.
 *
 *  - BM_StdNormal: a fresh std::normal_distribution over
 *    std::mt19937_64 per deviate, the library's former path;
 *  - BM_RngGaussian / BM_RngSkipGaussian: Rng's deviate, and the skip
 *    of one;
 *  - BM_RngSkipGaussians: the batched skip of 2^20 deviates, about a
 *    ResNet50 warm-up's worth; time_per_deviate is per skipped deviate;
 *  - BM_ProfileRunResNet50: one WorkloadRunner::run of ResNet50 at
 *    1800 MHz with the 25 s warm-up of the zoo's end-to-end runs.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <random>

#include "common/random.h"
#include "models/model_zoo.h"
#include "npu/memory_system.h"
#include "trace/workload_runner.h"

namespace {

using namespace opdvfs;

void
BM_StdNormal(benchmark::State &state)
{
    std::mt19937_64 engine(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            std::normal_distribution<double>(0.0, 1.0)(engine));
    state.SetItemsProcessed(state.iterations());
}

void
BM_RngGaussian(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.gaussian(0.0, 1.0));
    state.SetItemsProcessed(state.iterations());
}

void
BM_RngSkipGaussian(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state) {
        rng.skipGaussian();
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_RngSkipGaussians(benchmark::State &state)
{
    Rng rng(1);
    auto batch = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        rng.skipGaussians(batch);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["time_per_deviate"] = benchmark::Counter(
        static_cast<double>(batch),
        benchmark::Counter::kIsIterationInvariantRate
            | benchmark::Counter::kInvert);
}

void
BM_ProfileRunResNet50(benchmark::State &state)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::Workload workload = models::buildWorkload("ResNet50", memory, 1);
    trace::WorkloadRunner runner(chip);
    trace::RunOptions options;
    options.initial_mhz = 1800.0;
    options.warmup_seconds = 25.0;
    options.seed = 7;
    double iteration_s = 0.0;
    for (auto _ : state) {
        trace::RunResult run = runner.run(workload, options);
        iteration_s = run.iteration_seconds;
        benchmark::DoNotOptimize(run.records.data());
    }
    // At one frequency every iteration takes the measured one's time,
    // so the warm-up runs ceil(warm-up / iteration) of them.
    double iterations = std::ceil(options.warmup_seconds / iteration_s) + 1;
    double ops = iterations * static_cast<double>(workload.opCount());
    state.counters["ops_per_run"] = ops;
    state.counters["time_per_op"] = benchmark::Counter(
        ops, benchmark::Counter::kIsIterationInvariantRate
                 | benchmark::Counter::kInvert);
}

BENCHMARK(BM_StdNormal);
BENCHMARK(BM_RngGaussian);
BENCHMARK(BM_RngSkipGaussian);
BENCHMARK(BM_RngSkipGaussians)->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProfileRunResNet50)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
