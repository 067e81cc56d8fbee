/**
 * @file
 * Microbenchmark (google-benchmark): model-based strategy evaluation
 * and GA generation throughput (Sect. 8.1).  The paper's case for the
 * modelling approach over model-free search is that one policy can be
 * scored in milliseconds instead of one full training iteration.
 */

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "dvfs/evaluator.h"
#include "dvfs/genetic.h"
#include "dvfs/preprocess.h"
#include "models/transformer.h"
#include "power/offline_calibration.h"
#include "power/online_calibration.h"
#include "trace/workload_runner.h"

namespace {

using namespace opdvfs;

/** One-time setup: profile a mid-size transformer and build models. */
struct Fixture
{
    npu::NpuConfig chip;
    npu::FreqTable table{npu::FreqTableConfig{}};
    power::CalibratedConstants constants;
    power::PowerModel power_model;
    perf::PerfModelRepository repo;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    dvfs::PreprocessResult prep;
    std::unique_ptr<dvfs::StageEvaluator> evaluator;

    Fixture() : constants(power::calibrateOffline(chip)),
                power_model(constants, table)
    {
        npu::MemorySystem memory(chip.memory);
        models::TransformerConfig model;
        model.name = "ga-bench";
        model.layers = 24;
        model.hidden = 4096;
        model.heads = 32;
        model.seq = 2048;
        model.tensor_parallel = 4;
        model.tp_allreduce = true;
        model.micro_batches = 2;
        models::Workload workload =
            models::buildTransformerTraining(memory, model, 3);

        trace::WorkloadRunner runner(chip);
        power::OnlinePowerCalibrator online(power_model);
        trace::RunResult baseline;
        for (double f : {1000.0, 1400.0, 1800.0}) {
            trace::RunOptions options;
            options.initial_mhz = f;
            options.warmup_seconds = 4.0;
            options.sample_period = kTicksPerMs;
            options.seed = 60 + static_cast<std::uint64_t>(f);
            trace::RunResult run = runner.run(workload, options);
            repo.addProfile(f, run.records);
            online.addRun(run);
            if (f == 1800.0)
                baseline = run;
        }
        perf::PerfBuildOptions perf_options;
        perf_options.kind = perf::FitFunction::PwlCycles;
        repo.fitAll(perf_options);
        op_power = online.perOpModels();
        prep = dvfs::preprocess(baseline.records, {});
        evaluator = std::make_unique<dvfs::StageEvaluator>(
            prep.stages, repo, power_model, op_power, table);
    }
};

Fixture &
fixture()
{
    static Fixture instance;
    return instance;
}

void
BM_PolicyEvaluation(benchmark::State &state)
{
    Fixture &f = fixture();
    Rng rng(1);
    std::vector<std::uint8_t> genome(f.evaluator->stageCount());
    for (auto &g : genome)
        g = static_cast<std::uint8_t>(rng.index(f.evaluator->freqCount()));
    for (auto _ : state) {
        genome[rng.index(genome.size())] =
            static_cast<std::uint8_t>(rng.index(f.evaluator->freqCount()));
        benchmark::DoNotOptimize(f.evaluator->evaluate(genome).soc_watts);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["stages"] =
        static_cast<double>(f.evaluator->stageCount());
}

void
BM_GaGeneration(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        dvfs::GaOptions options;
        options.population = 200;
        options.generations = static_cast<int>(state.range(0));
        options.refine_sweeps = 0;
        auto result =
            dvfs::geneticSearch(*f.evaluator, f.prep.stages, options);
        benchmark::DoNotOptimize(result.best_score);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 200);
}

void
BM_EvaluatorConstruction(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        dvfs::StageEvaluator evaluator(f.prep.stages, f.repo,
                                       f.power_model, f.op_power, f.table);
        benchmark::DoNotOptimize(evaluator.stageCount());
    }
}

BENCHMARK(BM_PolicyEvaluation);
BENCHMARK(BM_GaGeneration)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvaluatorConstruction)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
