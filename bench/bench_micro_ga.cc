/**
 * @file
 * Microbenchmark (google-benchmark): model-based strategy evaluation,
 * GA generation throughput, a whole strategy search at the bench
 * options (Sect. 7.4: population 200 x 600 generations, 12 refine
 * sweeps) and its memetic refinement alone (Sect. 8.1).  The paper's
 * case for the modelling approach over model-free search is that one
 * policy can be scored in milliseconds instead of one full training
 * iteration.
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

/** The bench options of Sect. 7.4: 200 x 600, 12 refine sweeps. */
dvfs::GaOptions
benchOptions()
{
    dvfs::GaOptions options;
    options.population = 200;
    options.generations = 600;
    options.mutation_rate = 0.15;
    options.refine_sweeps = 12;
    return options;
}

void
BM_SearchStrategy(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        auto result =
            dvfs::searchStrategy(*f.evaluator, f.prep.stages, benchOptions());
        benchmark::DoNotOptimize(result.best_score);
    }
    state.counters["stages"] =
        static_cast<double>(f.evaluator->stageCount());
}

void
BM_Refinement(benchmark::State &state)
{
    // Refinement alone, from the bench search's pre-refinement genome:
    // a one-generation GA of the baseline, the 1600/1800 prior and
    // that genome as a warm-start prior, which is the best of the
    // three and so where the refinement starts.
    Fixture &f = fixture();
    dvfs::GaOptions search = benchOptions();
    search.refine_sweeps = 0;
    dvfs::GaResult unrefined =
        dvfs::searchStrategy(*f.evaluator, f.prep.stages, search);
    dvfs::GaOptions options = benchOptions();
    options.population = 3;
    options.generations = 1;
    options.multi_level_priors = false;
    options.prior_individuals = {unrefined.best_mhz};

    dvfs::GaResult result;
    for (auto _ : state) {
        result = dvfs::geneticSearch(*f.evaluator, f.prep.stages, options);
        benchmark::DoNotOptimize(result.best_score);
    }
    if (result.pre_refine_score != unrefined.best_score)
        state.SkipWithError("the refinement did not start from the "
                            "search's pre-refinement genome");
    state.counters["stages"] =
        static_cast<double>(f.evaluator->stageCount());
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
BENCHMARK(BM_SearchStrategy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Refinement)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvaluatorConstruction)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
