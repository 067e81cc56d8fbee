#include "dvfs/pipeline.h"

#include <algorithm>
#include <stdexcept>

#include "power/online_calibration.h"
#include "power/power_model.h"
#include "trace/workload_runner.h"

namespace opdvfs::dvfs {

double
PipelineResult::perfLoss() const
{
    return dvfs.iteration_seconds / baseline.iteration_seconds - 1.0;
}

double
PipelineResult::aicoreReduction() const
{
    return 1.0 - dvfs.aicore_avg_w / baseline.aicore_avg_w;
}

double
PipelineResult::socReduction() const
{
    return 1.0 - dvfs.soc_avg_w / baseline.soc_avg_w;
}

Strategy
PipelineResult::strategy() const
{
    Strategy out;
    out.stages = prep.stages;
    out.mhz_per_stage = ga.best_mhz;
    out.plan = plan;
    return out;
}

PreparedWorkload
EnergyPipeline::prepare(const models::Workload &workload) const
{
    PreparedWorkload prepared;
    npu::FreqTable table(options_.chip.freq);
    trace::WorkloadRunner runner(options_.chip);

    // Reject a bad frequency list before any simulation runs.
    const std::vector<double> &freqs = options_.profile_freqs_mhz;
    if (freqs.size() < 2)
        throw std::invalid_argument("EnergyPipeline: need >= 2 profile "
                                    "frequencies");
    for (auto f = freqs.begin(); f != freqs.end(); ++f) {
        if (!table.supports(*f))
            throw std::invalid_argument("EnergyPipeline: unsupported "
                                        "profile frequency");
        // Each point would count twice in the fits.
        if (std::any_of(freqs.begin(), f, [&](double earlier) {
                return table.snap(earlier) == table.snap(*f);
            }))
            throw std::invalid_argument("EnergyPipeline: duplicate "
                                        "profile frequency");
    }

    // --- power-model construction: offline half (Fig. 11) ----------------
    prepared.constants = options_.constants
        ? *options_.constants
        : power::calibrateOffline(options_.chip);
    power::PowerModel power_model(prepared.constants, table);

    // --- profiling runs at the model-building frequencies ----------------
    // The runs are independent, so they run at the same time; only the
    // merge below is ordered, by frequency list position.
    std::vector<trace::RunOptions> run_options(freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        run_options[i].initial_mhz = freqs[i];
        run_options[i].warmup_seconds = options_.warmup_seconds;
        run_options[i].sample_period = options_.profile_sample_period;
        run_options[i].seed =
            options_.seed * 31 + static_cast<std::uint64_t>(freqs[i]);
    }
    std::vector<trace::RunResult> runs = runner.runEach(workload, run_options);

    perf::PerfModelRepository perf_repo;
    power::OnlinePowerCalibrator online(power_model);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        perf_repo.addProfile(freqs[i], runs[i].records);
        online.addRun(runs[i]);
    }
    prepared.baseline = std::move(
        runs[std::max_element(freqs.begin(), freqs.end()) - freqs.begin()]);

    perf::PerfBuildOptions perf_options;
    perf_options.kind = options_.fit_kind;
    perf_repo.fitAll(perf_options);
    prepared.perf_models = std::move(perf_repo);

    prepared.op_power = online.perOpModels();

    // --- classification + preprocessing (Sect. 6.1/6.2) -------------------
    prepared.prep = preprocess(prepared.baseline.records,
                               options_.preprocess);
    return prepared;
}

PipelineResult
EnergyPipeline::optimize(const models::Workload &workload) const
{
    PipelineResult result;
    npu::FreqTable table(options_.chip.freq);
    trace::WorkloadRunner runner(options_.chip);

    PreparedWorkload prepared = prepare(workload);
    result.constants = prepared.constants;
    result.baseline = std::move(prepared.baseline);
    result.perf_models = std::move(prepared.perf_models);
    result.op_power = std::move(prepared.op_power);
    result.prep = std::move(prepared.prep);

    power::PowerModel power_model(result.constants, table);

    // --- genetic strategy search (Sect. 6.3) ------------------------------
    StageEvaluator evaluator(result.prep.stages, result.perf_models,
                             power_model, result.op_power, table);
    GaOptions ga_options = options_.ga;
    ga_options.perf_loss_target = options_.perf_loss_target;
    ga_options.seed =
        options_.ga_seed ? *options_.ga_seed : options_.seed * 7 + 13;
    result.ga = searchStrategy(evaluator, result.prep.stages, ga_options);

    // --- execute the strategy (Sect. 7.1) ---------------------------------
    result.plan = planExecution(result.prep.stages, result.ga.best_mhz,
                                result.baseline.records, options_.executor);

    trace::RunOptions dvfs_options;
    dvfs_options.initial_mhz = result.plan.initial_mhz;
    dvfs_options.warmup_seconds = options_.warmup_seconds;
    dvfs_options.seed = options_.seed * 131 + 7;
    result.dvfs = runner.run(workload, dvfs_options, result.plan.triggers);
    return result;
}

} // namespace opdvfs::dvfs
