/**
 * @file
 * The end-to-end energy-optimisation pipeline of paper Fig. 1:
 *
 *   profile the workload -> build performance and power models ->
 *   classify + preprocess -> genetic strategy search -> execute the
 *   strategy with fine-grained SetFreq -> measure.
 *
 * This is the library's top-level entry point; the Table 3 / Fig. 18
 * benches and the examples all drive it.
 */

#ifndef OPDVFS_DVFS_PIPELINE_H
#define OPDVFS_DVFS_PIPELINE_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dvfs/executor.h"
#include "dvfs/genetic.h"
#include "dvfs/preprocess.h"
#include "dvfs/strategy_io.h"
#include "models/workload.h"
#include "npu/npu_chip.h"
#include "perf/perf_model.h"
#include "power/offline_calibration.h"
#include "power/online_calibration.h"

namespace opdvfs::dvfs {

/** Pipeline configuration. */
struct PipelineOptions
{
    /** The device under optimisation. */
    npu::NpuConfig chip;
    /** Allowed relative performance loss. */
    double perf_loss_target = 0.02;
    PreprocessOptions preprocess;
    /**
     * GA hyper-parameters.  `ga.seed` is *not* used by the pipeline:
     * the search seed is derived from `seed` below unless `ga_seed`
     * pins it explicitly (seed-forwarding audit: a request-supplied
     * seed reproduces the same GaResult through every path).
     */
    GaOptions ga;
    /** When set, the GA uses exactly this seed instead of the
     *  `seed`-derived one. */
    std::optional<std::uint64_t> ga_seed;
    ExecutorOptions executor;
    perf::FitFunction fit_kind = perf::FitFunction::QuadOverF;
    /** Frequencies profiled to build the models (Sect. 7.4). */
    std::vector<double> profile_freqs_mhz = {1000.0, 1800.0};
    /** Warm-up before each profiled/measured iteration, seconds. */
    double warmup_seconds = 20.0;
    /** Fine-grained telemetry period for alpha calibration. */
    Tick profile_sample_period = 2 * kTicksPerMs;
    /** Reuse previously calibrated constants (skip offline pass). */
    std::optional<power::CalibratedConstants> constants;
    std::uint64_t seed = 1;
};

/**
 * The profile-and-model half of the pipeline: everything a strategy
 * search — or a surrogate prediction — needs, with no search run yet.
 * Produced by EnergyPipeline::prepare(); reused by the serving layer
 * so a predicted first answer and its asynchronous GA refinement
 * share one profiling pass instead of re-profiling the workload.
 */
struct PreparedWorkload
{
    power::CalibratedConstants constants;
    /** Baseline measurement at the maximum profile frequency. */
    trace::RunResult baseline;
    perf::PerfModelRepository perf_models;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    PreprocessResult prep;
};

/** Everything the pipeline produced. */
struct PipelineResult
{
    power::CalibratedConstants constants;
    /** Baseline measurement at the maximum frequency. */
    trace::RunResult baseline;
    /** Measurement under the generated DVFS strategy. */
    trace::RunResult dvfs;
    PreprocessResult prep;
    GaResult ga;
    ExecutionPlan plan;
    /**
     * The fitted per-operator performance models and per-operator
     * power corrections the search ran on.  Exposed so downstream
     * consumers (the drift watchdog, strategy regeneration) can score
     * residuals against — and recalibrate — exactly the models that
     * produced the strategy.
     */
    perf::PerfModelRepository perf_models;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;

    /** Relative iteration-time increase under DVFS. */
    double perfLoss() const;
    /** Relative AICore average-power reduction. */
    double aicoreReduction() const;
    /** Relative SoC average-power reduction. */
    double socReduction() const;

    /** The generated strategy, ready for saveStrategy()/re-execution. */
    Strategy strategy() const;
};

/** Runs the Fig. 1 pipeline against a simulated chip. */
class EnergyPipeline
{
  public:
    explicit EnergyPipeline(PipelineOptions options)
        : options_(std::move(options))
    {}

    /** Optimise one workload end to end. */
    PipelineResult optimize(const models::Workload &workload) const;

    /**
     * Run only the profile-and-model half: calibrate, profile at the
     * configured frequencies, fit performance/power models and
     * preprocess into candidate stages.  optimize() is exactly
     * prepare() followed by the search and execution half, so results
     * derived from a PreparedWorkload are bit-consistent with the
     * full pipeline under the same options and seed.
     */
    PreparedWorkload prepare(const models::Workload &workload) const;

    const PipelineOptions &options() const { return options_; }

  private:
    PipelineOptions options_;
};

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_PIPELINE_H
