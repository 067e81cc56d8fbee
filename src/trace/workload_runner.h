/**
 * @file
 * Drives a workload through a freshly instantiated NPU and collects
 * the telemetry the modelling and DVFS stages consume.
 *
 * Implements the Fig. 14 execution mechanism: SetFreq operators run on
 * a dedicated stream, released by sync events recorded on the compute
 * stream after their trigger operators, so a frequency change lands at
 * a chosen point of the operator sequence without blocking compute.
 */

#ifndef OPDVFS_TRACE_WORKLOAD_RUNNER_H
#define OPDVFS_TRACE_WORKLOAD_RUNNER_H

#include <cstdint>
#include <vector>

#include "models/workload.h"
#include "npu/npu_chip.h"
#include "trace/power_sampler.h"
#include "trace/profiler.h"

namespace opdvfs::trace {

/**
 * Dispatch a SetFreq operator when the operator at
 * @p after_op_index completes (the "SetFreq trigger" of Fig. 14).
 */
struct SetFreqTrigger
{
    std::size_t after_op_index = 0;
    double mhz = 0.0;
};

/** Options for one measurement run. */
struct RunOptions
{
    /** Core frequency at iteration start. */
    double initial_mhz = 1800.0;
    /**
     * Repeat the iteration until this much simulated time has passed
     * before measuring, so the die reaches thermal steady state
     * ("once stable training is achieved", Sect. 7.4).
     */
    double warmup_seconds = 0.0;
    /** Telemetry sampling period. */
    Tick sample_period = 50 * kTicksPerMs;
    /** Keep sampling through an idle tail of this many seconds. */
    double cooldown_seconds = 0.0;
    ProfilerNoise profiler_noise;
    SamplerNoise sampler_noise;
    std::uint64_t seed = 1;
};

/** Everything measured over one iteration. */
struct RunResult
{
    /** Wall time of the measured iteration, seconds. */
    double iteration_seconds = 0.0;
    double aicore_energy_j = 0.0;
    double soc_energy_j = 0.0;
    double aicore_avg_w = 0.0;
    double soc_avg_w = 0.0;
    /** Mean sampled die temperature over the iteration. */
    double avg_temperature_c = 0.0;
    /** SetFreq operators executed during the measured iteration. */
    std::uint64_t set_freq_count = 0;
    /** Per-operator records of the measured iteration. */
    std::vector<OpRecord> records;
    /** Telemetry samples (measurement + cooldown tail). */
    std::vector<PowerSample> samples;
};

/** Owns chip construction and the measurement protocol. */
class WorkloadRunner
{
  public:
    explicit WorkloadRunner(npu::NpuConfig config) : config_(config) {}

    /**
     * Run @p workload once (after optional warm-up repetitions) with
     * the given SetFreq triggers applied every iteration.
     */
    RunResult run(const models::Workload &workload,
                  const RunOptions &options,
                  const std::vector<SetFreqTrigger> &triggers = {}) const;

    /**
     * Run @p workload once per entry of @p runs, all at the same time
     * and with no triggers: the caller measures the first run and each
     * other run gets its own thread.  The runs share one compiled
     * iteration, read-only.  Result i is bitwise run(workload, runs[i]).
     * @throws the exception of the lowest-index run that failed, once
     *         every thread has joined; std::system_error when a thread
     *         cannot start (the started ones are joined first).
     */
    std::vector<RunResult> runEach(const models::Workload &workload,
                                   const std::vector<RunOptions> &runs)
        const;

    const npu::NpuConfig &config() const { return config_; }

  private:
    npu::NpuConfig config_;
};

} // namespace opdvfs::trace

#endif // OPDVFS_TRACE_WORKLOAD_RUNNER_H
