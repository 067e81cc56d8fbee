/**
 * @file
 * The measurement protocol every single-chip measurement loop shares
 * (WorkloadRunner::run and runEach, dvfs::runGuarded,
 * calib::runDriftLoop): one chip with its profiler and telemetry
 * sampler, the workload's compiled iteration, the Fig. 14 trigger
 * wiring, and the warm-up to thermal steady state (Sect. 7.4).
 */

#ifndef OPDVFS_TRACE_RUN_HARNESS_H
#define OPDVFS_TRACE_RUN_HARNESS_H

#include <cstddef>
#include <functional>
#include <vector>

#include "models/workload.h"
#include "npu/npu_chip.h"
#include "sim/simulator.h"
#include "trace/power_sampler.h"
#include "trace/profiler.h"
#include "trace/workload_runner.h"

namespace opdvfs::trace {

/**
 * Compile every op of @p workload's iteration, in order, for chips
 * built from @p config.  Compiling reads only the configuration's
 * memory system and top frequency, never `initial_mhz`, so one
 * compiled iteration serves runs at every initial frequency and seed.
 * @throws std::invalid_argument for malformed operator parameters.
 */
std::vector<npu::CompiledOp> compileIteration(const npu::NpuConfig &config,
                                              const models::Workload
                                                  &workload);

/**
 * Validate @p triggers against an @p op_count-op iteration and order
 * them by trigger op; triggers on the same op keep their order.
 * @throws std::invalid_argument for an index past the iteration.
 */
std::vector<SetFreqTrigger> orderTriggers(std::vector<SetFreqTrigger> triggers,
                                          std::size_t op_count);

/**
 * Queues one trigger's SetFreq, after the record/wait pair that
 * releases it (e.g. dvfs::enqueueGuardedSetFreq).  An empty callable
 * queues a plain NpuChip::enqueueSetFreq.
 */
using SetFreqEnqueue = std::function<void(double mhz)>;

/**
 * A chip built for one measurement run, with its profiler and
 * telemetry sampler.  The workload and its compiled iteration must
 * outlive it; the harness only reads them, so harnesses on other
 * threads may share both.
 */
class RunHarness
{
  public:
    /**
     * Build the chip from @p config at `options.initial_mhz`; the
     * profiler and sampler take their noise, period and seeds from
     * @p options.  @p ops must be compileIteration(config, workload).
     * @throws std::invalid_argument for an empty workload or an
     *         unsupported initial frequency.
     */
    RunHarness(const npu::NpuConfig &config,
               const models::Workload &workload,
               const std::vector<npu::CompiledOp> &ops,
               const RunOptions &options);

    RunHarness(const RunHarness &) = delete;
    RunHarness &operator=(const RunHarness &) = delete;

    /**
     * Queue one iteration.  @p triggers must come from orderTriggers()
     * for this workload; each one's SetFreq goes through @p set_freq.
     */
    void enqueueIteration(const std::vector<SetFreqTrigger> &triggers,
                          const SetFreqEnqueue &set_freq = {});

    /**
     * Repeat the iteration with plain SetFreqs until the options'
     * warm-up time has passed.  The profiler keeps no records
     * meanwhile (no window is open yet).
     * @throws std::invalid_argument when an iteration takes no
     *         simulated time, since the warm-up could then never end.
     */
    void warmUp(const std::vector<SetFreqTrigger> &triggers);

    sim::Simulator &simulator() { return simulator_; }
    npu::NpuChip &chip() { return chip_; }
    Profiler &profiler() { return profiler_; }
    PowerSampler &sampler() { return sampler_; }

  private:
    double warmup_seconds_;
    sim::Simulator simulator_;
    npu::NpuChip chip_;
    Profiler profiler_;
    PowerSampler sampler_;
    const std::vector<npu::CompiledOp> &ops_;
};

} // namespace opdvfs::trace

#endif // OPDVFS_TRACE_RUN_HARNESS_H
