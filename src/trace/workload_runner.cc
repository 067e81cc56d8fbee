#include "trace/workload_runner.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/statistics.h"
#include "trace/run_harness.h"

namespace opdvfs::trace {

namespace {

/**
 * One measurement run over @p ops, compileIteration(config, workload);
 * @p triggers come from orderTriggers().
 */
RunResult
measure(const npu::NpuConfig &config, const models::Workload &workload,
        const std::vector<npu::CompiledOp> &ops, const RunOptions &options,
        const std::vector<SetFreqTrigger> &triggers)
{
    RunHarness harness(config, workload, ops, options);
    sim::Simulator &simulator = harness.simulator();
    npu::NpuChip &chip = harness.chip();
    Profiler &profiler = harness.profiler();
    PowerSampler &sampler = harness.sampler();

    harness.warmUp(triggers);

    // Measured iteration.
    profiler.openWindow();
    chip.resetEnergy();
    std::uint64_t set_freq_before = chip.dvfs().setFreqCount();
    sampler.start(/*stop_when_idle=*/true);
    harness.enqueueIteration(triggers);
    simulator.run();
    chip.syncAccounting();

    RunResult result;
    result.set_freq_count = chip.dvfs().setFreqCount() - set_freq_before;
    result.records = profiler.takeRecords();
    // Read the snapshot taken when the last operator retired, so any
    // telemetry events trailing past the iteration don't dilute the
    // averages with idle time.
    const npu::EnergyCounters &energy = chip.energyAtLastRetire();
    result.aicore_energy_j = energy.aicore_joules;
    result.soc_energy_j = energy.soc_joules;
    result.aicore_avg_w = energy.aicoreAvgWatts();
    result.soc_avg_w = energy.socAvgWatts();

    if (!result.records.empty()) {
        Tick first = result.records.front().start;
        Tick last = 0;
        for (const auto &r : result.records)
            last = std::max(last, r.end);
        result.iteration_seconds = ticksToSeconds(last - first);
    }

    // Optional idle cool-down tail (for gamma calibration traces).
    if (options.cooldown_seconds > 0.0) {
        npu::HwOpParams tail;
        tail.category = npu::OpCategory::Idle;
        tail.fixed_seconds = options.cooldown_seconds;
        sampler.start(/*stop_when_idle=*/true);
        // A chip-owned op, outside the compiled iteration: the
        // profiler ignores it.
        chip.enqueueOp(tail, workload.iteration.size() + 1'000'000'000ULL);
        simulator.run();
        chip.syncAccounting();
    }

    Tick iteration_end = 0;
    for (const auto &r : result.records)
        iteration_end = std::max(iteration_end, r.end);
    std::vector<double> temps;
    temps.reserve(sampler.samples().size());
    for (const auto &s : sampler.samples()) {
        if (s.tick <= iteration_end)
            temps.push_back(s.temperature_c);
    }
    if (temps.empty()) {
        for (const auto &s : sampler.samples())
            temps.push_back(s.temperature_c);
    }
    result.avg_temperature_c = stats::mean(temps);
    result.samples = sampler.samples();
    return result;
}

} // namespace

RunResult
WorkloadRunner::run(const models::Workload &workload,
                    const RunOptions &options,
                    const std::vector<SetFreqTrigger> &triggers) const
{
    std::vector<SetFreqTrigger> ordered =
        orderTriggers(triggers, workload.iteration.size());
    std::vector<npu::CompiledOp> ops = compileIteration(config_, workload);
    return measure(config_, workload, ops, options, ordered);
}

std::vector<RunResult>
WorkloadRunner::runEach(const models::Workload &workload,
                        const std::vector<RunOptions> &runs) const
{
    std::vector<npu::CompiledOp> ops = compileIteration(config_, workload);
    std::vector<RunResult> results(runs.size());
    std::vector<std::exception_ptr> errors(runs.size());
    // Each run writes only its own slots; nothing escapes a thread.
    auto measureOne = [&](std::size_t i) {
        try {
            results[i] = measure(config_, workload, ops, runs[i], {});
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    {
        // Declared after everything the threads read, so they join
        // first, on unwinding too.
        std::vector<std::jthread> helpers;
        helpers.reserve(runs.size());
        for (std::size_t i = 1; i < runs.size(); ++i)
            helpers.emplace_back(measureOne, i);
        if (!runs.empty())
            measureOne(0);
    }
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace opdvfs::trace
