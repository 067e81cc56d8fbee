#include "cluster/cluster_runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "sim/simulator.h"
#include "trace/run_harness.h"

namespace opdvfs::cluster {

double
ClusterRunResult::aicoreAvgWatts() const
{
    double total = 0.0;
    for (const auto &device : devices)
        total += device.aicore_avg_w;
    return devices.empty() ? 0.0 : total / static_cast<double>(devices.size());
}

double
ClusterRunResult::socAvgWatts() const
{
    double total = 0.0;
    for (const auto &device : devices)
        total += device.soc_avg_w;
    return devices.empty() ? 0.0 : total / static_cast<double>(devices.size());
}

namespace {

/** One rank's chip and its iteration, compiled for that chip. */
struct Device
{
    std::unique_ptr<npu::NpuChip> chip;
    std::vector<npu::CompiledOp> ops;
};

/** Build one chip per rank on @p simulator, each with its iteration. */
std::vector<Device>
buildDevices(sim::Simulator &simulator, const ClusterConfig &config,
             const models::Workload &workload, double initial_mhz,
             const std::vector<npu::FaultPlan> &device_faults)
{
    std::vector<Device> devices;
    devices.reserve(static_cast<std::size_t>(config.devices));
    for (int d = 0; d < config.devices; ++d) {
        npu::NpuConfig chip_config = config.chip;
        chip_config.initial_mhz = initial_mhz;
        if (!device_faults.empty())
            chip_config.faults = device_faults[static_cast<std::size_t>(d)];
        Device device;
        device.chip = std::make_unique<npu::NpuChip>(simulator, chip_config);
        device.ops = trace::compileIteration(*device.chip, workload);
        devices.push_back(std::move(device));
    }
    return devices;
}

/**
 * Queue one device's iteration, routing collectives to the group.
 * With @p guard_stats set, SetFreqs go through the guarded
 * verify-and-retry path.
 */
void
enqueueDeviceIteration(Device &device, int rank, CollectiveGroup &group,
                       const std::vector<trace::SetFreqTrigger> &triggers,
                       const dvfs::GuardOptions *guard = nullptr,
                       dvfs::GuardStats *guard_stats = nullptr)
{
    npu::NpuChip &chip = *device.chip;
    for (std::size_t i = 0; i < device.ops.size(); ++i) {
        const npu::CompiledOp &op = device.ops[i];

        if (op.params().category == npu::OpCategory::Communication
            && op.params().comm_bytes > 0.0) {
            double bytes = op.params().comm_bytes;
            chip.computeStream().enqueue(
                [&group, rank, bytes](std::function<void()> done) {
                    group.arrive(rank, bytes, std::move(done));
                });
        } else {
            chip.enqueueOp(op);
        }

        for (const auto &trigger : triggers) {
            if (trigger.after_op_index == i) {
                auto event = std::make_shared<sim::SyncEvent>();
                chip.computeStream().enqueueRecord(event);
                chip.setFreqStream().enqueueWait(event);
                if (guard_stats) {
                    dvfs::enqueueGuardedSetFreq(chip, trigger.mhz,
                                                guard->set_freq_retries,
                                                guard->retry_backoff,
                                                *guard_stats);
                } else {
                    chip.enqueueSetFreq(trigger.mhz);
                }
            }
        }
    }
}

/** Frequency a rank should end the iteration at, given its triggers. */
double
expectedFinalMhz(const npu::NpuChip &chip,
                 const std::vector<trace::SetFreqTrigger> &triggers,
                 double initial_mhz)
{
    const trace::SetFreqTrigger *last = nullptr;
    for (const auto &trigger : triggers) {
        if (!last || trigger.after_op_index >= last->after_op_index)
            last = &trigger;
    }
    return chip.freqTable().snap(last ? last->mhz : initial_mhz);
}

} // namespace

ClusterRunResult
ClusterRunner::run(const models::Workload &workload,
                   const std::vector<std::vector<trace::SetFreqTrigger>>
                       &per_device_triggers,
                   const ClusterRunOptions &options) const
{
    if (workload.iteration.empty())
        throw std::invalid_argument("ClusterRunner: empty workload");
    if (!per_device_triggers.empty()
        && per_device_triggers.size()
            != static_cast<std::size_t>(config_.devices)) {
        throw std::invalid_argument(
            "ClusterRunner: need one trigger set per device");
    }
    if (!options.device_faults.empty()
        && options.device_faults.size()
            != static_cast<std::size_t>(config_.devices)) {
        throw std::invalid_argument(
            "ClusterRunner: need one fault plan per device");
    }

    sim::Simulator simulator;
    CollectiveGroup group(simulator, config_.devices,
                          config_.link_bandwidth,
                          config_.collective_latency_s);

    std::vector<Device> devices =
        buildDevices(simulator, config_, workload, options.initial_mhz,
                     options.device_faults);

    static const std::vector<trace::SetFreqTrigger> kNoTriggers;
    auto triggers_for = [&](int rank) -> const auto & {
        return per_device_triggers.empty()
            ? kNoTriggers
            : per_device_triggers[static_cast<std::size_t>(rank)];
    };

    // Warm-up iterations (thermal + frequency steady state).
    for (int warm = 0; warm < options.warmup_iterations; ++warm) {
        for (int d = 0; d < config_.devices; ++d) {
            enqueueDeviceIteration(devices[static_cast<std::size_t>(d)], d,
                                   group, triggers_for(d));
        }
        simulator.run();
    }

    // Measured iteration.
    std::vector<std::uint64_t> set_freq_before;
    for (Device &device : devices) {
        device.chip->resetEnergy();
        set_freq_before.push_back(device.chip->dvfs().setFreqCount());
    }
    std::uint64_t collectives_before = group.completedCollectives();
    double wait_before = group.totalWaitSeconds();
    Tick start = simulator.now();

    for (int d = 0; d < config_.devices; ++d) {
        enqueueDeviceIteration(devices[static_cast<std::size_t>(d)], d,
                               group, triggers_for(d));
    }
    simulator.run();

    ClusterRunResult result;
    result.iteration_seconds = ticksToSeconds(simulator.now() - start);
    result.collectives = group.completedCollectives() - collectives_before;
    result.collective_wait_seconds =
        group.totalWaitSeconds() - wait_before;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        npu::NpuChip &chip = *devices[d].chip;
        chip.syncAccounting();
        DeviceResult device;
        device.aicore_energy_j = chip.energy().aicore_joules;
        device.soc_energy_j = chip.energy().soc_joules;
        device.aicore_avg_w = chip.energy().aicoreAvgWatts();
        device.soc_avg_w = chip.energy().socAvgWatts();
        device.set_freq_count =
            chip.dvfs().setFreqCount() - set_freq_before[d];
        result.devices.push_back(device);
    }
    return result;
}

double
GuardedClusterResult::meanLoss() const
{
    if (iterations.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &it : iterations)
        sum += it.loss;
    return sum / static_cast<double>(iterations.size());
}

double
GuardedClusterResult::worstLoss() const
{
    double worst = 0.0;
    for (const auto &it : iterations)
        worst = std::max(worst, it.loss);
    return worst;
}

GuardedClusterResult
ClusterRunner::runGuarded(const models::Workload &workload,
                          const std::vector<
                              std::vector<trace::SetFreqTrigger>>
                              &per_device_triggers,
                          double baseline_seconds,
                          const GuardedClusterOptions &options) const
{
    if (workload.iteration.empty())
        throw std::invalid_argument("ClusterRunner: empty workload");
    if (options.iterations <= 0)
        throw std::invalid_argument("ClusterRunner: no iterations");
    if (!per_device_triggers.empty()
        && per_device_triggers.size()
            != static_cast<std::size_t>(config_.devices)) {
        throw std::invalid_argument(
            "ClusterRunner: need one trigger set per device");
    }
    if (!options.run.device_faults.empty()
        && options.run.device_faults.size()
            != static_cast<std::size_t>(config_.devices)) {
        throw std::invalid_argument(
            "ClusterRunner: need one fault plan per device");
    }

    sim::Simulator simulator;
    CollectiveGroup group(simulator, config_.devices,
                          config_.link_bandwidth,
                          config_.collective_latency_s);

    std::vector<Device> devices =
        buildDevices(simulator, config_, workload, options.run.initial_mhz,
                     options.run.device_faults);

    static const std::vector<trace::SetFreqTrigger> kNoTriggers;
    auto triggers_for = [&](int rank) -> const auto & {
        return per_device_triggers.empty()
            ? kNoTriggers
            : per_device_triggers[static_cast<std::size_t>(rank)];
    };

    dvfs::DvfsGuard guard(options.guard, baseline_seconds);
    dvfs::GuardStats &stats = guard.mutableStats();

    // Warm-up (unguarded, unmeasured).
    for (int warm = 0; warm < options.run.warmup_iterations; ++warm) {
        for (int d = 0; d < config_.devices; ++d) {
            enqueueDeviceIteration(devices[static_cast<std::size_t>(d)], d,
                                   group, triggers_for(d));
        }
        simulator.run();
    }

    GuardedClusterResult result;
    result.baseline_seconds = baseline_seconds;
    double max_mhz = npu::FreqTable(config_.chip.freq).maxMhz();

    for (int iter = 0; iter < options.iterations; ++iter) {
        bool strategy_active = guard.strategyEnabled();
        if (guard.wantsThrottleReset()) {
            // Fleet-wide repair: reset every throttled rank's governor.
            for (Device &device : devices) {
                if (device.chip->dvfs().throttled()) {
                    device.chip->resetThrottleGovernor();
                    ++stats.throttle_resets;
                }
            }
        }

        Tick start = simulator.now();
        for (int d = 0; d < config_.devices; ++d) {
            Device &device = devices[static_cast<std::size_t>(d)];
            if (strategy_active) {
                enqueueDeviceIteration(
                    device, d, group, triggers_for(d), &options.guard,
                    options.guard.enabled ? &stats : nullptr);
            } else {
                dvfs::enqueueGuardedSetFreq(*device.chip, max_mhz,
                                            options.guard.set_freq_retries,
                                            options.guard.retry_backoff,
                                            stats);
                enqueueDeviceIteration(device, d, group, kNoTriggers);
            }
        }
        simulator.run();

        GuardedClusterIteration record;
        record.strategy_active = strategy_active;
        record.seconds = ticksToSeconds(simulator.now() - start);

        bool any_throttled = false;
        double peak_temperature = 0.0;
        for (int d = 0; d < config_.devices; ++d) {
            npu::NpuChip &chip = *devices[static_cast<std::size_t>(d)].chip;
            chip.syncAccounting();
            peak_temperature =
                std::max(peak_temperature, chip.temperature());
            double expected = strategy_active
                ? expectedFinalMhz(chip, triggers_for(d),
                                   options.run.initial_mhz)
                : max_mhz;
            bool throttled = chip.dvfs().throttled();
            any_throttled = any_throttled || throttled;
            if (throttled || chip.dvfs().currentMhz() != expected)
                record.straggler_ranks.push_back(d);
        }

        dvfs::GuardObservation observation;
        observation.iteration_seconds = record.seconds;
        observation.temperature_c = peak_temperature;
        observation.telemetry_ok = true;
        observation.throttled = any_throttled;
        record.state_after = guard.observe(observation);
        record.loss = guard.lastLoss();
        result.iterations.push_back(record);
    }

    result.guard = guard.stats();
    for (const Device &device : devices) {
        const npu::FaultInjector *injector = device.chip->faultInjector();
        result.device_faults.push_back(injector ? injector->counters()
                                                : npu::FaultCounters{});
    }
    return result;
}

} // namespace opdvfs::cluster
