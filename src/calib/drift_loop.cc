#include "calib/drift_loop.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "trace/run_harness.h"

namespace opdvfs::calib {

namespace {

double
medianOf(std::vector<double> values)
{
    std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    return values[mid];
}

/** Accumulates a mean incrementally. */
struct MeanAccumulator
{
    double sum = 0.0;
    std::size_t count = 0;

    void add(double v)
    {
        sum += v;
        ++count;
    }
    bool empty() const { return count == 0; }
    double mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

} // namespace

DriftLoopResult
runDriftLoop(const npu::NpuConfig &chip_config,
             const models::Workload &workload,
             perf::PerfModelRepository perf_models,
             const power::PowerModel &power_model,
             const std::unordered_map<std::uint64_t, power::OpPowerModel>
                 &op_power,
             std::vector<trace::SetFreqTrigger> triggers,
             double baseline_seconds, const DriftLoopOptions &options)
{
    if (options.iterations <= 0)
        throw std::invalid_argument("runDriftLoop: no iterations");
    if (options.hold_iterations < 1)
        throw std::invalid_argument(
            "runDriftLoop: hold_iterations must be >= 1");

    std::vector<trace::SetFreqTrigger> ordered =
        trace::orderTriggers(std::move(triggers), workload.iteration.size());
    trace::RunHarness harness(chip_config, workload, options.run);
    sim::Simulator &simulator = harness.simulator();
    npu::NpuChip &chip = harness.chip();
    trace::Profiler &profiler = harness.profiler();
    trace::PowerSampler &sampler = harness.sampler();

    dvfs::DvfsGuard guard(options.guard, baseline_seconds);
    dvfs::GuardStats &stats = guard.mutableStats();
    trace::SetFreqEnqueue guarded_set_freq;
    if (options.guard.enabled) {
        guarded_set_freq = [&](double mhz) {
            dvfs::enqueueGuardedSetFreq(chip, mhz,
                                        options.guard.set_freq_retries,
                                        options.guard.retry_backoff, stats);
        };
    }

    ResidualTracker tracker(options.tracker);
    Recalibrator recalibrator(options.recalibrator);
    DriftWatchdog watchdog(options.watchdog);

    const double initial_baseline = baseline_seconds;
    double current_baseline = baseline_seconds;

    // Warm-up repetitions (unmeasured, plain SetFreqs) bring the die
    // to thermal steady state before residuals are scored.
    harness.warmUp(ordered);

    DriftLoopResult result;
    double max_mhz = chip.freqTable().maxMhz();
    double strategy_mhz = options.run.initial_mhz;
    bool was_active = true;
    const power::CalibratedConstants &constants = power_model.constants();

    for (int iter = 0; iter < options.iterations; ++iter) {
        bool strategy_active = guard.strategyEnabled();
        // Captured before observe() ticks the hold counter down.
        bool safe_hold = guard.safeHoldActive();
        if (guard.wantsThrottleReset()) {
            chip.resetThrottleGovernor();
            ++stats.throttle_resets;
        }

        profiler.openWindow();
        std::size_t samples_before = sampler.samples().size();
        chip.syncAccounting();
        npu::EnergyCounters energy_before = chip.energy();
        sampler.start(/*stop_when_idle=*/true);

        if (strategy_active) {
            // Resuming from a fallback or safe hold left the chip
            // pinned at the maximum frequency; re-assert the
            // strategy's cycle-entry frequency (a trigger-less
            // constant-pin strategy has no trigger to do it).
            if (!was_active) {
                if (options.guard.enabled) {
                    dvfs::enqueueGuardedSetFreq(
                        chip, strategy_mhz, options.guard.set_freq_retries,
                        options.guard.retry_backoff, stats);
                } else {
                    chip.enqueueSetFreq(strategy_mhz);
                }
            }
            harness.enqueueIteration(ordered, guarded_set_freq);
        } else {
            // Fallback / safe hold: pin the maximum frequency and run
            // with the strategy disabled.
            dvfs::enqueueGuardedSetFreq(chip, max_mhz,
                                        options.guard.set_freq_retries,
                                        options.guard.retry_backoff,
                                        stats);
            harness.enqueueIteration({});
        }
        simulator.run();
        chip.syncAccounting();
        npu::EnergyCounters energy_after = chip.energy();

        DriftIteration record;
        record.strategy_active = strategy_active;
        record.aicore_joules =
            energy_after.aicore_joules - energy_before.aicore_joules;
        record.soc_joules =
            energy_after.soc_joules - energy_before.soc_joules;

        const std::vector<trace::OpRecord> &records = profiler.records();
        Tick first = records.empty() ? 0 : records.front().start;
        Tick last = 0;
        for (const auto &r : records)
            last = std::max(last, r.end);
        record.seconds = ticksToSeconds(last - first);

        // ---- guard bookkeeping (median-filtered telemetry) -----------
        std::vector<double> temps;
        const auto &samples = sampler.samples();
        for (std::size_t s = samples_before; s < samples.size(); ++s)
            temps.push_back(samples[s].temperature_c);
        bool telemetry_ok = !temps.empty();
        double median_temp = temps.empty() ? 0.0 : medianOf(temps);

        dvfs::GuardObservation observation;
        observation.iteration_seconds = record.seconds;
        observation.temperature_c = median_temp;
        observation.telemetry_ok = telemetry_ok;
        observation.throttled = chip.dvfs().throttled();
        record.guard_state = guard.observe(observation);
        record.loss = guard.lastLoss();

        const ModelPatch &patch = recalibrator.patch();

        // ---- duration residuals vs the (patched) perf models ---------
        std::unordered_map<std::string, MeanAccumulator> time_by_type;
        MeanAccumulator time_abs, time_signed;
        for (const auto &r : records) {
            const perf::OpPerfModel *model = perf_models.find(r.op_id);
            if (!model || r.duration_s <= 0.0)
                continue;
            double predicted = model->predictSeconds(r.f_mhz);
            if (!(predicted > 0.0))
                continue;
            double residual = (r.duration_s - predicted) / predicted;
            time_by_type[r.type].add(residual);
            time_abs.add(std::abs(residual));
            time_signed.add(residual);
            recalibrator.addTime({r.type, predicted, r.duration_s});
        }
        record.mean_abs_time_residual = time_abs.mean();
        record.mean_time_residual = time_signed.mean();

        // ---- power + thermal residuals from aligned telemetry --------
        double ambient = patch.thermal_updated ? patch.ambient_c
                                               : constants.ambient_c;
        double k = patch.thermal_updated ? patch.k_per_watt
                                         : constants.k_per_watt;
        MeanAccumulator power_residuals, power_abs;
        MeanAccumulator soc_watts_mean, temperature_mean;
        for (std::size_t s = samples_before; s < samples.size(); ++s) {
            const trace::PowerSample &sample = samples[s];
            auto it = std::upper_bound(
                records.begin(), records.end(), sample.tick,
                [](Tick tick, const trace::OpRecord &r) {
                    return tick < r.start;
                });
            if (it == records.begin())
                continue;
            const trace::OpRecord &r = *std::prev(it);
            if (sample.tick >= r.end)
                continue; // Fell in a gap between records.

            soc_watts_mean.add(sample.soc_watts);
            temperature_mean.add(sample.temperature_c);

            auto op_it = op_power.find(r.op_id);
            if (op_it == op_power.end())
                continue;
            // Evaluate the power model at the MEASURED temperature
            // rise: thermal-model error then cancels out of the power
            // residual, keeping the two channels separable.
            double delta_t = sample.temperature_c - ambient;
            PatchedPowerPrediction predicted = predictPatchedAt(
                power_model, op_it->second, sample.f_mhz, patch,
                delta_t);
            if (!(predicted.aicore_watts > 0.0))
                continue;
            double residual =
                (sample.aicore_watts - predicted.aicore_watts)
                / predicted.aicore_watts;
            power_residuals.add(residual);
            power_abs.add(std::abs(residual));
            recalibrator.addPower({predicted.aicore_dynamic_w,
                                   predicted.aicore_rest_w,
                                   sample.aicore_watts});
        }
        record.mean_abs_power_residual = power_abs.mean();
        record.mean_power_residual = power_residuals.mean();
        if (!soc_watts_mean.empty()) {
            record.mean_thermal_residual = temperature_mean.mean()
                - (ambient + k * soc_watts_mean.mean());
        }

        // ---- feed the tracker one observation per channel ------------
        if (options.watchdog_enabled) {
            // Safe-hold iterations run at the maximum frequency, whose
            // systematic fit bias differs from the strategy's
            // operating point; feeding them would pollute the anchors
            // a just-reset channel re-establishes.  The recalibrator
            // windows above still get every observation — the refit is
            // frequency-explicit and needs the parked data.
            if (!safe_hold) {
                for (const auto &[type, acc] : time_by_type)
                    tracker.addTimeResidual(type, acc.mean());
                if (!power_residuals.empty())
                    tracker.addPowerResidual(power_residuals.mean());
            }
            if (!soc_watts_mean.empty()) {
                // Equilibrium pair: iteration-mean power vs
                // iteration-mean temperature (Eq. 15 operating point).
                if (!safe_hold)
                    tracker.addThermalResidual(
                        record.mean_thermal_residual);
                recalibrator.addThermal({soc_watts_mean.mean(),
                                         temperature_mean.mean()});
            }

            record.verdict = tracker.verdict();
            bool was_recalibrating =
                watchdog.state() == WatchdogState::Recalibrating;
            record.watchdog_state = watchdog.observe(record.verdict);

            if (record.watchdog_state == WatchdogState::Recalibrating) {
                // Park the chip at the safe frequency while models
                // and strategy are swapped out underneath the run.
                if (options.guard.enabled)
                    guard.holdSafe(options.hold_iterations);

                // On confirmation, drop the mixed clean+drifting
                // window: the refit waits parked until it has enough
                // pure post-confirmation observations, then fits the
                // drifted behaviour in one accurate shot.
                if (!was_recalibrating)
                    recalibrator.clearWindows();

                if (recalibrator.recalibrate(
                        watchdog.confirmedVerdict())) {
                    const ModelPatch &applied = recalibrator.patch();
                    perf_models.scaleDurations(
                        applied.time_scale_by_type,
                        applied.time_scale_global);

                    current_baseline =
                        initial_baseline * applied.time_scale_global;
                    if (options.regenerate) {
                        RegeneratedStrategy regenerated =
                            options.regenerate(applied);
                        ordered = trace::orderTriggers(
                            std::move(regenerated.triggers),
                            workload.iteration.size());
                        if (regenerated.baseline_seconds)
                            current_baseline =
                                *regenerated.baseline_seconds;
                        if (regenerated.initial_mhz)
                            strategy_mhz = *regenerated.initial_mhz;
                    }
                    guard.rebase(current_baseline);

                    watchdog.recalibrated();
                    // Re-anchor only the refit families; an unrefit
                    // channel keeps its accumulated drift evidence.
                    tracker.reset(watchdog.confirmedVerdict());
                    if (options.on_recalibrated)
                        options.on_recalibrated(applied);
                    record.recalibrated = true;
                    record.watchdog_state = watchdog.state();
                }
                // else: not enough window data yet; stay parked and
                // retry with a fuller window next iteration.
            }
        }

        result.iterations.push_back(record);
        was_active = strategy_active;
    }

    result.guard = guard.stats();
    result.watchdog = watchdog.stats();
    if (const npu::FaultInjector *injector = chip.faultInjector())
        result.faults = injector->counters();
    result.patch = recalibrator.patch();
    result.final_baseline_seconds = current_baseline;
    return result;
}

} // namespace opdvfs::calib
