#include "dvfs/guard.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "trace/run_harness.h"

namespace opdvfs::dvfs {

DvfsGuard::DvfsGuard(const GuardOptions &options,
                     double baseline_iteration_seconds)
    : options_(options), baseline_seconds_(baseline_iteration_seconds)
{
    if (!std::isfinite(baseline_seconds_) || baseline_seconds_ <= 0.0)
        throw std::invalid_argument(
            "DvfsGuard: baseline iteration time must be positive");
    if (options_.perf_loss_target < 0.0)
        throw std::invalid_argument(
            "DvfsGuard: negative perf_loss_target");
    if (options_.violation_factor < 1.0)
        throw std::invalid_argument(
            "DvfsGuard: violation_factor must be >= 1");
    if (options_.violation_limit < 1)
        throw std::invalid_argument(
            "DvfsGuard: violation_limit must be >= 1");
    if (options_.reenable_after < 1)
        throw std::invalid_argument(
            "DvfsGuard: reenable_after must be >= 1");
    if (options_.set_freq_retries < 0)
        throw std::invalid_argument(
            "DvfsGuard: negative set_freq_retries");
    if (options_.retry_backoff <= 0)
        throw std::invalid_argument(
            "DvfsGuard: non-positive retry_backoff");
}

GuardState
DvfsGuard::observe(const GuardObservation &observation)
{
    last_loss_ = (observation.iteration_seconds - baseline_seconds_)
                 / baseline_seconds_;

    double temperature = last_temperature_c_;
    if (observation.telemetry_ok) {
        last_temperature_c_ = observation.temperature_c;
        have_temperature_ = true;
        temperature = observation.temperature_c;
    } else {
        ++stats_.telemetry_gaps;
    }

    bool perf_bad =
        last_loss_ > options_.violation_factor * options_.perf_loss_target;
    bool thermal_bad =
        have_temperature_ && temperature > options_.max_temperature_c;
    if (perf_bad)
        ++stats_.perf_violations;
    if (thermal_bad)
        ++stats_.thermal_violations;
    bool violating = perf_bad || thermal_bad;

    wants_throttle_reset_ =
        options_.enabled && observation.throttled && violating;

    if (!options_.enabled)
        return state_;

    if (safe_hold_remaining_ > 0) {
        // A recalibration hold pins Fallback for a fixed number of
        // iterations; measurements taken against the stale baseline
        // during the swap are recorded but never drive transitions.
        if (--safe_hold_remaining_ == 0) {
            state_ = GuardState::Monitoring;
            consecutive_violations_ = 0;
            clean_in_fallback_ = 0;
        }
        return state_;
    }

    if (state_ == GuardState::Monitoring) {
        if (violating) {
            if (++consecutive_violations_ >= options_.violation_limit) {
                state_ = GuardState::Fallback;
                ++stats_.fallbacks;
                consecutive_violations_ = 0;
                clean_in_fallback_ = 0;
            }
        } else {
            consecutive_violations_ = 0;
        }
    } else {
        if (violating) {
            clean_in_fallback_ = 0;
        } else if (++clean_in_fallback_ >= options_.reenable_after) {
            state_ = GuardState::Monitoring;
            ++stats_.reenables;
            clean_in_fallback_ = 0;
        }
    }
    return state_;
}

void
DvfsGuard::holdSafe(int iterations)
{
    if (iterations < 1)
        throw std::invalid_argument("DvfsGuard: holdSafe needs >= 1 "
                                    "iteration");
    state_ = GuardState::Fallback;
    safe_hold_remaining_ = iterations;
    consecutive_violations_ = 0;
    clean_in_fallback_ = 0;
    ++stats_.safe_holds;
}

void
DvfsGuard::rebase(double baseline_iteration_seconds)
{
    if (!std::isfinite(baseline_iteration_seconds)
        || baseline_iteration_seconds <= 0.0) {
        throw std::invalid_argument(
            "DvfsGuard: rebase baseline must be positive");
    }
    baseline_seconds_ = baseline_iteration_seconds;
    consecutive_violations_ = 0;
    clean_in_fallback_ = 0;
    ++stats_.rebases;
}

namespace {

/** True when the governor ended up where the guard commanded. */
bool
setFreqLanded(const npu::NpuChip &chip, double target_mhz)
{
    // A firmware clamp is not repairable by retrying; the guard
    // handles that case via a governor reset instead.
    return chip.dvfs().currentMhz() == target_mhz
        || chip.dvfs().throttled();
}

/**
 * Re-issue a SetFreq while HOLDING the SetFreq stream, then verify and
 * recurse.  Holding the stream is essential: a retry enqueued at the
 * stream tail would sit behind the strategy's later triggers (each
 * gated on a compute-stream sync event), so a dropped upshift could
 * not be repaired until the iteration had already run to completion
 * at the wrong frequency.
 */
void
retryHoldingStream(npu::NpuChip &chip, double target_mhz,
                   int retries_left, Tick backoff, GuardStats &stats,
                   std::function<void()> done)
{
    Tick latency = chip.config().set_freq_latency;
    bool dropped = false;
    if (npu::FaultInjector *injector = chip.faultInjector()) {
        latency += injector->setFreqExtraLatency();
        dropped = injector->dropSetFreq();
    }
    chip.simulator().scheduleIn(
        latency, [&chip, target_mhz, dropped, retries_left, backoff,
                  &stats, done = std::move(done)]() mutable {
            if (!dropped)
                chip.dvfs().apply(target_mhz);
            if (setFreqLanded(chip, target_mhz)) {
                done();
                return;
            }
            if (retries_left <= 0) {
                ++stats.set_freq_abandoned;
                done();
                return;
            }
            ++stats.set_freq_retries;
            chip.simulator().scheduleIn(
                backoff, [&chip, target_mhz, retries_left, backoff,
                          &stats, done = std::move(done)]() mutable {
                    retryHoldingStream(chip, target_mhz,
                                       retries_left - 1, backoff * 2,
                                       stats, std::move(done));
                });
        });
}

/**
 * Enqueue the verification task paired with a SetFreq already sitting
 * on the stream.  FIFO ordering guarantees it runs after that SetFreq
 * finished (applied or dropped); on mismatch it keeps the stream
 * occupied through the bounded backoff-and-retry chain.
 */
void
enqueueVerify(npu::NpuChip &chip, double target_mhz, int retries_left,
              Tick backoff, GuardStats &stats)
{
    chip.setFreqStream().enqueue([&chip, target_mhz, retries_left, backoff,
                                  &stats](std::function<void()> done) {
        if (setFreqLanded(chip, target_mhz)) {
            done();
            return;
        }
        if (retries_left <= 0) {
            ++stats.set_freq_abandoned;
            done();
            return;
        }
        ++stats.set_freq_retries;
        chip.simulator().scheduleIn(
            backoff, [&chip, target_mhz, retries_left, backoff, &stats,
                      done = std::move(done)]() mutable {
                retryHoldingStream(chip, target_mhz, retries_left - 1,
                                   backoff * 2, stats, std::move(done));
            });
    });
}

} // namespace

void
enqueueGuardedSetFreq(npu::NpuChip &chip, double mhz, int retries,
                      Tick backoff, GuardStats &stats)
{
    if (!std::isfinite(mhz))
        throw std::invalid_argument(
            "enqueueGuardedSetFreq: non-finite target");
    double target = chip.freqTable().snap(mhz);
    chip.enqueueSetFreq(target);
    enqueueVerify(chip, target, retries, backoff, stats);
}

double
GuardedRunResult::meanLoss() const
{
    if (iterations.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &it : iterations)
        sum += it.loss;
    return sum / static_cast<double>(iterations.size());
}

double
GuardedRunResult::worstLoss() const
{
    double worst = 0.0;
    for (const auto &it : iterations)
        worst = std::max(worst, it.loss);
    return worst;
}

namespace {

double
medianOf(std::vector<double> values)
{
    std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    return values[mid];
}

} // namespace

GuardedRunResult
runGuarded(const npu::NpuConfig &chip_config,
           const models::Workload &workload,
           const std::vector<trace::SetFreqTrigger> &triggers,
           double baseline_seconds, const GuardedRunOptions &options)
{
    if (options.iterations <= 0)
        throw std::invalid_argument("runGuarded: no iterations");

    std::vector<trace::SetFreqTrigger> ordered =
        trace::orderTriggers(triggers, workload.iteration.size());
    trace::RunHarness harness(chip_config, workload, options.run);
    sim::Simulator &simulator = harness.simulator();
    npu::NpuChip &chip = harness.chip();
    trace::Profiler &profiler = harness.profiler();
    trace::PowerSampler &sampler = harness.sampler();

    DvfsGuard guard(options.guard, baseline_seconds);
    GuardStats &stats = guard.mutableStats();
    trace::SetFreqEnqueue guarded_set_freq;
    if (options.guard.enabled) {
        guarded_set_freq = [&](double mhz) {
            enqueueGuardedSetFreq(chip, mhz, options.guard.set_freq_retries,
                                  options.guard.retry_backoff, stats);
        };
    }

    // Warm-up repetitions (unmeasured, plain SetFreqs).
    harness.warmUp(ordered);

    GuardedRunResult result;
    result.baseline_seconds = baseline_seconds;
    double max_mhz = chip.freqTable().maxMhz();

    for (int iter = 0; iter < options.iterations; ++iter) {
        bool strategy_active = guard.strategyEnabled();
        if (guard.wantsThrottleReset()) {
            chip.resetThrottleGovernor();
            ++stats.throttle_resets;
        }

        profiler.openWindow();
        std::size_t samples_before = sampler.samples().size();
        std::uint64_t set_freqs_before = chip.dvfs().setFreqCount();
        std::uint64_t throttles_before = chip.dvfs().throttleEvents();
        sampler.start(/*stop_when_idle=*/true);

        if (strategy_active) {
            harness.enqueueIteration(ordered, guarded_set_freq);
        } else {
            // Fallback: pin the maximum frequency (re-asserted every
            // fallback iteration so a dropped pin cannot persist),
            // then run the iteration with the strategy disabled.
            enqueueGuardedSetFreq(chip, max_mhz,
                                  options.guard.set_freq_retries,
                                  options.guard.retry_backoff, stats);
            harness.enqueueIteration({});
        }
        simulator.run();
        chip.syncAccounting();

        GuardedIteration record;
        record.strategy_active = strategy_active;
        record.set_freq_count =
            chip.dvfs().setFreqCount() - set_freqs_before;
        record.throttled =
            chip.dvfs().throttled()
            || chip.dvfs().throttleEvents() > throttles_before;

        const std::vector<trace::OpRecord> &ops = profiler.records();
        Tick first = ops.empty() ? 0 : ops.front().start;
        Tick last = 0;
        for (const auto &r : ops)
            last = std::max(last, r.end);
        record.seconds = ticksToSeconds(last - first);

        // Median-filter the iteration's telemetry so an injected spike
        // cannot masquerade as a thermal violation.
        std::vector<double> temps;
        const auto &samples = sampler.samples();
        for (std::size_t s = samples_before; s < samples.size(); ++s)
            temps.push_back(samples[s].temperature_c);
        record.telemetry_ok = !temps.empty();
        record.temperature_c =
            temps.empty() ? 0.0 : medianOf(std::move(temps));

        GuardObservation observation;
        observation.iteration_seconds = record.seconds;
        observation.temperature_c = record.temperature_c;
        observation.telemetry_ok = record.telemetry_ok;
        observation.throttled = record.throttled;
        record.state_after = guard.observe(observation);
        record.loss = guard.lastLoss();
        result.iterations.push_back(record);
    }

    result.guard = guard.stats();
    if (const npu::FaultInjector *injector = chip.faultInjector())
        result.faults = injector->counters();
    return result;
}

} // namespace opdvfs::dvfs
