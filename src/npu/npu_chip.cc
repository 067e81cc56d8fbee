#include "npu/npu_chip.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace opdvfs::npu {

double
EnergyCounters::aicoreAvgWatts() const
{
    double s = ticksToSeconds(elapsed_ticks);
    return s > 0.0 ? aicore_joules / s : 0.0;
}

double
EnergyCounters::socAvgWatts() const
{
    double s = ticksToSeconds(elapsed_ticks);
    return s > 0.0 ? soc_joules / s : 0.0;
}

namespace {

/** Apply the chip-level uncore operating point to the memory config. */
MemorySystemConfig
scaledMemory(const NpuConfig &config)
{
    MemorySystemConfig memory = config.memory;
    memory.bandwidth_scale *= config.uncore_scale;
    return memory;
}

} // namespace

NpuChip::NpuChip(sim::Simulator &simulator, const NpuConfig &config)
    : simulator_(simulator),
      config_(config),
      freq_table_(config.freq),
      memory_(scaledMemory(config)),
      power_(config.aicore_power, config.uncore_power),
      thermal_(config.thermal),
      dvfs_(simulator, freq_table_, config.initial_mhz),
      compute_stream_(simulator, "compute"),
      set_freq_stream_(simulator, "setfreq")
{
    if (config_.max_energy_segment <= 0)
        throw std::invalid_argument("NpuChip: invalid energy segment");

    if (config_.faults.anyEnabled())
        fault_injector_ = std::make_unique<FaultInjector>(config_.faults);

    dvfs_.onChange([this](double old_mhz, double new_mhz) {
        // Close the accounting segment at the *old* operating point,
        // then re-time whatever is in flight.
        accrueAtFrequency(old_mhz);
        replanInFlight(new_mhz);
    });
}

CompiledOp
NpuChip::compile(const HwOpParams &params, std::uint64_t op_id) const
{
    AicoreTimeline timeline(params, memory_);
    double reference_seconds = timeline.seconds(freq_table_.maxMhz());
    return {op_id, timeline, reference_seconds};
}

void
NpuChip::enqueueOp(const CompiledOp &op)
{
    const CompiledOp *queued = &op;
    compute_stream_.enqueue([this, queued](std::function<void()> done) {
        startOp(*queued, std::move(done));
    });
}

void
NpuChip::enqueueOp(const HwOpParams &params, std::uint64_t op_id)
{
    one_off_ops_.push_back(compile(params, op_id));
    enqueueOp(one_off_ops_.back());
}

void
NpuChip::startOp(const CompiledOp &op, std::function<void()> done)
{
    accrueEnergy();
    in_flight_.op = &op;
    in_flight_.start_tick = simulator_.now();
    in_flight_.work_remaining = 1.0;
    in_flight_.done = std::move(done);
    in_flight_.epoch = ++last_epoch_;
    planInFlight();
}

void
NpuChip::planInFlight()
{
    double seconds = in_flight_.work_remaining
        * in_flight_.op->timeline.seconds(dvfs_.currentMhz());
    // Silicon aging slows every operator by the same factor; the level
    // at plan time is a good approximation because the drift ramp is
    // orders of magnitude slower than one operator.
    if (fault_injector_)
        seconds *= fault_injector_->latencyScale(simulator_.now());
    Tick duration = secondsToTicks(std::max(seconds, 0.0));
    in_flight_.plan_start = simulator_.now();
    in_flight_.plan_duration = duration;
    std::uint64_t epoch = in_flight_.epoch;
    simulator_.scheduleIn(duration,
                          [this, epoch] { retireInFlight(epoch); });
}

void
NpuChip::retireInFlight(std::uint64_t epoch)
{
    if (!in_flight_.op || in_flight_.epoch != epoch)
        return; // Re-planned after a frequency change.
    accrueEnergy();
    if (in_flight_.epoch != epoch) {
        // The accrual tripped (or released) the firmware throttle, and
        // the resulting frequency change re-planned this very
        // operator; the re-planned completion event owns it now.
        return;
    }
    energy_at_last_retire_ = energy_;
    const CompiledOp &op = *in_flight_.op;
    Tick start = in_flight_.start_tick;
    std::function<void()> done = std::move(in_flight_.done);
    in_flight_.op = nullptr;
    if (observer_)
        observer_->opFinished(op, start, simulator_.now(),
                              dvfs_.currentMhz());
    if (!one_off_ops_.empty() && &op == &one_off_ops_.front())
        one_off_ops_.pop_front();
    done();
}

void
NpuChip::replanInFlight(double /* new_mhz */)
{
    if (!in_flight_.op)
        return;
    if (in_flight_.plan_duration > 0) {
        double elapsed = static_cast<double>(simulator_.now()
                                             - in_flight_.plan_start);
        double frac = std::clamp(
            elapsed / static_cast<double>(in_flight_.plan_duration), 0.0,
            1.0);
        in_flight_.work_remaining *= 1.0 - frac;
    }
    in_flight_.epoch = ++last_epoch_;
    planInFlight();
}

void
NpuChip::enqueueSetFreq(double mhz)
{
    if (!std::isfinite(mhz))
        throw std::invalid_argument("NpuChip: non-finite SetFreq target");
    mhz = freq_table_.snap(mhz);
    set_freq_stream_.enqueue([this, mhz](std::function<void()> done) {
        Tick latency = config_.set_freq_latency;
        bool dropped = false;
        if (fault_injector_) {
            latency += fault_injector_->setFreqExtraLatency();
            dropped = fault_injector_->dropSetFreq();
        }
        simulator_.scheduleIn(latency,
                              [this, mhz, dropped, done = std::move(done)] {
                                  // A dropped command consumed the
                                  // stream time but never reached the
                                  // frequency domain.
                                  if (!dropped)
                                      dvfs_.apply(mhz);
                                  done();
                              });
    });
}

void
NpuChip::resetThrottleGovernor()
{
    if (fault_injector_)
        fault_injector_->forceRelease();
    dvfs_.clearThrottleCeiling();
}

void
NpuChip::maybeUpdateThrottle()
{
    if (!fault_injector_ || throttle_updating_)
        return;
    throttle_updating_ = true;
    ThrottleAction action = fault_injector_->updateThrottle(
        simulator_.now(), thermal_.temperature());
    if (action == ThrottleAction::Trip)
        dvfs_.setThrottleCeiling(config_.faults.throttle_mhz);
    else if (action == ThrottleAction::Release)
        dvfs_.clearThrottleCeiling();
    throttle_updating_ = false;
}

PowerState
NpuChip::powerState() const
{
    PowerState state;
    state.f_mhz = dvfs_.currentMhz();
    state.volts = dvfs_.currentVolts();
    state.uncore_scale = config_.uncore_scale;
    state.delta_t = thermal_.deltaT();
    if (fault_injector_) {
        state.aging_scale =
            fault_injector_->agingDynamicScale(simulator_.now());
    }
    if (const CompiledOp *op = in_flight_.op) {
        const HwOpParams &params = op->params();
        state.alpha_core = params.alpha_core;
        state.uncore_activity = params.uncore_activity;
        // Uncore activity tracks the achieved transfer rate: when the
        // core slows, the operator moves the same bytes over a longer
        // window, so instantaneous uncore utilisation drops
        // proportionally.
        if (params.category == OpCategory::Compute
            && op->reference_seconds > 0.0) {
            double now_seconds = op->timeline.seconds(state.f_mhz);
            if (now_seconds > 0.0) {
                state.uncore_activity *=
                    op->reference_seconds / now_seconds;
                state.uncore_activity =
                    std::min(state.uncore_activity, 1.0);
            }
        }
    }
    return state;
}

double
NpuChip::instantAicorePower() const
{
    return power_.aicorePower(powerState());
}

double
NpuChip::instantSocPower() const
{
    return power_.socPower(powerState());
}

double
NpuChip::temperature() const
{
    return thermal_.temperature();
}

void
NpuChip::syncAccounting()
{
    accrueEnergy();
}

void
NpuChip::accrueEnergy()
{
    accrueAtFrequency(dvfs_.currentMhz());
}

void
NpuChip::accrueAtFrequency(double f_mhz)
{
    Tick now = simulator_.now();
    if (fault_injector_) {
        thermal_.setAmbientOffset(
            fault_injector_->ambientOffsetCelsius(now));
    }
    // A frequency change closes its segment at the old frequency, whose
    // voltage the controller no longer holds.
    double volts = f_mhz == dvfs_.currentMhz()
        ? dvfs_.currentVolts()
        : freq_table_.voltageFor(f_mhz);
    while (last_accrual_ < now) {
        Tick seg_end =
            std::min(now, last_accrual_ + config_.max_energy_segment);
        double dt = ticksToSeconds(seg_end - last_accrual_);

        PowerState state = powerState();
        state.f_mhz = f_mhz;
        state.volts = volts;
        state.delta_t = thermal_.deltaT();

        double p_core = power_.aicorePower(state);
        double p_soc = power_.socPower(state);
        energy_.aicore_joules += p_core * dt;
        energy_.soc_joules += p_soc * dt;
        energy_.elapsed_ticks += seg_end - last_accrual_;

        thermal_.advance(dt, p_soc);
        last_accrual_ = seg_end;
    }
    maybeUpdateThrottle();
}

void
NpuChip::resetEnergy()
{
    syncAccounting();
    energy_ = EnergyCounters{};
    energy_at_last_retire_ = EnergyCounters{};
}

bool
NpuChip::idle() const
{
    return compute_stream_.idle() && set_freq_stream_.idle();
}

} // namespace opdvfs::npu
