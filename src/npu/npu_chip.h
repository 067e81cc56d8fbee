/**
 * @file
 * The assembled NPU: frequency domain, memory hierarchy, thermal and
 * power state, DVFS controller, and the operator execution engine.
 *
 * Operators run back-to-back on a compute stream; a separate SetFreq
 * stream carries frequency-adjustment operators (Sect. 7.1).  Energy is
 * integrated exactly over piecewise-constant power segments, with long
 * segments chunked so the RC thermal state, and hence the
 * temperature-dependent leakage, stays current.
 *
 * A mid-operator frequency change re-plans the in-flight operator: the
 * completed work fraction is preserved and the remainder re-timed at
 * the new frequency.
 *
 * Operators execute from CompiledOp descriptors built once and shared
 * read-only by every run of a batch, and the op lifecycle (stream
 * task, completion callback, retire event) uses closures small enough
 * for std::function's local buffer, so a simulated operator costs no
 * heap allocation.
 */

#ifndef OPDVFS_NPU_NPU_CHIP_H
#define OPDVFS_NPU_NPU_CHIP_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "npu/aicore_timeline.h"
#include "npu/dvfs_controller.h"
#include "npu/fault_injector.h"
#include "npu/freq_table.h"
#include "npu/memory_system.h"
#include "npu/op_params.h"
#include "npu/power.h"
#include "npu/thermal.h"
#include "sim/simulator.h"
#include "sim/stream.h"

namespace opdvfs::npu {

/** Everything needed to instantiate a chip. */
struct NpuConfig
{
    FreqTableConfig freq;
    MemorySystemConfig memory;
    AicorePowerParams aicore_power;
    UncorePowerParams uncore_power;
    ThermalConfig thermal;
    /** Execution latency of one SetFreq operator (paper: 1 ms). */
    Tick set_freq_latency = kTicksPerMs;
    /** Initial core frequency. */
    double initial_mhz = 1800.0;
    /**
     * Uncore operating point in (0, 1]; scales L2/HBM bandwidth and
     * uncore dynamic power (Sect. 8.2 future-work scenario; the real
     * device is fixed at 1.0).
     */
    double uncore_scale = 1.0;
    /** Max energy-integration chunk, bounding thermal staleness. */
    Tick max_energy_segment = 2 * kTicksPerMs;
    /**
     * Platform misbehaviour to inject (all classes off by default, in
     * which case no injector is instantiated and execution is
     * bit-for-bit identical to a chip without this field).
     */
    FaultPlan faults;
};

/**
 * An operator compiled for one chip configuration: its ground-truth
 * parameters plus the per-op constants execution needs (the timeline's
 * Ld/St coefficients and the duration at the top frequency).  Built by
 * NpuChip::compile() once, then executed any number of times by any
 * chip of that configuration; it must outlive every execution it is
 * queued for.
 */
struct CompiledOp
{
    /** Opaque tag handed back to the op observer. */
    std::uint64_t id = 0;
    AicoreTimeline timeline;
    /** Duration at the top frequency; anchors uncore-activity scaling. */
    double reference_seconds = 0.0;

    const HwOpParams &params() const { return timeline.params(); }
};

/** Cumulative energy counters. */
struct EnergyCounters
{
    double aicore_joules = 0.0;
    double soc_joules = 0.0;
    /** Simulated span the counters cover. */
    Tick elapsed_ticks = 0;

    double aicoreAvgWatts() const;
    double socAvgWatts() const;
};

/** The simulated accelerator. */
class NpuChip
{
  public:
    /** Observer for operator completion; used by the profiler. */
    struct OpObserver
    {
        virtual ~OpObserver() = default;
        /**
         * Fired when @p op retires.  @p f_mhz_at_end is the core
         * frequency at that moment.
         */
        virtual void opFinished(const CompiledOp &op, Tick start, Tick end,
                                double f_mhz_at_end) = 0;
    };

    NpuChip(sim::Simulator &simulator, const NpuConfig &config = {});

    /**
     * Compile @p params for this chip; @p op_id is the tag the observer
     * sees.  Validates the parameters.
     * @throws std::invalid_argument for malformed parameters.
     */
    CompiledOp compile(const HwOpParams &params, std::uint64_t op_id) const;

    /**
     * Queue @p op for execution on the compute stream.  @p op must
     * have been compiled for this chip's configuration and must stay
     * alive until it retires.
     */
    void enqueueOp(const CompiledOp &op);

    /**
     * Convenience for one-off operators: compile @p params into
     * chip-owned storage (released when the op retires) and queue it.
     */
    void enqueueOp(const HwOpParams &params, std::uint64_t op_id);

    /** Install the (single) op observer; may be null. */
    void setObserver(OpObserver *observer) { observer_ = observer; }

    /**
     * Queue a SetFreq operator on the SetFreq stream: occupies the
     * stream for the configured latency (plus any injected jitter),
     * then switches the core frequency — unless the fault injector
     * drops the command, in which case the stream time is consumed but
     * the frequency is left unchanged.  Mirrors the CANN SetFreq
     * operator (Sect. 7.1).  Finite out-of-table targets snap to the
     * nearest supported point; non-finite targets throw.
     */
    void enqueueSetFreq(double mhz);

    // --- component access -------------------------------------------------

    sim::Simulator &simulator() { return simulator_; }
    const FreqTable &freqTable() const { return freq_table_; }
    const MemorySystem &memorySystem() const { return memory_; }
    DvfsController &dvfs() { return dvfs_; }
    const DvfsController &dvfs() const { return dvfs_; }
    sim::Stream &computeStream() { return compute_stream_; }
    sim::Stream &setFreqStream() { return set_freq_stream_; }
    const NpuConfig &config() const { return config_; }

    /** Active fault injector, or nullptr when no fault is configured. */
    FaultInjector *faultInjector() { return fault_injector_.get(); }
    const FaultInjector *faultInjector() const
    {
        return fault_injector_.get();
    }

    /**
     * Reset the DVFS governor: clears a (possibly latched) firmware
     * throttle and restores the last requested frequency.  A genuinely
     * hot die re-trips on the next accounting step; a spurious or
     * latched clamp stays cleared.  This is the repair lever the
     * runtime guard pulls when a throttled device violates its
     * performance envelope.
     */
    void resetThrottleGovernor();

    // --- telemetry (ground truth; samplers add noise) ---------------------

    /** Instantaneous AICore power right now. */
    double instantAicorePower() const;
    /** Instantaneous SoC power right now. */
    double instantSocPower() const;
    /** Die temperature right now. */
    double temperature() const;

    /**
     * Bring energy/thermal accounting up to the present.  Telemetry
     * samplers call this before reading instantaneous values.
     */
    void syncAccounting();

    /** Cumulative energy since the last reset. */
    const EnergyCounters &energy() const { return energy_; }

    /**
     * Energy snapshot taken when the most recent operator retired.
     * Lets measurement windows end exactly at the last operator even
     * if telemetry events extend the simulation afterwards.
     */
    const EnergyCounters &energyAtLastRetire() const
    {
        return energy_at_last_retire_;
    }

    /** Zero the energy counters (keeps thermal state). */
    void resetEnergy();

    /** True when both streams are drained. */
    bool idle() const;

  private:
    /** Execution state of the op occupying the compute stream. */
    struct InFlight
    {
        /** Null while the compute stream has no op in flight. */
        const CompiledOp *op = nullptr;
        Tick start_tick = 0;
        /** Fraction of the operator's work still outstanding, [0, 1]. */
        double work_remaining = 1.0;
        Tick plan_start = 0;
        Tick plan_duration = 0;
        /**
         * Chip-wide unique id of the current plan; a completion event
         * scheduled for any other plan is stale and ignored.
         */
        std::uint64_t epoch = 0;
        std::function<void()> done;
    };

    /** Start @p op now (the compute-stream task body). */
    void startOp(const CompiledOp &op, std::function<void()> done);

    /** Retire the in-flight op if plan @p epoch is still current. */
    void retireInFlight(std::uint64_t epoch);

    /** Current power-relevant state. */
    PowerState powerState() const;

    /** Integrate energy from the last accrual point to now. */
    void accrueEnergy();

    /** Integrate up to now while pricing the segment at @p f_mhz. */
    void accrueAtFrequency(double f_mhz);

    /** (Re-)schedule completion of the in-flight operator. */
    void planInFlight();

    /** Re-plan the in-flight operator after a frequency change. */
    void replanInFlight(double new_mhz);

    /** Let the firmware throttle react to the current die temperature. */
    void maybeUpdateThrottle();

    sim::Simulator &simulator_;
    NpuConfig config_;
    FreqTable freq_table_;
    MemorySystem memory_;
    PowerCalculator power_;
    ThermalModel thermal_;
    DvfsController dvfs_;
    sim::Stream compute_stream_;
    sim::Stream set_freq_stream_;

    OpObserver *observer_ = nullptr;

    /** Present only when the config enables at least one fault class. */
    std::unique_ptr<FaultInjector> fault_injector_;
    /** Re-entrancy guard for throttle-induced frequency changes. */
    bool throttle_updating_ = false;

    InFlight in_flight_;
    /** Last plan id handed out (see InFlight::epoch). */
    std::uint64_t last_epoch_ = 0;
    /** Ops queued through the HwOpParams overload, in queue order. */
    std::deque<CompiledOp> one_off_ops_;

    Tick last_accrual_ = 0;
    EnergyCounters energy_;
    EnergyCounters energy_at_last_retire_;
};

} // namespace opdvfs::npu

#endif // OPDVFS_NPU_NPU_CHIP_H
