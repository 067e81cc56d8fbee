/**
 * @file
 * Core-domain frequency controller.
 *
 * Tracks the AICore frequency domain's operating point, snaps requests
 * to the supported table, applies the firmware's automatic voltage
 * adaptation (Sect. 5.1), and notifies listeners (the execution engine
 * re-plans in-flight operators; the energy integrator closes the
 * current accounting segment).
 *
 * The controller also models the firmware's thermal-protection clamp:
 * while a throttle ceiling is set, requests above it are granted only
 * up to the ceiling, and the last requested frequency is restored when
 * the ceiling clears.  Throttle transitions notify their own listener
 * set so runtime guards can observe firmware interventions.
 */

#ifndef OPDVFS_NPU_DVFS_CONTROLLER_H
#define OPDVFS_NPU_DVFS_CONTROLLER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "npu/freq_table.h"
#include "sim/simulator.h"

namespace opdvfs::npu {

/** Owns the core-domain operating point. */
class DvfsController
{
  public:
    /** Listener signature: (old_mhz, new_mhz). */
    using Listener = std::function<void(double, double)>;

    /** Throttle listener signature: (active, ceiling_mhz). */
    using ThrottleListener = std::function<void(bool, double)>;

    DvfsController(sim::Simulator &simulator, const FreqTable &table,
                   double initial_mhz);

    /** Current core frequency in MHz. */
    double currentMhz() const { return current_mhz_; }

    /** Firmware voltage for the current frequency. */
    double currentVolts() const { return current_volts_; }

    /**
     * Change the frequency immediately.  Finite out-of-table requests
     * degrade gracefully: they snap to the nearest supported point and
     * still count as a SetFreq.  Non-finite requests throw.  While a
     * throttle ceiling is active the granted frequency is capped at
     * the ceiling; the request is remembered and restored on release.
     */
    void apply(double mhz);

    /** Schedule apply(@p mhz) after @p delay ticks. */
    void applyAfter(Tick delay, double mhz);

    /** Register a change listener (fires on every actual change). */
    void onChange(Listener listener);

    /** Register a throttle listener (fires on clamp set/clear). */
    void onThrottle(ThrottleListener listener);

    /** Number of apply() calls executed (SetFreq count). */
    std::uint64_t setFreqCount() const { return set_freq_count_; }

    /** Last frequency requested via apply() (pre-clamp, post-snap). */
    double requestedMhz() const { return requested_mhz_; }

    // --- firmware thermal-protection clamp --------------------------------

    /**
     * Engage the throttle: cap the operating point at @p mhz (snapped
     * to the table).  A current frequency above the ceiling is clamped
     * immediately; the clamp does not count as a SetFreq.
     */
    void setThrottleCeiling(double mhz);

    /** Release the throttle and restore the last requested frequency. */
    void clearThrottleCeiling();

    /** True while a throttle ceiling is engaged. */
    bool throttled() const { return throttle_ceiling_ > 0.0; }

    /** Active ceiling in MHz (0 when not throttled). */
    double throttleCeilingMhz() const { return throttle_ceiling_; }

    /** Number of throttle engage events. */
    std::uint64_t throttleEvents() const { return throttle_events_; }

    const FreqTable &table() const { return table_; }

  private:
    /** Switch the operating point and notify change listeners. */
    void setFrequency(double mhz);

    /** Requested frequency, capped by the ceiling when throttled. */
    double grantedMhz() const;

    sim::Simulator &simulator_;
    const FreqTable &table_;
    double current_mhz_;
    /** The table's voltage for current_mhz_, set with it. */
    double current_volts_ = 0.0;
    double requested_mhz_;
    double throttle_ceiling_ = 0.0;
    std::uint64_t set_freq_count_ = 0;
    std::uint64_t throttle_events_ = 0;
    std::vector<Listener> listeners_;
    std::vector<ThrottleListener> throttle_listeners_;
};

} // namespace opdvfs::npu

#endif // OPDVFS_NPU_DVFS_CONTROLLER_H
