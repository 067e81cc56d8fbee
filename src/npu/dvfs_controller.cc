#include "npu/dvfs_controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace opdvfs::npu {

DvfsController::DvfsController(sim::Simulator &simulator,
                               const FreqTable &table, double initial_mhz)
    : simulator_(simulator), table_(table), current_mhz_(initial_mhz),
      requested_mhz_(initial_mhz)
{
    if (!table.supports(initial_mhz))
        throw std::invalid_argument(
            "DvfsController: unsupported initial frequency");
    current_volts_ = table.voltageFor(initial_mhz);
}

void
DvfsController::apply(double mhz)
{
    if (!std::isfinite(mhz))
        throw std::invalid_argument(
            "DvfsController: non-finite frequency request");
    requested_mhz_ = table_.snap(mhz);
    ++set_freq_count_;
    setFrequency(grantedMhz());
}

double
DvfsController::grantedMhz() const
{
    return throttled() ? std::min(requested_mhz_, throttle_ceiling_)
                       : requested_mhz_;
}

void
DvfsController::setFrequency(double mhz)
{
    if (mhz == current_mhz_)
        return;
    double old = current_mhz_;
    current_mhz_ = mhz;
    current_volts_ = table_.voltageFor(mhz);
    for (const auto &listener : listeners_)
        listener(old, mhz);
}

void
DvfsController::setThrottleCeiling(double mhz)
{
    if (!std::isfinite(mhz))
        throw std::invalid_argument(
            "DvfsController: non-finite throttle ceiling");
    double ceiling = table_.snap(mhz);
    if (throttled() && ceiling == throttle_ceiling_)
        return;
    throttle_ceiling_ = ceiling;
    ++throttle_events_;
    for (const auto &listener : throttle_listeners_)
        listener(true, ceiling);
    setFrequency(grantedMhz());
}

void
DvfsController::clearThrottleCeiling()
{
    if (!throttled())
        return;
    throttle_ceiling_ = 0.0;
    for (const auto &listener : throttle_listeners_)
        listener(false, 0.0);
    setFrequency(requested_mhz_);
}

void
DvfsController::applyAfter(Tick delay, double mhz)
{
    simulator_.scheduleIn(delay, [this, mhz] { apply(mhz); });
}

void
DvfsController::onChange(Listener listener)
{
    listeners_.push_back(std::move(listener));
}

void
DvfsController::onThrottle(ThrottleListener listener)
{
    throttle_listeners_.push_back(std::move(listener));
}

} // namespace opdvfs::npu
