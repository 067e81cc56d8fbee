/**
 * @file
 * Operator-level profiler: the stand-in for the CANN profiler the
 * paper uses to collect execution sequences, per-operator timings and
 * pipeline-utilisation ratios (Sect. 6.2 step 1).
 *
 * Records carry realistic measurement noise; downstream model fitting
 * and classification never see the simulator's ground truth directly.
 *
 * Records are kept only inside a measurement window the caller opens
 * (after warm-up, per measured iteration).  The noise stream does not
 * depend on the window: every registered op that finishes draws its
 * noise, recorded or not, so a window sees exactly the records it would
 * have seen had the profiler recorded from the start.
 */

#ifndef OPDVFS_TRACE_PROFILER_H
#define OPDVFS_TRACE_PROFILER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "npu/npu_chip.h"
#include "ops/op.h"

namespace opdvfs::trace {

/** One profiled operator execution. */
struct OpRecord
{
    /** Operator id: its index within the iteration sequence. */
    std::uint64_t op_id = 0;
    std::string type;
    npu::OpCategory category = npu::OpCategory::Compute;
    Tick start = 0;
    Tick end = 0;
    /** Measured (noisy) duration in seconds. */
    double duration_s = 0.0;
    /** Core frequency when the operator retired. */
    double f_mhz = 0.0;
    /** Measured (noisy) pipeline-utilisation ratios. */
    npu::PipelineRatios ratios;
};

/** Profiler noise configuration. */
struct ProfilerNoise
{
    /** Relative sigma of duration measurements. */
    double duration_sigma = 0.006;
    /** Absolute sigma of pipeline ratios. */
    double ratio_sigma = 0.015;
};

/** Observes a chip and records operators inside measurement windows. */
class Profiler : public npu::NpuChip::OpObserver
{
  public:
    Profiler(npu::NpuChip &chip, ProfilerNoise noise, std::uint64_t seed);

    /** Register the metadata of the ops about to run. */
    void registerSequence(const ops::OpSequence &sequence);

    /**
     * Open a measurement window: drop earlier records and keep one per
     * registered op that finishes from now on, with room reserved for
     * one record per registered op.  Before the first window nothing
     * is kept.
     */
    void openWindow();

    /**
     * Draw the op's measurement noise (the duration factor, then one
     * deviate per nonzero true pipeline ratio, in PipelineRatios field
     * order) and, inside a window, keep its record.  Unregistered ops
     * (e.g. a cool-down idle tail) draw nothing.
     */
    void opFinished(const npu::CompiledOp &op, Tick start, Tick end,
                    double f_mhz_at_end) override;

    /** Records of the current window, in completion order. */
    const std::vector<OpRecord> &records() const { return records_; }

    /**
     * Move the current window's records out; the window stays open
     * and holds none.
     */
    std::vector<OpRecord> takeRecords() { return std::move(records_); }

  private:
    ProfilerNoise noise_;
    Rng rng_;
    std::unordered_map<std::uint64_t, const ops::Op *> metadata_;
    bool window_open_ = false;
    std::vector<OpRecord> records_;
};

} // namespace opdvfs::trace

#endif // OPDVFS_TRACE_PROFILER_H
