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
 * depend on the window: every registered op that finishes advances it
 * by the deviates its record takes, recorded or not, so a window sees
 * exactly the records it would have seen had the profiler recorded
 * from the start.  Nearly every simulated op retires during the
 * warm-up, before any window, so such an op only adds its deviate
 * count to a tally, and opening the window skips the tally in one
 * batch (Rng::skipGaussians).  Only the profiler draws from its
 * stream, so the words are consumed in the same order, just later.
 *
 * An op is registered iff it is an element of the compiled iteration
 * the profiler was given; its metadata is the sequence entry at the
 * same position, so finding it is a pointer difference.
 */

#ifndef OPDVFS_TRACE_PROFILER_H
#define OPDVFS_TRACE_PROFILER_H

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "npu/npu_chip.h"
#include "ops/op.h"

namespace opdvfs::trace {

/** One profiled operator execution. */
struct OpRecord
{
    /** The op's id (ops::Op::id), unique within its iteration. */
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

    /**
     * Register the ops about to run: @p compiled, the iteration the
     * chip executes, compiled from @p sequence in order.  The ops of
     * @p compiled are the registered ones, each with the metadata of
     * @p sequence's entry at its position.  Replaces any earlier
     * registration; both must outlive the profiler's use of them.
     * @throws std::invalid_argument when the sizes differ.
     */
    void registerSequence(const ops::OpSequence &sequence,
                          std::span<const npu::CompiledOp> compiled);

    /**
     * Open a measurement window: skip the deviates of the ops that
     * retired before it, drop earlier records and keep one per
     * registered op that finishes from now on, with room reserved for
     * one record per registered op.  Before the first window nothing
     * is kept.
     */
    void openWindow();

    /**
     * Draw the op's measurement noise (the duration factor, then, for a
     * Compute op, one deviate per true pipeline ratio that is not <= 0,
     * in PipelineRatios field order) and, inside a window, keep its
     * record.  Outside a window the same deviates are only counted,
     * for the next openWindow to skip.  Unregistered ops (e.g. a
     * cool-down idle tail) draw nothing.
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
    /** @p op's metadata, or nullptr when @p op is not registered. */
    const ops::Op *metadataOf(const npu::CompiledOp &op) const;

    ProfilerNoise noise_;
    Rng rng_;
    std::span<const ops::Op> sequence_;
    std::span<const npu::CompiledOp> compiled_;
    /** Deviates of ops that retired before the first window. */
    std::uint64_t pending_deviates_ = 0;
    bool window_open_ = false;
    std::vector<OpRecord> records_;
};

} // namespace opdvfs::trace

#endif // OPDVFS_TRACE_PROFILER_H
