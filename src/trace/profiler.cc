#include "trace/profiler.h"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <stdexcept>

namespace opdvfs::trace {

Profiler::Profiler(npu::NpuChip &chip, ProfilerNoise noise,
                   std::uint64_t seed)
    : noise_(noise), rng_(seed)
{
    chip.setObserver(this);
}

void
Profiler::registerSequence(const ops::OpSequence &sequence,
                           std::span<const npu::CompiledOp> compiled)
{
    if (sequence.size() != compiled.size())
        throw std::invalid_argument(
            "Profiler: compiled iteration and sequence differ in size");
    sequence_ = sequence;
    compiled_ = compiled;
}

const ops::Op *
Profiler::metadataOf(const npu::CompiledOp &op) const
{
    // std::less orders pointers into different arrays too.
    std::less<const npu::CompiledOp *> before;
    const npu::CompiledOp *first = compiled_.data();
    if (before(&op, first) || !before(&op, first + compiled_.size()))
        return nullptr;
    return &sequence_[static_cast<std::size_t>(&op - first)];
}

void
Profiler::openWindow()
{
    rng_.skipGaussians(pending_deviates_);
    pending_deviates_ = 0;
    records_.clear();
    records_.reserve(sequence_.size());
    window_open_ = true;
}

namespace {

/** Whether a true pipeline ratio gets measurement noise (and a draw). */
bool
isJittered(double truth)
{
    return !(truth <= 0.0);
}

} // namespace

void
Profiler::opFinished(const npu::CompiledOp &op, Tick start, Tick end,
                     double f_mhz_at_end)
{
    const ops::Op *meta = metadataOf(op);
    if (!meta)
        return; // Unregistered helper op (e.g. a cool-down idle tail).

    bool compute = op.params().category == npu::OpCategory::Compute;
    if (!window_open_) {
        // Nothing is kept: count the deviates a record would draw, for
        // openWindow to skip.
        ++pending_deviates_;
        if (compute) {
            npu::PipelineRatios truth = op.timeline.ratios(f_mhz_at_end);
            for (double r : {truth.cube, truth.vector, truth.scalar,
                             truth.mte1, truth.mte2, truth.mte3})
                pending_deviates_ += isJittered(r);
        }
        return;
    }

    double duration_noise = rng_.noiseFactor(noise_.duration_sigma);
    npu::PipelineRatios ratios;
    if (compute) {
        npu::PipelineRatios truth = op.timeline.ratios(f_mhz_at_end);
        auto jitter = [this](double r) {
            if (!isJittered(r))
                return 0.0;
            return std::clamp(r + rng_.gaussian(0.0, noise_.ratio_sigma),
                              0.0, 1.0);
        };
        ratios.cube = jitter(truth.cube);
        ratios.vector = jitter(truth.vector);
        ratios.scalar = jitter(truth.scalar);
        ratios.mte1 = jitter(truth.mte1);
        ratios.mte2 = jitter(truth.mte2);
        ratios.mte3 = jitter(truth.mte3);
    }

    OpRecord &record = records_.emplace_back();
    record.op_id = op.id;
    record.type = meta->type;
    record.category = meta->hw.category;
    record.start = start;
    record.end = end;
    record.f_mhz = f_mhz_at_end;
    record.duration_s = ticksToSeconds(end - start) * duration_noise;
    record.ratios = ratios;
}

} // namespace opdvfs::trace
