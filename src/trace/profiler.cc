#include "trace/profiler.h"

#include <algorithm>

namespace opdvfs::trace {

Profiler::Profiler(npu::NpuChip &chip, ProfilerNoise noise,
                   std::uint64_t seed)
    : noise_(noise), rng_(seed)
{
    chip.setObserver(this);
}

void
Profiler::registerSequence(const ops::OpSequence &sequence)
{
    for (const auto &op : sequence)
        metadata_[op.id] = &op;
}

void
Profiler::openWindow()
{
    records_.clear();
    records_.reserve(metadata_.size());
    window_open_ = true;
}

void
Profiler::opFinished(const npu::CompiledOp &op, Tick start, Tick end,
                     double f_mhz_at_end)
{
    auto it = metadata_.find(op.id);
    if (it == metadata_.end())
        return; // Unregistered helper op (e.g. a cool-down idle tail).

    double duration_noise = rng_.noiseFactor(noise_.duration_sigma);
    npu::PipelineRatios ratios;
    if (op.params().category == npu::OpCategory::Compute) {
        npu::PipelineRatios truth = op.timeline.ratios(f_mhz_at_end);
        auto jitter = [this](double r) {
            if (r <= 0.0)
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
    if (!window_open_)
        return;

    const ops::Op &meta = *it->second;
    OpRecord &record = records_.emplace_back();
    record.op_id = op.id;
    record.type = meta.type;
    record.category = meta.hw.category;
    record.start = start;
    record.end = end;
    record.f_mhz = f_mhz_at_end;
    record.duration_s = ticksToSeconds(end - start) * duration_noise;
    record.ratios = ratios;
}

} // namespace opdvfs::trace
