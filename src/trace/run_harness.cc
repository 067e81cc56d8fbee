#include "trace/run_harness.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "sim/stream.h"

namespace opdvfs::trace {

namespace {

npu::NpuConfig
atInitialFrequency(npu::NpuConfig config, double initial_mhz)
{
    config.initial_mhz = initial_mhz;
    return config;
}

} // namespace

std::vector<npu::CompiledOp>
compileIteration(const npu::NpuConfig &config,
                 const models::Workload &workload)
{
    // Any supported initial frequency compiles the same ops.
    sim::Simulator simulator;
    npu::NpuChip chip(simulator,
                      atInitialFrequency(
                          config, npu::FreqTable(config.freq).maxMhz()));
    std::vector<npu::CompiledOp> ops;
    ops.reserve(workload.iteration.size());
    for (const ops::Op &op : workload.iteration)
        ops.push_back(chip.compile(op.hw, op.id));
    return ops;
}

std::vector<SetFreqTrigger>
orderTriggers(std::vector<SetFreqTrigger> triggers, std::size_t op_count)
{
    for (const SetFreqTrigger &t : triggers) {
        if (t.after_op_index >= op_count)
            throw std::invalid_argument("trigger index out of range");
    }
    std::stable_sort(triggers.begin(), triggers.end(),
                     [](const SetFreqTrigger &a, const SetFreqTrigger &b) {
                         return a.after_op_index < b.after_op_index;
                     });
    return triggers;
}

RunHarness::RunHarness(const npu::NpuConfig &config,
                       const models::Workload &workload,
                       const std::vector<npu::CompiledOp> &ops,
                       const RunOptions &options)
    : warmup_seconds_(options.warmup_seconds),
      chip_(simulator_, atInitialFrequency(config, options.initial_mhz)),
      profiler_(chip_, options.profiler_noise, options.seed * 7919 + 1),
      sampler_(chip_, options.sample_period, options.sampler_noise,
               options.seed * 104729 + 2),
      ops_(ops)
{
    if (workload.iteration.empty())
        throw std::invalid_argument("RunHarness: empty workload");
    profiler_.registerSequence(workload.iteration);
}

void
RunHarness::enqueueIteration(const std::vector<SetFreqTrigger> &triggers,
                             const SetFreqEnqueue &set_freq)
{
    auto next = triggers.begin();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        chip_.enqueueOp(ops_[i]);
        for (; next != triggers.end() && next->after_op_index == i; ++next) {
            auto event = std::make_shared<sim::SyncEvent>();
            chip_.computeStream().enqueueRecord(event);
            chip_.setFreqStream().enqueueWait(event);
            if (set_freq)
                set_freq(next->mhz);
            else
                chip_.enqueueSetFreq(next->mhz);
        }
    }
    if (next != triggers.end())
        throw std::invalid_argument(
            "RunHarness: triggers not from orderTriggers()");
}

void
RunHarness::warmUp(const std::vector<SetFreqTrigger> &triggers)
{
    while (ticksToSeconds(simulator_.now()) < warmup_seconds_) {
        Tick before = simulator_.now();
        enqueueIteration(triggers);
        simulator_.run();
        if (simulator_.now() == before)
            throw std::invalid_argument(
                "RunHarness: an iteration takes no simulated time, so "
                "the warm-up cannot end");
    }
}

} // namespace opdvfs::trace
