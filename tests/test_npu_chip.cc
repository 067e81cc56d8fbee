#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "npu/aicore_timeline.h"
#include "npu/npu_chip.h"

namespace opdvfs::npu {
namespace {

HwOpParams
computeOp(double core_cycles = 1.8e6, double alpha = 2e-8)
{
    HwOpParams params;
    params.category = OpCategory::Compute;
    params.scenario = Scenario::PingPongIndependent;
    params.n = 4;
    params.core_cycles = core_cycles / 4.0;
    params.ld_volume_bytes = 1e5;
    params.st_volume_bytes = 1e5;
    params.alpha_core = alpha;
    params.uncore_activity = 0.3;
    return params;
}

struct RecordingObserver : NpuChip::OpObserver
{
    struct Entry
    {
        std::uint64_t op_id;
        Tick start;
        Tick end;
        double f_mhz;
    };
    std::vector<Entry> finished;

    void
    opFinished(const CompiledOp &op, Tick start, Tick end,
               double f_mhz) override
    {
        finished.push_back({op.id, start, end, f_mhz});
    }
};

TEST(NpuChip, FixedFrequencyOpDurationMatchesTimeline)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    RecordingObserver observer;
    chip.setObserver(&observer);

    HwOpParams op = computeOp();
    chip.enqueueOp(op, 7);
    sim.run();

    ASSERT_EQ(observer.finished.size(), 1u);
    AicoreTimeline timeline(op, chip.memorySystem());
    double expected = timeline.seconds(1800.0);
    double actual = ticksToSeconds(observer.finished[0].end
                                   - observer.finished[0].start);
    EXPECT_NEAR(actual, expected, 1e-9);
    EXPECT_DOUBLE_EQ(observer.finished[0].f_mhz, 1800.0);
}

TEST(NpuChip, OpsRunBackToBack)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    RecordingObserver observer;
    chip.setObserver(&observer);
    for (std::uint64_t i = 0; i < 5; ++i)
        chip.enqueueOp(computeOp(), i);
    sim.run();
    ASSERT_EQ(observer.finished.size(), 5u);
    for (std::size_t i = 1; i < 5; ++i) {
        EXPECT_EQ(observer.finished[i].start, observer.finished[i - 1].end);
    }
}

TEST(NpuChip, SetFreqTakesLatencyAndAppliesAfterwards)
{
    sim::Simulator sim;
    NpuConfig config;
    config.set_freq_latency = kTicksPerMs;
    NpuChip chip(sim, config);
    chip.enqueueSetFreq(1200.0);
    EXPECT_DOUBLE_EQ(chip.dvfs().currentMhz(), 1800.0);
    sim.run();
    EXPECT_DOUBLE_EQ(chip.dvfs().currentMhz(), 1200.0);
    EXPECT_EQ(sim.now(), kTicksPerMs);
}

TEST(NpuChip, MidOpFrequencyDropStretchesRemainder)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    RecordingObserver observer;
    chip.setObserver(&observer);

    HwOpParams op = computeOp(1.8e9); // ~1 s at 1800 MHz, core bound
    op.ld_volume_bytes = 0.0;
    op.st_volume_bytes = 0.0;
    chip.enqueueOp(op, 0);

    // Halfway through, drop to 1000 MHz (applied instantaneously).
    sim.scheduleIn(kTicksPerSecond / 2,
                   [&chip] { chip.dvfs().apply(1000.0); });
    sim.run();

    ASSERT_EQ(observer.finished.size(), 1u);
    double actual = ticksToSeconds(observer.finished[0].end);
    // First half at 1800 (0.5 s of work done), remaining 50% of work at
    // 1000 MHz takes 0.5 * 1.8 = 0.9 s: total 1.4 s.
    EXPECT_NEAR(actual, 1.4, 0.01);
    EXPECT_DOUBLE_EQ(observer.finished[0].f_mhz, 1000.0);
}

TEST(NpuChip, MidOpFrequencyRiseShortensRemainder)
{
    sim::Simulator sim;
    NpuConfig config;
    config.initial_mhz = 1000.0;
    NpuChip chip(sim, config);
    RecordingObserver observer;
    chip.setObserver(&observer);

    HwOpParams op = computeOp(1.0e9); // 1 s at 1000 MHz
    op.ld_volume_bytes = 0.0;
    op.st_volume_bytes = 0.0;
    chip.enqueueOp(op, 0);
    sim.scheduleIn(kTicksPerSecond / 2,
                   [&chip] { chip.dvfs().apply(1800.0); });
    sim.run();

    ASSERT_EQ(observer.finished.size(), 1u);
    double actual = ticksToSeconds(observer.finished[0].end);
    // 0.5 s at 1000 + remaining half of the work at 1.8x speed.
    EXPECT_NEAR(actual, 0.5 + 0.5 / 1.8, 0.01);
}

TEST(NpuChip, EnergyMatchesAnalyticForConstantLoad)
{
    sim::Simulator sim;
    NpuConfig config;
    config.thermal.k_per_watt = 0.0; // isolate from thermal feedback
    NpuChip chip(sim, config);

    HwOpParams op = computeOp(1.8e9, 2e-8);
    op.ld_volume_bytes = 0.0;
    op.st_volume_bytes = 0.0;
    chip.enqueueOp(op, 0);
    sim.run();
    chip.syncAccounting();

    double volts = chip.freqTable().voltageFor(1800.0);
    double fv2 = 1.8e9 * volts * volts;
    PowerCalculator calc(config.aicore_power, config.uncore_power);
    PowerState state;
    state.f_mhz = 1800.0;
    state.volts = volts;
    state.alpha_core = op.alpha_core;
    state.uncore_activity = op.uncore_activity;
    double expected_power = calc.aicorePower(state);
    EXPECT_GT(fv2, 0.0);
    EXPECT_NEAR(chip.energy().aicoreAvgWatts(), expected_power,
                expected_power * 1e-6);
}

TEST(NpuChip, EnergyAccountingInsensitiveToSyncFrequency)
{
    // With the thermal feedback disabled, energy integration over
    // piecewise-constant power must be exactly segmentation-invariant.
    auto run_with_syncs = [](int syncs) {
        sim::Simulator sim;
        NpuConfig config;
        config.thermal.k_per_watt = 0.0;
        NpuChip chip(sim, config);
        HwOpParams op = computeOp(1.8e8);
        chip.enqueueOp(op, 0);
        for (int i = 1; i <= syncs; ++i) {
            sim.scheduleIn(i * kTicksPerMs,
                           [&chip] { chip.syncAccounting(); });
        }
        sim.run();
        chip.syncAccounting();
        return chip.energy().aicore_joules;
    };
    EXPECT_NEAR(run_with_syncs(0), run_with_syncs(50),
                run_with_syncs(0) * 1e-9);
}

TEST(NpuChip, EnergyAtLastRetireExcludesIdleTail)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    chip.enqueueOp(computeOp(1.8e8), 0);
    sim.run();
    // Let time pass idle, then account.
    sim.scheduleIn(kTicksPerSecond, [] {});
    sim.run();
    chip.syncAccounting();
    EXPECT_GT(chip.energy().elapsed_ticks,
              chip.energyAtLastRetire().elapsed_ticks);
    EXPECT_GT(chip.energy().aicore_joules,
              chip.energyAtLastRetire().aicore_joules);
}

TEST(NpuChip, LowerFrequencyLowersAicorePower)
{
    auto avg_power = [](double mhz) {
        sim::Simulator sim;
        NpuConfig config;
        config.initial_mhz = mhz;
        NpuChip chip(sim, config);
        HwOpParams op = computeOp(1.8e8);
        op.ld_volume_bytes = 0.0;
        op.st_volume_bytes = 0.0;
        chip.enqueueOp(op, 0);
        sim.run();
        chip.syncAccounting();
        return chip.energyAtLastRetire().aicoreAvgWatts();
    };
    EXPECT_LT(avg_power(1000.0), avg_power(1400.0));
    EXPECT_LT(avg_power(1400.0), avg_power(1800.0));
}

TEST(NpuChip, TemperatureRisesUnderLoad)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    double ambient = chip.temperature();
    HwOpParams op = computeOp(1.8e9 * 20); // ~20 s of load
    chip.enqueueOp(op, 0);
    sim.run();
    chip.syncAccounting();
    EXPECT_GT(chip.temperature(), ambient + 10.0);
}

TEST(NpuChip, IdleStateReported)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    EXPECT_TRUE(chip.idle());
    chip.enqueueOp(computeOp(), 0);
    EXPECT_FALSE(chip.idle());
    sim.run();
    EXPECT_TRUE(chip.idle());
}

TEST(NpuChip, OutOfTableSetFreqSnapsToNearest)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    chip.enqueueSetFreq(1760.0);
    sim.run();
    EXPECT_DOUBLE_EQ(chip.dvfs().currentMhz(), 1800.0);
    EXPECT_EQ(chip.dvfs().setFreqCount(), 1u);
}

TEST(NpuChip, NonFiniteSetFreqThrows)
{
    sim::Simulator sim;
    NpuChip chip(sim);
    EXPECT_THROW(
        chip.enqueueSetFreq(std::numeric_limits<double>::quiet_NaN()),
        std::invalid_argument);
    EXPECT_THROW(
        chip.enqueueSetFreq(-std::numeric_limits<double>::infinity()),
        std::invalid_argument);
}

} // namespace
} // namespace opdvfs::npu
