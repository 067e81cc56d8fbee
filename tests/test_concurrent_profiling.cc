/**
 * Concurrent profiling: WorkloadRunner::runEach and the profile phase
 * of EnergyPipeline::prepare that runs through it.
 *
 * Both are checked bit for bit against serial references written here:
 * runEach against one WorkloadRunner::run per entry, and prepare
 * against one run per profile frequency merged in list order.  The
 * frequency lists are deliberately unsorted, so a merge in completion
 * order shows.  The failure tests check that an error raised on a
 * helper thread reaches the caller, and which one when several fail.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dvfs/pipeline.h"
#include "models/transformer.h"
#include "npu/freq_table.h"
#include "power/offline_calibration.h"
#include "power/online_calibration.h"
#include "trace/workload_runner.h"

namespace opdvfs {
namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

models::Workload
smallTransformer(const npu::NpuConfig &config)
{
    npu::MemorySystem memory(config.memory);
    models::TransformerConfig model;
    model.name = "concurrent";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = 256;
    model.batch = 4;
    return models::buildTransformerTraining(memory, model, 5);
}

void
expectSameRecords(const std::vector<trace::OpRecord> &a,
                  const std::vector<trace::OpRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        const trace::OpRecord &x = a[i];
        const trace::OpRecord &y = b[i];
        EXPECT_EQ(x.op_id, y.op_id);
        EXPECT_EQ(x.type, y.type);
        EXPECT_EQ(x.category, y.category);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
        EXPECT_EQ(bits(x.duration_s), bits(y.duration_s));
        EXPECT_EQ(bits(x.f_mhz), bits(y.f_mhz));
        EXPECT_EQ(bits(x.ratios.cube), bits(y.ratios.cube));
        EXPECT_EQ(bits(x.ratios.vector), bits(y.ratios.vector));
        EXPECT_EQ(bits(x.ratios.scalar), bits(y.ratios.scalar));
        EXPECT_EQ(bits(x.ratios.mte1), bits(y.ratios.mte1));
        EXPECT_EQ(bits(x.ratios.mte2), bits(y.ratios.mte2));
        EXPECT_EQ(bits(x.ratios.mte3), bits(y.ratios.mte3));
    }
}

void
expectSameRun(const trace::RunResult &a, const trace::RunResult &b)
{
    EXPECT_EQ(bits(a.iteration_seconds), bits(b.iteration_seconds));
    EXPECT_EQ(bits(a.aicore_energy_j), bits(b.aicore_energy_j));
    EXPECT_EQ(bits(a.soc_energy_j), bits(b.soc_energy_j));
    EXPECT_EQ(bits(a.aicore_avg_w), bits(b.aicore_avg_w));
    EXPECT_EQ(bits(a.soc_avg_w), bits(b.soc_avg_w));
    EXPECT_EQ(bits(a.avg_temperature_c), bits(b.avg_temperature_c));
    EXPECT_EQ(a.set_freq_count, b.set_freq_count);
    expectSameRecords(a.records, b.records);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        const trace::PowerSample &x = a.samples[i];
        const trace::PowerSample &y = b.samples[i];
        EXPECT_EQ(x.tick, y.tick);
        EXPECT_EQ(bits(x.soc_watts), bits(y.soc_watts));
        EXPECT_EQ(bits(x.aicore_watts), bits(y.aicore_watts));
        EXPECT_EQ(bits(x.temperature_c), bits(y.temperature_c));
        EXPECT_EQ(bits(x.f_mhz), bits(y.f_mhz));
    }
}

/** The invalid_argument runEach throws for @p runs, or "no error". */
std::string
runEachError(const trace::WorkloadRunner &runner,
             const models::Workload &workload,
             const std::vector<trace::RunOptions> &runs)
{
    try {
        runner.runEach(workload, runs);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "no error";
}

class RunEachTest : public ::testing::Test
{
  protected:
    RunEachTest()
    {
        // Off the default uncore point, so ops compiled for any other
        // configuration time differently.
        config_.uncore_scale = 0.9;
        workload_ = smallTransformer(config_);
    }

    trace::RunOptions
    runAt(double mhz, std::uint64_t seed) const
    {
        trace::RunOptions options;
        options.initial_mhz = mhz;
        options.warmup_seconds = 0.3;
        options.sample_period = kTicksPerMs;
        options.seed = seed;
        return options;
    }

    npu::NpuConfig config_;
    models::Workload workload_;
};

TEST_F(RunEachTest, EqualsOneSerialRunPerEntryInInputOrder)
{
    std::vector<trace::RunOptions> runs = {
        runAt(1800.0, 11), runAt(1000.0, 12), runAt(1400.0, 13)};
    // The caller's run is the longest, so the runs finish out of
    // input order.
    runs[0].warmup_seconds = 1.5;
    runs[2].cooldown_seconds = 0.05;
    trace::WorkloadRunner runner(config_);

    std::vector<trace::RunResult> concurrent =
        runner.runEach(workload_, runs);

    ASSERT_EQ(concurrent.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        expectSameRun(concurrent[i], runner.run(workload_, runs[i]));
    }
}

TEST_F(RunEachTest, RethrowsAHelperThreadsError)
{
    trace::WorkloadRunner runner(config_);
    EXPECT_EQ(runEachError(runner, workload_,
                           {runAt(1000.0, 1), runAt(1234.0, 2),
                            runAt(1800.0, 3)}),
              "DvfsController: unsupported initial frequency");
}

TEST_F(RunEachTest, TheLowestIndexErrorWins)
{
    trace::WorkloadRunner runner(config_);
    trace::RunOptions no_period = runAt(1800.0, 3);
    no_period.sample_period = 0;
    const std::string unsupported =
        "DvfsController: unsupported initial frequency";
    const std::string period = "PowerSampler: non-positive period";

    EXPECT_EQ(runEachError(runner, workload_,
                           {runAt(1000.0, 1), runAt(1234.0, 2), no_period}),
              unsupported);
    EXPECT_EQ(runEachError(runner, workload_,
                           {runAt(1000.0, 1), no_period, runAt(1234.0, 2)}),
              period);
    // The caller's own run fails while its helper measures on.
    EXPECT_EQ(runEachError(runner, workload_,
                           {runAt(1234.0, 2), runAt(1000.0, 1)}),
              unsupported);
}

TEST_F(RunEachTest, AnEmptyWorkloadStillThrows)
{
    trace::WorkloadRunner runner(config_);
    EXPECT_EQ(runEachError(runner, models::Workload{},
                           {runAt(1000.0, 1), runAt(1800.0, 2)}),
              "RunHarness: empty workload");
}

/**
 * The profile half of the pipeline with no threads: given constants,
 * one WorkloadRunner::run per frequency, merged in list order.
 */
dvfs::PreparedWorkload
serialPrepare(const dvfs::PipelineOptions &options,
              const models::Workload &workload)
{
    npu::FreqTable table(options.chip.freq);
    trace::WorkloadRunner runner(options.chip);
    dvfs::PreparedWorkload prepared;
    prepared.constants = *options.constants;
    power::PowerModel power_model(prepared.constants, table);
    power::OnlinePowerCalibrator online(power_model);
    const std::vector<double> &freqs = options.profile_freqs_mhz;
    double max_freq = *std::max_element(freqs.begin(), freqs.end());
    for (double f : freqs) {
        trace::RunOptions run_options;
        run_options.initial_mhz = f;
        run_options.warmup_seconds = options.warmup_seconds;
        run_options.sample_period = options.profile_sample_period;
        run_options.seed = options.seed * 31 + static_cast<std::uint64_t>(f);
        trace::RunResult run = runner.run(workload, run_options);
        prepared.perf_models.addProfile(f, run.records);
        online.addRun(run);
        if (f == max_freq)
            prepared.baseline = run;
    }
    perf::PerfBuildOptions perf_options;
    perf_options.kind = options.fit_kind;
    prepared.perf_models.fitAll(perf_options);
    prepared.op_power = online.perOpModels();
    prepared.prep = dvfs::preprocess(prepared.baseline.records,
                                     options.preprocess);
    return prepared;
}

void
expectSamePrepared(const dvfs::PreparedWorkload &a,
                   const dvfs::PreparedWorkload &b,
                   const npu::FreqTable &table)
{
    const power::CalibratedConstants &c = a.constants;
    const power::CalibratedConstants &d = b.constants;
    EXPECT_EQ(bits(c.beta_aicore), bits(d.beta_aicore));
    EXPECT_EQ(bits(c.theta_aicore), bits(d.theta_aicore));
    EXPECT_EQ(bits(c.beta_soc), bits(d.beta_soc));
    EXPECT_EQ(bits(c.theta_soc), bits(d.theta_soc));
    EXPECT_EQ(bits(c.gamma_aicore), bits(d.gamma_aicore));
    EXPECT_EQ(bits(c.gamma_soc), bits(d.gamma_soc));
    EXPECT_EQ(bits(c.k_per_watt), bits(d.k_per_watt));
    EXPECT_EQ(bits(c.ambient_c), bits(d.ambient_c));

    {
        SCOPED_TRACE("baseline");
        expectSameRun(a.baseline, b.baseline);
    }

    ASSERT_EQ(a.perf_models.modelCount(), b.perf_models.modelCount());
    for (const auto &[op_id, model] : a.perf_models.models()) {
        ASSERT_NE(b.perf_models.find(op_id), nullptr) << "op " << op_id;
        for (double f : table.frequenciesMhz()) {
            EXPECT_EQ(bits(model.predictSeconds(f)),
                      bits(b.perf_models.predictSeconds(op_id, f)))
                << "op " << op_id << " at " << f << " MHz";
        }
    }

    ASSERT_EQ(a.op_power.size(), b.op_power.size());
    for (const auto &[op_id, power] : a.op_power) {
        auto it = b.op_power.find(op_id);
        ASSERT_NE(it, b.op_power.end()) << "op " << op_id;
        EXPECT_EQ(bits(power.alpha_aicore), bits(it->second.alpha_aicore))
            << "op " << op_id;
        EXPECT_EQ(bits(power.alpha_soc), bits(it->second.alpha_soc))
            << "op " << op_id;
    }

    ASSERT_EQ(a.prep.stages.size(), b.prep.stages.size());
    for (std::size_t i = 0; i < a.prep.stages.size(); ++i) {
        SCOPED_TRACE("stage " + std::to_string(i));
        const dvfs::Stage &x = a.prep.stages[i];
        const dvfs::Stage &y = b.prep.stages[i];
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.duration, y.duration);
        EXPECT_EQ(x.high_frequency, y.high_frequency);
        EXPECT_EQ(x.first_op, y.first_op);
        EXPECT_EQ(x.op_ids, y.op_ids);
        EXPECT_EQ(bits(x.sensitive_seconds), bits(y.sensitive_seconds));
        EXPECT_EQ(bits(x.insensitive_seconds), bits(y.insensitive_seconds));
    }
    EXPECT_EQ(a.prep.bottlenecks, b.prep.bottlenecks);
}

class PrepareTest : public ::testing::Test
{
  protected:
    static const power::CalibratedConstants &
    constants()
    {
        static const power::CalibratedConstants value =
            power::calibrateOffline(npu::NpuConfig{});
        return value;
    }

    dvfs::PipelineOptions
    options() const
    {
        dvfs::PipelineOptions options;
        options.constants = constants();
        return options;
    }

    void
    expectSerialResult(const dvfs::PipelineOptions &options) const
    {
        npu::FreqTable table(options.chip.freq);
        expectSamePrepared(dvfs::EnergyPipeline(options).prepare(workload_),
                           serialPrepare(options, workload_), table);
    }

    models::Workload workload_ = smallTransformer(npu::NpuConfig{});
};

TEST_F(PrepareTest, ThreeUnsortedFrequenciesEqualTheSerialMerge)
{
    dvfs::PipelineOptions offline = options();
    offline.warmup_seconds = 1.0;
    // Many samples per op, so the power fits' sums depend on the
    // order the runs are merged in.
    offline.profile_sample_period = 20 * kTicksPerUs;
    offline.fit_kind = perf::FitFunction::PwlCycles;
    offline.profile_freqs_mhz = {1800.0, 1000.0, 1400.0};
    offline.seed = 7;
    expectSerialResult(offline);
}

TEST_F(PrepareTest, TheServingTwoFrequenciesEqualTheSerialMerge)
{
    // The strategy service's pipeline: 0.5 s warm-up, two points.
    dvfs::PipelineOptions serving = options();
    serving.warmup_seconds = 0.5;
    serving.profile_freqs_mhz = {1000.0, 1800.0};
    serving.seed = 5;
    expectSerialResult(serving);
}

} // namespace
} // namespace opdvfs
