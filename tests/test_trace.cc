#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <unordered_map>

#include "models/transformer.h"
#include "trace/run_harness.h"
#include "trace/trace_export.h"
#include "trace/workload_runner.h"

namespace opdvfs::trace {
namespace {

class TraceTest : public ::testing::Test
{
  protected:
    TraceTest()
        : memory_(config_.memory)
    {
        models::TransformerConfig model;
        model.name = "tiny";
        model.layers = 2;
        model.hidden = 1024;
        model.heads = 8;
        model.seq = 256;
        model.batch = 4;
        workload_ = models::buildTransformerTraining(memory_, model, 5);
    }

    npu::NpuConfig config_;
    npu::MemorySystem memory_;
    models::Workload workload_;
};

TEST_F(TraceTest, ProfilerRecordsEveryOperatorOnce)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    RunResult result = runner.run(workload_, options);
    ASSERT_EQ(result.records.size(), workload_.opCount());
    // Records are time-ordered and contiguous on one stream.
    for (std::size_t i = 1; i < result.records.size(); ++i) {
        EXPECT_GE(result.records[i].start, result.records[i - 1].start);
        EXPECT_GE(result.records[i].end, result.records[i].start);
    }
}

TEST_F(TraceTest, MeasuredDurationsCloseToTrueDurations)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.profiler_noise.duration_sigma = 0.006;
    RunResult result = runner.run(workload_, options);
    for (const auto &record : result.records) {
        double true_s = ticksToSeconds(record.end - record.start);
        if (true_s < 1e-6)
            continue;
        EXPECT_NEAR(record.duration_s, true_s, true_s * 0.05);
    }
}

TEST_F(TraceTest, RatiosWithinUnitInterval)
{
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});
    for (const auto &record : result.records) {
        const auto &r = record.ratios;
        for (double v : {r.cube, r.vector, r.scalar, r.mte1, r.mte2, r.mte3}) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

TEST_F(TraceTest, SamplerPeriodRespected)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.sample_period = 200 * kTicksPerUs;
    RunResult result = runner.run(workload_, options);
    ASSERT_GT(result.samples.size(), 5u);
    for (std::size_t i = 1; i < result.samples.size(); ++i) {
        EXPECT_EQ(result.samples[i].tick - result.samples[i - 1].tick,
                  200 * kTicksPerUs);
    }
}

TEST_F(TraceTest, SamplerReadsArePlausible)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.sample_period = kTicksPerMs;
    RunResult result = runner.run(workload_, options);
    for (const auto &s : result.samples) {
        EXPECT_GT(s.soc_watts, 50.0);
        EXPECT_LT(s.soc_watts, 600.0);
        EXPECT_GT(s.aicore_watts, 1.0);
        EXPECT_LT(s.aicore_watts, 200.0);
        EXPECT_GT(s.temperature_c, 15.0);
        EXPECT_LT(s.temperature_c, 120.0);
        // Quantised to the configured step.
        double steps = s.temperature_c / 0.5;
        EXPECT_NEAR(steps, std::round(steps), 1e-9);
        EXPECT_DOUBLE_EQ(s.f_mhz, 1800.0);
    }
}

TEST_F(TraceTest, WarmupRaisesTemperature)
{
    WorkloadRunner runner(config_);
    RunOptions cold, warm;
    warm.warmup_seconds = 20.0;
    RunResult cold_run = runner.run(workload_, cold);
    RunResult warm_run = runner.run(workload_, warm);
    EXPECT_GT(warm_run.avg_temperature_c, cold_run.avg_temperature_c + 3.0);
}

TEST_F(TraceTest, TriggersChangeFrequencyMidIteration)
{
    WorkloadRunner runner(config_);
    std::vector<SetFreqTrigger> triggers;
    triggers.push_back({workload_.opCount() / 2, 1200.0});

    RunOptions options;
    RunResult result = runner.run(workload_, options, triggers);
    EXPECT_EQ(result.set_freq_count, 1u);
    // Early ops retire at 1800, late ops at 1200.
    EXPECT_DOUBLE_EQ(result.records.front().f_mhz, 1800.0);
    EXPECT_DOUBLE_EQ(result.records.back().f_mhz, 1200.0);
}

TEST_F(TraceTest, DvfsRunUsesLessAicorePower)
{
    WorkloadRunner runner(config_);
    std::vector<SetFreqTrigger> triggers = {{0, 1000.0}};
    RunOptions options;
    RunResult high = runner.run(workload_, options);
    RunResult low = runner.run(workload_, options, triggers);
    EXPECT_LT(low.aicore_avg_w, high.aicore_avg_w);
    EXPECT_GT(low.iteration_seconds, high.iteration_seconds);
}

TEST_F(TraceTest, TriggerIndexValidation)
{
    WorkloadRunner runner(config_);
    std::vector<SetFreqTrigger> triggers = {{workload_.opCount(), 1200.0}};
    EXPECT_THROW(runner.run(workload_, RunOptions{}, triggers),
                 std::invalid_argument);
}

TEST_F(TraceTest, EmptyWorkloadThrows)
{
    WorkloadRunner runner(config_);
    models::Workload empty;
    EXPECT_THROW(runner.run(empty, RunOptions{}), std::invalid_argument);
}

TEST_F(TraceTest, ZeroTimeIterationIsRejectedInsteadOfWarmingUpForever)
{
    // One Idle op with no duration: each warm-up iteration would leave
    // the clock where it was.
    models::Workload stalled;
    stalled.name = "stalled";
    ops::Op idle;
    idle.type = "Idle";
    idle.hw.category = npu::OpCategory::Idle;
    idle.hw.fixed_seconds = 0.0;
    stalled.iteration.push_back(idle);

    WorkloadRunner runner(config_);
    RunOptions options;
    options.warmup_seconds = 0.001;
    EXPECT_THROW(runner.run(stalled, options), std::invalid_argument);
    // Without a warm-up the single measured iteration is harmless.
    EXPECT_EQ(runner.run(stalled, RunOptions{}).records.size(), 1u);
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * Expect @p y to measure what @p x does, bit for bit: everything but
 * the op id and the start and end ticks.
 */
void
expectSameMeasurement(const OpRecord &x, const OpRecord &y)
{
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.category, y.category);
    EXPECT_EQ(bits(x.duration_s), bits(y.duration_s));
    EXPECT_EQ(bits(x.f_mhz), bits(y.f_mhz));
    const npu::PipelineRatios &p = x.ratios;
    const npu::PipelineRatios &q = y.ratios;
    EXPECT_EQ(bits(p.cube), bits(q.cube));
    EXPECT_EQ(bits(p.vector), bits(q.vector));
    EXPECT_EQ(bits(p.scalar), bits(q.scalar));
    EXPECT_EQ(bits(p.mte1), bits(q.mte1));
    EXPECT_EQ(bits(p.mte2), bits(q.mte2));
    EXPECT_EQ(bits(p.mte3), bits(q.mte3));
}

TEST_F(TraceTest, LateWindowSeesTheRecordsOfAnAlwaysOpenOne)
{
    // Same seed on two identical chips: profiler A records from the
    // first iteration, profiler B opens its window at the last one.
    // Ops outside a window advance the noise stream as recorded ones
    // do, so B keeps exactly A's last-iteration records, bit for bit.
    //
    // The tiny transformer's Compute ops all load and store; append one
    // that stores nothing, so one draws for a core pipe and a single
    // transfer.
    models::Workload workload = workload_;
    auto compute = std::find_if(
        workload.iteration.begin(), workload.iteration.end(),
        [](const ops::Op &op) {
            return op.hw.category == npu::OpCategory::Compute;
        });
    ASSERT_NE(compute, workload.iteration.end());
    ops::Op load_only = *compute;
    load_only.id = workload.opCount();
    load_only.hw.st_volume_bytes = 0.0;
    workload.iteration.push_back(load_only);

    RunOptions options;
    options.seed = 9;
    std::size_t n = workload.opCount();
    std::vector<SetFreqTrigger> triggers =
        orderTriggers({{n / 2, 1200.0}, {n - 1, 1800.0}}, n);
    std::vector<npu::CompiledOp> ops = compileIteration(config_, workload);
    RunHarness a(config_, workload, ops, options);
    RunHarness b(config_, workload, ops, options);

    constexpr std::size_t kIterations = 4;
    a.profiler().openWindow();
    for (std::size_t i = 0; i < kIterations; ++i) {
        if (i + 1 == kIterations)
            b.profiler().openWindow();
        for (RunHarness *h : {&a, &b}) {
            h->enqueueIteration(triggers);
            h->simulator().run();
        }
    }

    const std::vector<OpRecord> &all = a.profiler().records();
    const std::vector<OpRecord> &last = b.profiler().records();
    ASSERT_EQ(all.size(), kIterations * n);
    ASSERT_EQ(last.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const OpRecord &x = all[all.size() - n + i];
        const OpRecord &y = last[i];
        EXPECT_EQ(x.op_id, y.op_id);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
        expectSameMeasurement(x, y);
    }
    // The triggers put ops of the compared iteration at both
    // frequencies, so ratio noise was drawn at each.
    EXPECT_DOUBLE_EQ(last.front().f_mhz, 1800.0);
    EXPECT_DOUBLE_EQ(last[n - 2].f_mhz, 1200.0);

    // The iteration holds every way an op draws noise, so B skipping
    // one deviate too few or too many for any of them moves its stream
    // off A's: a non-Compute op draws the duration factor alone; a
    // Compute op also draws one deviate per true ratio above zero and
    // none for a zero one.
    std::unordered_map<std::uint64_t, const npu::CompiledOp *> compiled;
    for (const npu::CompiledOp &op : ops)
        compiled[op.id] = &op;
    std::size_t non_compute = 0;
    std::size_t core_and_one_transfer = 0;
    std::size_t core_and_both_transfers = 0;
    for (const OpRecord &y : last) {
        if (y.category != npu::OpCategory::Compute) {
            ++non_compute;
            continue;
        }
        npu::PipelineRatios t =
            compiled.at(y.op_id)->timeline.ratios(y.f_mhz);
        int core = (t.cube > 0.0) + (t.vector > 0.0) + (t.scalar > 0.0)
            + (t.mte1 > 0.0);
        int transfers = (t.mte2 > 0.0) + (t.mte3 > 0.0);
        core_and_one_transfer += core == 1 && transfers == 1;
        core_and_both_transfers += core == 1 && transfers == 2;
    }
    EXPECT_GT(non_compute, 0u);
    EXPECT_GT(core_and_one_transfer, 0u);
    EXPECT_GT(core_and_both_transfers, 0u);
}

TEST_F(TraceTest, WindowReopenedEveryIterationAfterASkippedStretch)
{
    // As runGuarded and runDriftLoop measure: no window during a
    // warm-up stretch, then one opened before every iteration and its
    // records taken after it.  Each iteration's records are then
    // exactly those an always-open window keeps for it.
    RunOptions options;
    options.seed = 2027;
    std::size_t n = workload_.opCount();
    std::vector<SetFreqTrigger> triggers =
        orderTriggers({{n / 2, 1200.0}, {n - 1, 1800.0}}, n);
    std::vector<npu::CompiledOp> ops = compileIteration(config_, workload_);
    RunHarness a(config_, workload_, ops, options);
    RunHarness b(config_, workload_, ops, options);

    constexpr std::size_t kSkipped = 3;
    constexpr std::size_t kMeasured = 3;
    a.profiler().openWindow();
    for (std::size_t i = 0; i < kSkipped + kMeasured; ++i) {
        if (i >= kSkipped)
            b.profiler().openWindow();
        for (RunHarness *h : {&a, &b}) {
            h->enqueueIteration(triggers);
            h->simulator().run();
        }
        if (i < kSkipped)
            continue;
        std::vector<OpRecord> measured = b.profiler().takeRecords();
        const std::vector<OpRecord> &all = a.profiler().records();
        ASSERT_EQ(measured.size(), n);
        ASSERT_EQ(all.size(), (i + 1) * n);
        for (std::size_t j = 0; j < n; ++j) {
            const OpRecord &x = all[i * n + j];
            EXPECT_EQ(x.op_id, measured[j].op_id);
            EXPECT_EQ(x.start, measured[j].start);
            expectSameMeasurement(x, measured[j]);
        }
    }
}

TEST_F(TraceTest, OneOffOpBeforeTheFirstWindowDrawsNothing)
{
    // B first runs a chip-owned copy of a registered Compute op, id
    // included.  Only the compiled iteration's ops are registered, so
    // the copy draws no noise and B's window measures what A's does,
    // one op's time later.
    auto compute = std::find_if(
        workload_.iteration.begin(), workload_.iteration.end(),
        [](const ops::Op &op) {
            return op.hw.category == npu::OpCategory::Compute;
        });
    ASSERT_NE(compute, workload_.iteration.end());

    RunOptions options;
    options.seed = 9;
    std::vector<npu::CompiledOp> ops = compileIteration(config_, workload_);
    RunHarness a(config_, workload_, ops, options);
    RunHarness b(config_, workload_, ops, options);
    b.chip().enqueueOp(compute->hw, compute->id);
    b.simulator().run();
    Tick offset = b.simulator().now();
    ASSERT_GT(offset, 0);

    for (RunHarness *h : {&a, &b}) {
        h->enqueueIteration({});
        h->simulator().run();
        h->profiler().openWindow();
        h->enqueueIteration({});
        h->simulator().run();
    }
    const std::vector<OpRecord> &x = a.profiler().records();
    const std::vector<OpRecord> &y = b.profiler().records();
    ASSERT_EQ(x.size(), workload_.opCount());
    ASSERT_EQ(y.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].op_id, y[i].op_id);
        EXPECT_EQ(x[i].start + offset, y[i].start);
        expectSameMeasurement(x[i], y[i]);
    }
}

TEST_F(TraceTest, SparseOpIdsProfileTheRecordsOfDenseOnes)
{
    // Op ids are only unique: ids far from 0..n-1, or in reverse
    // order, change the records' op_id and nothing else.
    std::size_t n = workload_.opCount();
    models::Workload dense = workload_;
    models::Workload offset = workload_;
    models::Workload reversed = workload_;
    constexpr std::uint64_t kOffset = 1'000'000'000;
    for (std::size_t i = 0; i < n; ++i) {
        dense.iteration[i].id = i;
        offset.iteration[i].id = i + kOffset;
        reversed.iteration[i].id = n - 1 - i;
    }

    WorkloadRunner runner(config_);
    RunOptions options;
    options.seed = 9;
    options.warmup_seconds = 0.05;
    options.cooldown_seconds = 0.01;
    std::vector<SetFreqTrigger> triggers = {{n / 2, 1200.0}};
    RunResult expected = runner.run(dense, options, triggers);
    ASSERT_EQ(expected.records.size(), n);
    for (const models::Workload *w : {&offset, &reversed}) {
        RunResult got = runner.run(*w, options, triggers);
        ASSERT_EQ(got.records.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const OpRecord &x = expected.records[i];
            const OpRecord &y = got.records[i];
            EXPECT_EQ(y.op_id, w->iteration[x.op_id].id);
            EXPECT_EQ(x.start, y.start);
            EXPECT_EQ(x.end, y.end);
            expectSameMeasurement(x, y);
        }
    }
}

TEST_F(TraceTest, RegisteringAMismatchedCompiledIterationThrows)
{
    sim::Simulator simulator;
    npu::NpuChip chip(simulator, config_);
    Profiler profiler(chip, ProfilerNoise{}, 1);
    std::vector<npu::CompiledOp> ops = compileIteration(config_, workload_);
    ops.pop_back();
    EXPECT_THROW(profiler.registerSequence(workload_.iteration, ops),
                 std::invalid_argument);
}

TEST_F(TraceTest, CooldownExtendsSamples)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.cooldown_seconds = 2.0;
    options.sample_period = 100 * kTicksPerMs;
    RunResult result = runner.run(workload_, options);
    Tick last_op_end = 0;
    for (const auto &r : result.records)
        last_op_end = std::max(last_op_end, r.end);
    EXPECT_GT(result.samples.back().tick, last_op_end);
}

TEST_F(TraceTest, CsvExportShapes)
{
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});

    std::ostringstream ops;
    exportOpRecordsCsv(result.records, ops);
    std::string text = ops.str();
    std::size_t lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, result.records.size() + 1); // header + rows
    EXPECT_NE(text.find("op_id,type,category"), std::string::npos);

    std::ostringstream samples;
    exportPowerSamplesCsv(result.samples, samples);
    std::string sample_text = samples.str();
    EXPECT_NE(sample_text.find("time_s,soc_watts"), std::string::npos);
}


TEST_F(TraceTest, CsvImportRoundTrips)
{
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});

    std::ostringstream os;
    exportOpRecordsCsv(result.records, os);
    std::istringstream is(os.str());
    std::vector<OpRecord> loaded = importOpRecordsCsv(is);

    ASSERT_EQ(loaded.size(), result.records.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        const OpRecord &a = result.records[i];
        const OpRecord &b = loaded[i];
        EXPECT_EQ(a.op_id, b.op_id);
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.category, b.category);
        EXPECT_NEAR(ticksToSeconds(a.start), ticksToSeconds(b.start), 1e-9);
        EXPECT_NEAR(ticksToSeconds(a.end), ticksToSeconds(b.end), 1e-9);
        EXPECT_NEAR(a.duration_s, b.duration_s, a.duration_s * 1e-6 + 1e-12);
        EXPECT_DOUBLE_EQ(a.f_mhz, b.f_mhz);
        EXPECT_NEAR(a.ratios.mte2, b.ratios.mte2, 1e-9);
    }
}

TEST_F(TraceTest, CsvImportValidation)
{
    std::istringstream bad_header("nope\n1,2,3\n");
    EXPECT_THROW(importOpRecordsCsv(bad_header), std::invalid_argument);

    std::istringstream short_row(
        "op_id,type,category,start_us,end_us,duration_us,f_mhz,"
        "cube,vector,scalar,mte1,mte2,mte3\n1,Add,Compute,0,1\n");
    EXPECT_THROW(importOpRecordsCsv(short_row), std::invalid_argument);

    std::istringstream bad_category(
        "op_id,type,category,start_us,end_us,duration_us,f_mhz,"
        "cube,vector,scalar,mte1,mte2,mte3\n"
        "1,Add,Weird,0,1,1,1800,0,0,0,0,0,0\n");
    EXPECT_THROW(importOpRecordsCsv(bad_category), std::invalid_argument);

    std::istringstream bad_number(
        "op_id,type,category,start_us,end_us,duration_us,f_mhz,"
        "cube,vector,scalar,mte1,mte2,mte3\n"
        "1,Add,Compute,x,1,1,1800,0,0,0,0,0,0\n");
    EXPECT_THROW(importOpRecordsCsv(bad_number), std::invalid_argument);
}

TEST_F(TraceTest, ImportedTraceDrivesPreprocessing)
{
    // The bring-your-own-trace path: records from CSV feed the DVFS
    // preprocessing stage directly.
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});
    std::ostringstream os;
    exportOpRecordsCsv(result.records, os);
    std::istringstream is(os.str());
    std::vector<OpRecord> loaded = importOpRecordsCsv(is);
    EXPECT_EQ(loaded.size(), workload_.opCount());
}

} // namespace
} // namespace opdvfs::trace
