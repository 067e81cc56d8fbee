/**
 * Integration tests across the DVFS stack: evaluator, genetic search,
 * executor planning, and the end-to-end pipeline, all on one small
 * profiled transformer.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "dvfs/evaluator.h"
#include "dvfs/executor.h"
#include "dvfs/genetic.h"
#include "dvfs/pareto.h"
#include "dvfs/pipeline.h"
#include "models/transformer.h"
#include "power/offline_calibration.h"
#include "power/online_calibration.h"
#include "trace/workload_runner.h"

namespace opdvfs::dvfs {
namespace {

struct Harness
{
    npu::NpuConfig config;
    npu::FreqTable table{npu::FreqTableConfig{}};
    models::Workload workload;
    power::CalibratedConstants constants;
    std::map<double, trace::RunResult> runs;
    perf::PerfModelRepository perf_repo;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    PreprocessResult prep;

    Harness()
    {
        npu::MemorySystem memory(config.memory);
        models::TransformerConfig model;
        model.name = "itest";
        model.layers = 4;
        model.hidden = 2048;
        model.heads = 16;
        model.seq = 1024;
        model.batch = 2;
        model.tp_allreduce = true;
        model.tensor_parallel = 2;
        workload = models::buildTransformerTraining(memory, model, 77);

        constants = power::calibrateOffline(config);
        power::PowerModel power_model(constants, table);
        power::OnlinePowerCalibrator online(power_model);

        trace::WorkloadRunner runner(config);
        for (double f : {1000.0, 1400.0, 1800.0}) {
            trace::RunOptions options;
            options.initial_mhz = f;
            options.warmup_seconds = 5.0;
            options.sample_period = kTicksPerMs;
            options.seed = 900 + static_cast<std::uint64_t>(f);
            runs[f] = runner.run(workload, options);
            perf_repo.addProfile(f, runs[f].records);
            online.addRun(runs[f]);
        }
        perf::PerfBuildOptions perf_options;
        perf_options.kind = perf::FitFunction::PwlCycles;
        perf_repo.fitAll(perf_options);
        op_power = online.perOpModels();
        prep = preprocess(runs[1800.0].records, {});
    }

    power::PowerModel
    powerModel() const
    {
        return power::PowerModel(constants, table);
    }
};

Harness &
harness()
{
    static Harness instance;
    return instance;
}

TEST(StageEvaluator, BaselinePredictionMatchesMeasurement)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    StrategyEvaluation baseline = evaluator.evaluateBaseline();
    double measured = h.runs[1800.0].iteration_seconds;
    EXPECT_NEAR(baseline.seconds, measured, 0.03 * measured);
    EXPECT_NEAR(baseline.aicore_watts, h.runs[1800.0].aicore_avg_w,
                0.15 * h.runs[1800.0].aicore_avg_w);
}

TEST(StageEvaluator, LoweringAStageNeverSpeedsUp)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    std::vector<std::uint8_t> genome(
        evaluator.stageCount(),
        static_cast<std::uint8_t>(evaluator.freqCount() - 1));
    StrategyEvaluation baseline = evaluator.evaluate(genome);
    for (std::size_t s = 0; s < evaluator.stageCount();
         s += std::max<std::size_t>(1, evaluator.stageCount() / 20)) {
        auto modified = genome;
        modified[s] = 0;
        StrategyEvaluation lowered = evaluator.evaluate(modified);
        EXPECT_GE(lowered.seconds, baseline.seconds * (1.0 - 1e-9));
    }
}

TEST(StageEvaluator, AllLowUsesLessAicorePowerThanAllHigh)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    std::vector<std::uint8_t> low(evaluator.stageCount(), 0);
    StrategyEvaluation low_eval = evaluator.evaluate(low);
    StrategyEvaluation high_eval = evaluator.evaluateBaseline();
    EXPECT_LT(low_eval.aicore_watts, high_eval.aicore_watts);
    EXPECT_GT(low_eval.seconds, high_eval.seconds);
}

TEST(StageEvaluator, GenomeLengthValidated)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    std::vector<std::uint8_t> wrong(evaluator.stageCount() + 1, 0);
    EXPECT_THROW(evaluator.evaluate(wrong), std::invalid_argument);

    // The batched overload checks its buffers likewise: whole rows,
    // one output slot and one row of checkpoints per row, one resume
    // block per listed row, every listed row in range and every resume
    // block below the block count.
    const std::size_t n = evaluator.stageCount();
    const std::size_t blocks = evaluator.blockCount();
    std::vector<std::uint8_t> rows(2 * n, 0);
    std::vector<StrategyEvaluation> out(2);
    std::vector<StageEvaluator::Sums> saved(2 * blocks);
    std::vector<std::size_t> listed = {1, 0};
    std::vector<std::size_t> from = {blocks - 1, 0};
    EXPECT_NO_THROW(evaluator.evaluate(rows, listed, from, saved, out));
    std::vector<std::uint8_t> ragged(2 * n + 1, 0);
    EXPECT_THROW(evaluator.evaluate(ragged, listed, from, saved, out),
                 std::invalid_argument);
    std::vector<StrategyEvaluation> one_slot(1);
    EXPECT_THROW(evaluator.evaluate(rows, listed, from, saved, one_slot),
                 std::invalid_argument);
    std::vector<std::size_t> beyond = {0, 2};
    EXPECT_THROW(evaluator.evaluate(rows, beyond, from, saved, out),
                 std::invalid_argument);
    std::vector<std::size_t> past_last_block = {blocks, 0};
    EXPECT_THROW(
        evaluator.evaluate(rows, listed, past_last_block, saved, out),
        std::invalid_argument);
    std::vector<std::size_t> one_block = {0};
    EXPECT_THROW(evaluator.evaluate(rows, listed, one_block, saved, out),
                 std::invalid_argument);
    std::vector<StageEvaluator::Sums> short_saved(2 * blocks - 1);
    EXPECT_THROW(evaluator.evaluate(rows, listed, from, short_saved, out),
                 std::invalid_argument);
}

TEST(StageEvaluator, TableWiderThanAGeneIsRejected)
{
    Harness &h = harness();
    // A 2 MHz step gives 401 points; a uint8_t gene would wrap the top
    // index 400 onto 144 (1288 MHz) and mis-state the baseline.
    npu::FreqTableConfig fine;
    fine.step_mhz = 2.0;
    npu::FreqTable wide(fine);
    ASSERT_EQ(wide.frequenciesMhz().size(), 401u);
    power::PowerModel wide_pm(h.constants, wide);
    EXPECT_THROW(StageEvaluator(h.prep.stages, h.perf_repo, wide_pm,
                                h.op_power, wide),
                 std::invalid_argument);

    // 256 points is the widest table a gene indexes: the baseline sits
    // at the top frequency and the GA (whose per-level priors walk
    // every gene value) still terminates.
    fine.max_mhz = 1510.0;
    npu::FreqTable widest(fine);
    ASSERT_EQ(widest.frequenciesMhz().size(), 256u);
    power::PowerModel widest_pm(h.constants, widest);
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, widest_pm,
                             h.op_power, widest);
    std::vector<std::uint8_t> top(evaluator.stageCount(), 255);
    EXPECT_EQ(evaluator.evaluateBaseline().seconds,
              evaluator.evaluate(top).seconds);
    GaOptions options;
    options.population = 8;
    options.generations = 2;
    options.refine_sweeps = 1;
    GaResult result = geneticSearch(evaluator, h.prep.stages, options);
    ASSERT_EQ(result.best_mhz.size(), evaluator.stageCount());
    for (double mhz : result.best_mhz)
        EXPECT_TRUE(widest.supports(mhz)) << mhz;
}

TEST(GeneticSearch, FindsStrategyBeatingBaselineScore)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    GaOptions options;
    options.population = 60;
    options.generations = 60;
    options.perf_loss_target = 0.05;
    GaResult result = geneticSearch(evaluator, h.prep.stages, options);

    double per_lb = (1e-6 / result.baseline_eval.seconds) * 0.95;
    double baseline_score = strategyScore(result.baseline_eval, per_lb);
    EXPECT_GT(result.best_score, baseline_score);
    // Within the loss bound (model-predicted).
    EXPECT_LE(result.best_eval.seconds,
              result.baseline_eval.seconds * 1.051);
    // And it actually saves power.
    EXPECT_LT(result.best_eval.aicore_watts,
              result.baseline_eval.aicore_watts);
}

TEST(GeneticSearch, ScoreHistoryMonotone)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    GaOptions options;
    options.population = 40;
    options.generations = 40;
    GaResult result = geneticSearch(evaluator, h.prep.stages, options);
    ASSERT_EQ(result.score_history.size(), 40u);
    for (std::size_t i = 1; i < result.score_history.size(); ++i)
        EXPECT_GE(result.score_history[i], result.score_history[i - 1]);
    EXPECT_GE(result.best_score, result.pre_refine_score);
}

TEST(GeneticSearch, DeterministicBySeed)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    GaOptions options;
    options.population = 30;
    options.generations = 20;
    options.seed = 5;
    GaResult a = geneticSearch(evaluator, h.prep.stages, options);
    GaResult b = geneticSearch(evaluator, h.prep.stages, options);
    EXPECT_EQ(a.best_genome, b.best_genome);
    EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
}

TEST(GeneticSearch, PriorIndividualSeedsThePopulation)
{
    // A warm-start prior at least as good as the cold search's answer
    // must never be lost: elitism keeps it, so the warm result scores
    // no worse from generation zero.
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    GaOptions cold;
    cold.population = 30;
    cold.generations = 20;
    cold.seed = 5;
    GaResult donor = geneticSearch(evaluator, h.prep.stages, cold);

    GaOptions warm = cold;
    warm.generations = 4;
    warm.prior_individuals.push_back(donor.best_mhz);
    GaResult warmed = geneticSearch(evaluator, h.prep.stages, warm);
    EXPECT_GE(warmed.best_score, donor.pre_refine_score * (1.0 - 1e-12));
    // ...and at a fraction of the cold budget.
    ASSERT_EQ(warmed.score_history.size(), 4u);
    EXPECT_GE(warmed.score_history.front(),
              donor.pre_refine_score * (1.0 - 1e-12));
}

TEST(GeneticSearch, PriorWithDifferentStageCountIsResampled)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    GaOptions options;
    options.population = 20;
    options.generations = 4;
    // A short prior (e.g. from a donor workload with fewer stages)
    // stretches across the genome instead of being rejected.
    options.prior_individuals.push_back({1000.0, 1800.0});
    GaResult result = geneticSearch(evaluator, h.prep.stages, options);
    EXPECT_FALSE(result.best_mhz.empty());

    GaOptions empty_prior = options;
    empty_prior.prior_individuals = {{}};
    EXPECT_THROW(geneticSearch(evaluator, h.prep.stages, empty_prior),
                 std::invalid_argument);
}

TEST(GeneticSearch, TighterTargetAllowsLessSlowdown)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    GaOptions tight, loose;
    tight.population = loose.population = 60;
    tight.generations = loose.generations = 80;
    tight.perf_loss_target = 0.02;
    loose.perf_loss_target = 0.10;
    GaResult t = geneticSearch(evaluator, h.prep.stages, tight);
    GaResult l = geneticSearch(evaluator, h.prep.stages, loose);
    EXPECT_LE(t.best_eval.seconds, l.best_eval.seconds + 1e-9);
    EXPECT_GE(t.best_eval.aicore_watts, l.best_eval.aicore_watts - 1e-9);
}

TEST(ParetoSweep, FrontierIsMonotone)
{
    Harness &h = harness();
    power::PowerModel pm = h.powerModel();
    StageEvaluator evaluator(h.prep.stages, h.perf_repo, pm, h.op_power,
                             h.table);
    GaOptions options;
    options.population = 50;
    options.generations = 60;
    auto frontier = sweepParetoFrontier(
        evaluator, h.prep.stages, {0.02, 0.05, 0.10}, options);
    ASSERT_EQ(frontier.size(), 3u);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        const auto &point = frontier[i];
        EXPECT_LE(point.predicted_loss,
                  point.perf_loss_target + 1e-9);
        EXPECT_EQ(point.mhz_per_stage.size(), h.prep.stages.size());
        if (i > 0) {
            EXPECT_GE(point.predicted_aicore_reduction,
                      frontier[i - 1].predicted_aicore_reduction - 1e-9);
        }
    }
    EXPECT_THROW(sweepParetoFrontier(evaluator, h.prep.stages, {}, options),
                 std::invalid_argument);
}

TEST(Executor, TriggersPlacedOneLatencyBeforeBoundaries)
{
    // Synthetic timeline: 30 contiguous 1 ms ops, three 10 ms stages.
    std::vector<trace::OpRecord> records;
    for (std::uint64_t i = 0; i < 30; ++i) {
        trace::OpRecord r;
        r.op_id = i;
        r.start = static_cast<Tick>(i) * kTicksPerMs;
        r.end = r.start + kTicksPerMs;
        records.push_back(r);
    }
    std::vector<Stage> stages(3);
    for (int s = 0; s < 3; ++s) {
        stages[static_cast<std::size_t>(s)].start = s * 10 * kTicksPerMs;
        stages[static_cast<std::size_t>(s)].duration = 10 * kTicksPerMs;
    }
    std::vector<double> mhz = {1800.0, 1200.0, 1800.0};

    ExecutionPlan plan = planExecution(stages, mhz, records, {});
    ASSERT_EQ(plan.triggers.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.initial_mhz, 1800.0);

    // Stage 1 starts at 10 ms; with 1 ms SetFreq latency the trigger
    // is the op finishing at 9 ms, i.e. op 8.
    EXPECT_EQ(plan.triggers[0].after_op_index, 8u);
    EXPECT_DOUBLE_EQ(plan.triggers[0].mhz, 1200.0);
    // Stage 2 starts at 20 ms: trigger is op 18.
    EXPECT_EQ(plan.triggers[1].after_op_index, 18u);
    EXPECT_DOUBLE_EQ(plan.triggers[1].mhz, 1800.0);
}

TEST(Executor, UniformStrategyNeedsNoTriggers)
{
    Harness &h = harness();
    std::vector<double> mhz(h.prep.stages.size(), 1500.0);
    ExecutionPlan plan =
        planExecution(h.prep.stages, mhz, h.runs[1800.0].records, {});
    EXPECT_TRUE(plan.triggers.empty());
    EXPECT_DOUBLE_EQ(plan.initial_mhz, 1500.0);
}

TEST(Executor, CyclicWrapTriggerRestoresStageZeroFrequency)
{
    Harness &h = harness();
    std::vector<double> mhz(h.prep.stages.size(), 1300.0);
    mhz.back() = 1800.0;
    ExecutionPlan plan =
        planExecution(h.prep.stages, mhz, h.runs[1800.0].records, {});
    ASSERT_FALSE(plan.triggers.empty());
    EXPECT_DOUBLE_EQ(plan.triggers.back().mhz, 1300.0);
    EXPECT_DOUBLE_EQ(plan.initial_mhz, 1300.0);
}

TEST(Executor, OversizedLatencySnapsToEarliestValidTrigger)
{
    // Same synthetic timeline as above, but the assumed SetFreq
    // latency (14 ms, V100-class) exceeds the time before the first
    // boundary: the dispatch tick underflows past the iteration start.
    std::vector<trace::OpRecord> records;
    for (std::uint64_t i = 0; i < 30; ++i) {
        trace::OpRecord r;
        r.op_id = i;
        r.start = static_cast<Tick>(i) * kTicksPerMs;
        r.end = r.start + kTicksPerMs;
        records.push_back(r);
    }
    std::vector<Stage> stages(3);
    for (int s = 0; s < 3; ++s) {
        stages[static_cast<std::size_t>(s)].start = s * 10 * kTicksPerMs;
        stages[static_cast<std::size_t>(s)].duration = 10 * kTicksPerMs;
    }
    std::vector<double> mhz = {1800.0, 1200.0, 1800.0};

    ExecutorOptions slow;
    slow.assumed_set_freq_latency = 14 * kTicksPerMs;
    ExecutionPlan plan = planExecution(stages, mhz, records, slow);

    // Stage 1's dispatch point (10 ms - 14 ms) precedes every
    // completion: snap to the earliest valid trigger, op 0.
    ASSERT_EQ(plan.triggers.size(), 2u);
    EXPECT_EQ(plan.triggers[0].after_op_index, 0u);
    // Stage 2's (20 ms - 14 ms = 6 ms) resolves normally to op 5.
    EXPECT_EQ(plan.triggers[1].after_op_index, 5u);
}

TEST(Executor, TriggersStayInDispatchOrderWhenLatencyCompresses)
{
    // A latency longer than any stage pushes every dispatch point to
    // the front; the min_pos floor must keep the trigger sequence
    // monotone (including the cyclic wrap) instead of reordering
    // SetFreqs.
    std::vector<trace::OpRecord> records;
    for (std::uint64_t i = 0; i < 6; ++i) {
        trace::OpRecord r;
        r.op_id = i;
        r.start = static_cast<Tick>(i) * kTicksPerMs;
        r.end = r.start + kTicksPerMs;
        records.push_back(r);
    }
    std::vector<Stage> stages(3);
    for (int s = 0; s < 3; ++s) {
        stages[static_cast<std::size_t>(s)].start = s * 2 * kTicksPerMs;
        stages[static_cast<std::size_t>(s)].duration = 2 * kTicksPerMs;
    }
    std::vector<double> mhz = {1800.0, 1200.0, 1500.0};

    ExecutorOptions slow;
    slow.assumed_set_freq_latency = 20 * kTicksPerMs;
    ExecutionPlan plan = planExecution(stages, mhz, records, slow);

    // Two interior changes plus the cyclic wrap back to 1800.
    ASSERT_EQ(plan.triggers.size(), 3u);
    EXPECT_DOUBLE_EQ(plan.triggers.back().mhz, 1800.0);
    for (std::size_t t = 1; t < plan.triggers.size(); ++t) {
        EXPECT_GE(plan.triggers[t].after_op_index,
                  plan.triggers[t - 1].after_op_index);
    }
}

TEST(Executor, Validation)
{
    Harness &h = harness();
    std::vector<double> wrong(h.prep.stages.size() + 1, 1800.0);
    EXPECT_THROW(
        planExecution(h.prep.stages, wrong, h.runs[1800.0].records, {}),
        std::invalid_argument);
    std::vector<double> right(h.prep.stages.size(), 1800.0);
    EXPECT_THROW(planExecution(h.prep.stages, right, {}, {}),
                 std::invalid_argument);
}

TEST(EnergyPipeline, EndToEndReducesPowerWithinLossTarget)
{
    Harness &h = harness();
    PipelineOptions options;
    options.chip = h.config;
    options.perf_loss_target = 0.04;
    options.constants = h.constants; // reuse offline pass
    options.warmup_seconds = 5.0;
    options.ga.population = 80;
    options.ga.generations = 120;
    options.fit_kind = perf::FitFunction::PwlCycles;
    options.profile_freqs_mhz = {1000.0, 1400.0, 1800.0};

    EnergyPipeline pipeline(options);
    PipelineResult result = pipeline.optimize(h.workload);

    EXPECT_GT(result.aicoreReduction(), 0.03);
    EXPECT_GT(result.socReduction(), 0.0);
    // Allow modelling slack over the target.
    EXPECT_LT(result.perfLoss(), 0.06);
    EXPECT_GT(result.dvfs.set_freq_count, 0u);
    EXPECT_FALSE(result.ga.best_mhz.empty());
    EXPECT_EQ(result.ga.best_mhz.size(), result.prep.stages.size());
}

TEST(EnergyPipeline, RequiresTwoProfileFrequencies)
{
    Harness &h = harness();
    PipelineOptions options;
    options.chip = h.config;
    options.constants = h.constants;
    options.profile_freqs_mhz = {1800.0};
    EnergyPipeline pipeline(options);
    EXPECT_THROW(pipeline.optimize(h.workload), std::invalid_argument);

    // Duplicate and unsupported frequencies are refused before any
    // simulation: on a chip whose offline calibration would itself
    // throw, the pipeline's own error comes first.
    PipelineOptions uncalibrated;
    uncalibrated.chip = h.config;
    uncalibrated.chip.max_energy_segment = 0;
    auto prepareError = [&](std::vector<double> freqs) -> std::string {
        uncalibrated.profile_freqs_mhz = std::move(freqs);
        try {
            EnergyPipeline(uncalibrated).prepare(h.workload);
        } catch (const std::invalid_argument &e) {
            return e.what();
        }
        return "no error";
    };
    EXPECT_EQ(prepareError({1800.0}),
              "EnergyPipeline: need >= 2 profile frequencies");
    EXPECT_EQ(prepareError({1000.0, 1000.0, 1800.0}),
              "EnergyPipeline: duplicate profile frequency");
    EXPECT_EQ(prepareError({1800.0, 1800.0}),
              "EnergyPipeline: duplicate profile frequency");
    EXPECT_EQ(prepareError({1000.0, 1234.0}),
              "EnergyPipeline: unsupported profile frequency");
    EXPECT_EQ(prepareError({1000.0, 1800.0}),
              "NpuChip: invalid energy segment");
}

} // namespace
} // namespace opdvfs::dvfs
