/**
 * Differential test of the exhaustive strategy search against the GA
 * at the bench options (Sect. 7.4: population 200 x 600 generations,
 * 12 refine sweeps).  On every zoo model whose genome space fits in
 * that budget (at most 5 stages at 9 frequency points) and on one-stage
 * serving first contacts, both searches return the same strategy bit
 * for bit: genome, frequencies, score, its evaluation and the baseline
 * evaluation.  On one stage the whole GaResult matches, history and
 * convergence generation included.  Each (workload, seed) is profiled
 * once and searched at every target.  Two stages with identical cell
 * tables pin the enumeration's tie rule: of two bitwise-equal optima,
 * the first in odometer order wins.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dvfs/evaluator.h"
#include "dvfs/genetic.h"
#include "dvfs/pipeline.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "npu/freq_table.h"
#include "power/offline_calibration.h"
#include "power/power_model.h"

namespace opdvfs::dvfs {
namespace {

const power::CalibratedConstants &
constants()
{
    static const power::CalibratedConstants value =
        power::calibrateOffline(npu::NpuConfig{});
    return value;
}

/** bench_table3_end2end's options for the CNN rows. */
PipelineOptions
benchOptions(std::uint64_t seed)
{
    PipelineOptions options;
    options.constants = constants();
    options.warmup_seconds = 25.0;
    options.fit_kind = perf::FitFunction::PwlCycles;
    options.profile_freqs_mhz = {1000.0, 1400.0, 1800.0};
    options.preprocess.fai = 5 * kTicksPerMs;
    options.ga.population = 200;
    options.ga.generations = 600;
    options.ga.mutation_rate = 0.15;
    options.seed = seed;
    return options;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const StrategyEvaluation &a, const StrategyEvaluation &b)
{
    return sameBits(a.seconds, b.seconds)
        && sameBits(a.aicore_joules, b.aicore_joules)
        && sameBits(a.soc_joules, b.soc_joules)
        && sameBits(a.aicore_watts, b.aicore_watts)
        && sameBits(a.soc_watts, b.soc_watts)
        && sameBits(a.delta_t, b.delta_t);
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i], b[i]))
            return false;
    return true;
}

/**
 * Search @p workload's prepared instance at each target with both
 * searches and compare; the GA seed derives from @p seed as in
 * EnergyPipeline::optimize.  Returns the stage count.
 */
std::size_t
compareAtTargets(const PipelineOptions &options,
                 const models::Workload &workload,
                 const std::vector<double> &targets)
{
    PreparedWorkload prepared = EnergyPipeline(options).prepare(workload);
    npu::FreqTable table(options.chip.freq);
    power::PowerModel power_model(prepared.constants, table);
    StageEvaluator evaluator(prepared.prep.stages, prepared.perf_models,
                             power_model, prepared.op_power, table);
    const std::size_t n = evaluator.stageCount();

    for (double target : targets) {
        SCOPED_TRACE(workload.name + " seed "
                     + std::to_string(options.seed) + " target "
                     + std::to_string(target) + ", "
                     + std::to_string(n) + " stages");
        GaOptions ga = options.ga;
        ga.perf_loss_target = target;
        ga.seed = options.seed * 7 + 13;
        GaResult genetic = geneticSearch(evaluator, prepared.prep.stages, ga);
        GaResult exhaustive =
            exhaustiveSearch(evaluator, prepared.prep.stages, ga);

        EXPECT_EQ(exhaustive.best_genome, genetic.best_genome);
        EXPECT_TRUE(sameBits(exhaustive.best_mhz, genetic.best_mhz));
        EXPECT_TRUE(sameBits(exhaustive.best_score, genetic.best_score))
            << exhaustive.best_score << " vs " << genetic.best_score;
        EXPECT_TRUE(sameBits(exhaustive.best_eval, genetic.best_eval));
        EXPECT_TRUE(sameBits(exhaustive.baseline_eval, genetic.baseline_eval));
        if (n == 1) {
            EXPECT_TRUE(
                sameBits(exhaustive.score_history, genetic.score_history));
            EXPECT_EQ(exhaustive.converged_at, genetic.converged_at);
            EXPECT_TRUE(sameBits(exhaustive.pre_refine_score,
                                 genetic.pre_refine_score));
        }
    }
    return n;
}

TEST(ExhaustiveSearch, MatchesTheGaOnEveryZooModelItCovers)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    for (const char *name :
         {"AlexNet", "ShuffleNetV2Plus", "ResNet50", "Deit_small", "VGG19"}) {
        models::Workload workload = models::buildWorkload(name, memory, 1);
        for (std::uint64_t seed : {1u, 7u, 2027u}) {
            std::size_t n = compareAtTargets(benchOptions(seed), workload,
                                             {0.02, 0.06, 0.10});
            // 9^5 = 59,049 genomes fit the bench budget of 120,000.
            EXPECT_LE(n, 5u) << name << " seed " << seed;
        }
    }
}

TEST(ExhaustiveSearch, MatchesTheGaWholeOnOneStageFirstContacts)
{
    // serve-mix's first contacts: 2-layer transformers under the
    // serving pipeline (0.5 s warm-up, two profile points).
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    const double targets[] = {0.02, 0.06, 0.10};
    int variant = 0;
    for (int hidden : {768, 1024, 1536}) {
        for (int seq : {262, 501, 764}) {
            models::TransformerConfig model;
            model.name = "first-contact-" + std::to_string(hidden) + "-"
                + std::to_string(seq);
            model.layers = 2;
            model.hidden = hidden;
            model.heads = 8;
            model.seq = seq;
            PipelineOptions options = benchOptions(3 + 11 * variant);
            options.warmup_seconds = 0.5;
            options.profile_freqs_mhz = {1000.0, 1800.0};
            std::size_t n = compareAtTargets(
                options, models::buildTransformerTraining(memory, model, 5),
                {targets[variant % 3]});
            EXPECT_EQ(n, 1u) << model.name;
            ++variant;
        }
    }
}

/**
 * Two stages with bitwise-identical cell tables: one partly
 * frequency-sensitive operator each, profiled identically.  Genomes
 * (i, j) and (j, i) then sum the same two cells in swapped order and,
 * addition being commutative, score bitwise equal.
 */
struct TwinStages
{
    npu::FreqTable table{npu::FreqTableConfig{}};
    power::PowerModel power_model{constants(), table};
    perf::PerfModelRepository repo;
    std::vector<Stage> stages;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    std::unique_ptr<StageEvaluator> evaluator;

    TwinStages()
    {
        for (double f : {1000.0, 1800.0}) {
            std::vector<trace::OpRecord> records;
            for (std::uint64_t id : {0u, 1u}) {
                trace::OpRecord r;
                r.op_id = id;
                r.type = "MatMul";
                r.category = npu::OpCategory::Compute;
                r.start = static_cast<Tick>(id) * 10 * kTicksPerMs;
                r.end = r.start + 10 * kTicksPerMs;
                // 30% slower at 1000 MHz than at 1800.
                r.duration_s = f == 1800.0 ? 10e-3 : 13e-3;
                r.f_mhz = f;
                r.ratios.cube = 0.6;
                records.push_back(r);
                if (f == 1800.0) {
                    Stage stage;
                    stage.start = r.start;
                    stage.duration = r.end - r.start;
                    stage.high_frequency = true;
                    stage.first_op = static_cast<std::size_t>(id);
                    stage.op_ids = {id};
                    stages.push_back(std::move(stage));
                    op_power[id] = power::OpPowerModel{2e-8, 8e-8};
                }
            }
            repo.addProfile(f, records);
        }
        perf::PerfBuildOptions options;
        options.kind = perf::FitFunction::QuadOverF;
        repo.fitAll(options);
        evaluator = std::make_unique<StageEvaluator>(
            stages, repo, power_model, op_power, table);
    }
};

TEST(ExhaustiveSearch, FirstOfTwoEqualOptimaInOdometerOrderWins)
{
    TwinStages twins;
    const StageEvaluator &evaluator = *twins.evaluator;
    for (std::size_t f = 0; f < evaluator.freqCount(); ++f) {
        const StageEvaluator::Cell &a = evaluator.cellAt(0, f);
        const StageEvaluator::Cell &b = evaluator.cellAt(1, f);
        ASSERT_TRUE(sameBits(a.seconds, b.seconds)
                    && sameBits(a.aicore_joules_no_t, b.aicore_joules_no_t)
                    && sameBits(a.soc_joules_no_t, b.soc_joules_no_t)
                    && sameBits(a.volt_seconds, b.volt_seconds))
            << f;
    }

    // At a 4% loss target both stages cannot drop to the same lower
    // point, so the optimum is one stage a step below the other: two
    // mirror-image genomes, bitwise tied.
    GaOptions options;
    options.perf_loss_target = 0.04;
    double per_lb = 1e-6 / evaluator.evaluateBaseline().seconds
        * (1.0 - options.perf_loss_target);
    double best = -1.0;
    std::vector<std::vector<std::uint8_t>> optima; // in odometer order
    for (std::size_t g1 = 0; g1 < evaluator.freqCount(); ++g1) {
        for (std::size_t g0 = 0; g0 < evaluator.freqCount(); ++g0) {
            std::vector<std::uint8_t> genome = {
                static_cast<std::uint8_t>(g0), static_cast<std::uint8_t>(g1)};
            double score = strategyScore(evaluator.evaluate(genome), per_lb);
            if (score > best)
                optima.clear();
            if (score >= best) {
                best = score;
                optima.push_back(genome);
            }
        }
    }
    ASSERT_EQ(optima.size(), 2u);
    ASSERT_NE(optima[0][0], optima[0][1]);
    ASSERT_EQ(optima[1],
              (std::vector<std::uint8_t>{optima[0][1], optima[0][0]}));

    // The first in odometer order (stage 0 fastest), stage 0 high.
    GaResult result = exhaustiveSearch(evaluator, twins.stages, options);
    EXPECT_EQ(result.best_genome, optima[0]);
    EXPECT_GT(result.best_genome[0], result.best_genome[1]);
    EXPECT_TRUE(sameBits(result.best_score, best));
}

} // namespace
} // namespace opdvfs::dvfs
