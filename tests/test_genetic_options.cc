/**
 * Behavioural tests of the GA knobs on a synthetic evaluator-free
 * setup: we build a tiny real evaluator from hand-made stages and
 * models so each option's effect is observable in isolation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "dvfs/evaluator.h"
#include "dvfs/genetic.h"
#include "npu/freq_table.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace opdvfs::dvfs {
namespace {

/**
 * Build a small evaluator over synthetic stages: half the stages hold
 * a frequency-insensitive operator (communication-like), half a fully
 * sensitive one, so the optimal strategy is obvious (drop insensitive
 * stages to minimum).
 */
struct TinyFixture
{
    npu::FreqTable table;
    power::CalibratedConstants constants;
    power::PowerModel power_model{initConstants(), npu::FreqTable{}};
    perf::PerfModelRepository repo;
    std::vector<Stage> stages;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    std::unique_ptr<StageEvaluator> evaluator;

    static power::CalibratedConstants
    initConstants()
    {
        power::CalibratedConstants c;
        c.beta_aicore = 5e-9;
        c.theta_aicore = 10.0;
        c.beta_soc = 1e-8;
        c.theta_soc = 150.0;
        c.gamma_aicore = 0.2;
        c.gamma_soc = 1.5;
        c.k_per_watt = 0.15;
        return c;
    }

    explicit TinyFixture(int stage_count)
    {
        // Profile records: op i measured at two frequencies.
        std::vector<trace::OpRecord> at1000, at1800;
        Tick t = 0;
        for (int i = 0; i < stage_count; ++i) {
            bool sensitive = i % 2 == 0;
            trace::OpRecord r;
            r.op_id = static_cast<std::uint64_t>(i);
            r.type = sensitive ? "MatMul" : "AllReduce";
            r.category = sensitive ? npu::OpCategory::Compute
                                   : npu::OpCategory::Communication;
            r.start = t;
            r.end = t + 10 * kTicksPerMs;
            t = r.end;
            r.duration_s = 10e-3;
            r.f_mhz = 1800.0;
            r.ratios.cube = sensitive ? 0.95 : 0.0;
            r.ratios.mte2 = sensitive ? 0.3 : 0.0;
            at1800.push_back(r);
            // At 1000 MHz the sensitive op takes 1.8x.
            r.duration_s = sensitive ? 18e-3 : 10e-3;
            r.f_mhz = 1000.0;
            at1000.push_back(r);

            Stage stage;
            stage.start = at1800[static_cast<std::size_t>(i)].start;
            stage.duration = 10 * kTicksPerMs;
            stage.high_frequency = sensitive;
            stage.first_op = static_cast<std::size_t>(i);
            stage.op_ids = {static_cast<std::uint64_t>(i)};
            stages.push_back(std::move(stage));

            op_power[static_cast<std::uint64_t>(i)] =
                power::OpPowerModel{sensitive ? 2e-8 : 1e-9,
                                    sensitive ? 8e-8 : 4e-8};
        }
        repo.addProfile(1000.0, at1000);
        repo.addProfile(1800.0, at1800);
        perf::PerfBuildOptions options;
        options.kind = perf::FitFunction::QuadOverF;
        repo.fitAll(options);
        evaluator = std::make_unique<StageEvaluator>(
            stages, repo, power_model, op_power, table);
    }
};

GaOptions
smallGa()
{
    GaOptions options;
    options.population = 30;
    options.generations = 40;
    options.refine_sweeps = 0;
    return options;
}

TEST(GaOptionsTest, FindsTheObviousOptimum)
{
    TinyFixture fixture(8);
    GaOptions options = smallGa();
    options.generations = 150;
    options.refine_sweeps = 4;
    options.perf_loss_target = 0.02;
    GaResult result =
        searchStrategy(*fixture.evaluator, fixture.stages, options);
    // Insensitive stages must end at the bottom of the table;
    // sensitive stages must stay at the top.
    for (std::size_t s = 0; s < fixture.stages.size(); ++s) {
        if (fixture.stages[s].high_frequency)
            EXPECT_GE(result.best_mhz[s], 1700.0) << s;
        else
            EXPECT_LE(result.best_mhz[s], 1100.0) << s;
    }
    EXPECT_LE(result.best_eval.seconds,
              result.baseline_eval.seconds * 1.021);
}

TEST(GaOptionsTest, MultiLevelPriorsHelpEarlyGenerations)
{
    TinyFixture fixture(30);
    GaOptions with = smallGa(), without = smallGa();
    with.generations = without.generations = 5; // early snapshot
    without.multi_level_priors = false;
    GaResult r_with =
        searchStrategy(*fixture.evaluator, fixture.stages, with);
    GaResult r_without =
        searchStrategy(*fixture.evaluator, fixture.stages, without);
    EXPECT_GE(r_with.score_history.front(),
              r_without.score_history.front());
}

TEST(GaOptionsTest, RefinementNeverHurts)
{
    TinyFixture fixture(20);
    GaOptions options = smallGa();
    options.refine_sweeps = 8;
    GaResult result =
        searchStrategy(*fixture.evaluator, fixture.stages, options);
    EXPECT_GE(result.best_score, result.pre_refine_score);
}

TEST(GaOptionsTest, ParallelForGetsBlocksOfRowsThatNeedScoring)
{
    // Generation 0 scores all 40 rows: three blocks of at most 16.
    // With every row an elite, later generations inherit every score
    // and make no call at all.
    TinyFixture fixture(6);
    GaOptions options = smallGa();
    options.population = 40;
    options.elite = 40;
    options.generations = 5;
    std::vector<std::size_t> calls;
    options.parallel_for = [&calls](
                               std::size_t count,
                               const std::function<void(std::size_t)> &fn) {
        calls.push_back(count);
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
    };
    GaResult blocked =
        searchStrategy(*fixture.evaluator, fixture.stages, options);
    EXPECT_EQ(calls, std::vector<std::size_t>{3});

    options.parallel_for = nullptr;
    GaResult serial =
        searchStrategy(*fixture.evaluator, fixture.stages, options);
    EXPECT_EQ(blocked.best_genome, serial.best_genome);
    EXPECT_EQ(blocked.score_history, serial.score_history);
}

TEST(GaOptionsTest, InvalidOptionsThrow)
{
    TinyFixture fixture(4);
    GaOptions bad = smallGa();
    bad.population = 1;
    EXPECT_THROW(searchStrategy(*fixture.evaluator, fixture.stages, bad),
                 std::invalid_argument);
    bad = smallGa();
    bad.generations = 0;
    EXPECT_THROW(searchStrategy(*fixture.evaluator, fixture.stages, bad),
                 std::invalid_argument);
}

TEST(GaOptionsTest, StageMismatchThrows)
{
    TinyFixture fixture(4);
    std::vector<Stage> wrong(fixture.stages.begin(),
                             fixture.stages.end() - 1);
    EXPECT_THROW(
        searchStrategy(*fixture.evaluator, wrong, smallGa()),
        std::invalid_argument);
}

} // namespace
} // namespace opdvfs::dvfs
