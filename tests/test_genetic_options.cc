/**
 * Behavioural tests of the GA knobs on a synthetic evaluator-free
 * setup: we build a tiny real evaluator from hand-made stages and
 * models so each option's effect is observable in isolation.  The GA
 * tests call geneticSearch, since searchStrategy enumerates spaces this
 * small; the routing tests check where searchStrategy draws that line
 * and that both routes reject the same invalid options.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
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
    power::PowerModel power_model;
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

    explicit TinyFixture(int stage_count, npu::FreqTableConfig freq = {})
        : table(freq), power_model(initConstants(), table)
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
        geneticSearch(*fixture.evaluator, fixture.stages, options);
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
        geneticSearch(*fixture.evaluator, fixture.stages, with);
    GaResult r_without =
        geneticSearch(*fixture.evaluator, fixture.stages, without);
    EXPECT_GE(r_with.score_history.front(),
              r_without.score_history.front());
}

TEST(GaOptionsTest, RefinementNeverHurts)
{
    TinyFixture fixture(20);
    GaOptions options = smallGa();
    options.refine_sweeps = 8;
    GaResult result =
        geneticSearch(*fixture.evaluator, fixture.stages, options);
    EXPECT_GE(result.best_score, result.pre_refine_score);
}

/** Invalid options of every kind the searches reject. */
std::vector<GaOptions>
invalidOptions()
{
    std::vector<GaOptions> bad(4, smallGa());
    bad[0].population = 1;
    bad[1].generations = 0;
    bad[2].prior_individuals = {{1400.0}, {}};
    // The baseline, the 1600/1800 prior and 8 of the 9 per-level
    // priors fill a population of 10 before any warm-start prior.
    bad[3].population = 10;
    bad[3].prior_individuals = {{}};
    return bad;
}

TEST(GaOptionsTest, InvalidOptionsThrow)
{
    // One stage (9 genomes) routes to enumeration at any valid budget,
    // eight stages (9^8 genomes) to the GA at this one.
    for (int stage_count : {1, 8}) {
        TinyFixture fixture(stage_count);
        for (const GaOptions &bad : invalidOptions()) {
            EXPECT_THROW(
                searchStrategy(*fixture.evaluator, fixture.stages, bad),
                std::invalid_argument)
                << stage_count;
            EXPECT_THROW(
                geneticSearch(*fixture.evaluator, fixture.stages, bad),
                std::invalid_argument);
            EXPECT_THROW(
                exhaustiveSearch(*fixture.evaluator, fixture.stages, bad),
                std::invalid_argument);
        }
    }
}

TEST(GaOptionsTest, EmptyPriorThrowsEvenWhenThePopulationIsFull)
{
    // Two stages, 81 genomes, over a budget of 10 x 40: the GA route.
    TinyFixture fixture(2);
    GaOptions full = invalidOptions()[3];
    ASSERT_TRUE(full.multi_level_priors);
    EXPECT_THROW(searchStrategy(*fixture.evaluator, fixture.stages, full),
                 std::invalid_argument);
}

TEST(GaOptionsTest, StageMismatchThrows)
{
    for (int stage_count : {1, 8}) {
        TinyFixture fixture(stage_count);
        std::vector<Stage> wrong(fixture.stages.begin(),
                                 fixture.stages.end() - 1);
        EXPECT_THROW(searchStrategy(*fixture.evaluator, wrong, smallGa()),
                     std::invalid_argument)
            << stage_count;
        EXPECT_THROW(geneticSearch(*fixture.evaluator, wrong, smallGa()),
                     std::invalid_argument);
        EXPECT_THROW(exhaustiveSearch(*fixture.evaluator, wrong, smallGa()),
                     std::invalid_argument);
    }
}

/** True when two results agree in every field, bit for bit. */
bool
sameResult(const GaResult &a, const GaResult &b)
{
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    auto sameEval = [&bits](const StrategyEvaluation &x,
                            const StrategyEvaluation &y) {
        return bits(x.seconds) == bits(y.seconds)
            && bits(x.aicore_joules) == bits(y.aicore_joules)
            && bits(x.soc_joules) == bits(y.soc_joules)
            && bits(x.aicore_watts) == bits(y.aicore_watts)
            && bits(x.soc_watts) == bits(y.soc_watts)
            && bits(x.delta_t) == bits(y.delta_t);
    };
    auto sameDoubles = [&bits](const std::vector<double> &x,
                               const std::vector<double> &y) {
        return std::ranges::equal(x, y, {}, bits, bits);
    };
    return a.best_genome == b.best_genome
        && sameDoubles(a.best_mhz, b.best_mhz)
        && bits(a.best_score) == bits(b.best_score)
        && sameEval(a.best_eval, b.best_eval)
        && sameEval(a.baseline_eval, b.baseline_eval)
        && sameDoubles(a.score_history, b.score_history)
        && a.converged_at == b.converged_at
        && bits(a.pre_refine_score) == bits(b.pre_refine_score);
}

/**
 * GA options at @p population x @p generations without the per-level
 * priors, so the GA does not start from the fixture's optimum and its
 * result differs from the enumeration's (each case asserts it).
 */
GaOptions
routingGa(int population, int generations)
{
    GaOptions options = smallGa();
    options.population = population;
    options.generations = generations;
    options.multi_level_priors = false;
    return options;
}

TEST(SearchRouting, EnumeratesExactlyWhenTheSpaceFitsTheBudget)
{
    // 9^4 = 6,561 genomes: within 81 x 81, past 82 x 80.
    TinyFixture four(4);
    for (auto [population, generations, enumerates] :
         {std::tuple{81, 81, true}, std::tuple{82, 80, false}}) {
        SCOPED_TRACE(std::to_string(population) + " x "
                     + std::to_string(generations));
        GaOptions options = routingGa(population, generations);
        GaResult genetic = geneticSearch(*four.evaluator, four.stages, options);
        GaResult exhaustive =
            exhaustiveSearch(*four.evaluator, four.stages, options);
        ASSERT_FALSE(sameResult(genetic, exhaustive));
        GaResult routed = searchStrategy(*four.evaluator, four.stages, options);
        EXPECT_TRUE(sameResult(routed, enumerates ? exhaustive : genetic));
    }

    // 9^1326 overflows any integer; the route is still the GA.  Its
    // refinement sweep lifts the result above its pre-refine score,
    // which an enumerated result never reports.
    TinyFixture gpt3_sized(1326);
    GaOptions options = routingGa(200, 1);
    options.refine_sweeps = 1;
    GaResult genetic =
        geneticSearch(*gpt3_sized.evaluator, gpt3_sized.stages, options);
    ASSERT_GT(genetic.best_score, genetic.pre_refine_score);
    EXPECT_TRUE(sameResult(
        searchStrategy(*gpt3_sized.evaluator, gpt3_sized.stages, options),
        genetic));
}

TEST(SearchRouting, EnumeratedResultIsTheExhaustiveSearch)
{
    TinyFixture four(4);
    GaOptions options = smallGa();
    options.population = 81;
    options.generations = 81;
    GaResult routed = searchStrategy(*four.evaluator, four.stages, options);
    GaResult exhaustive =
        exhaustiveSearch(*four.evaluator, four.stages, options);
    EXPECT_EQ(routed.best_genome, exhaustive.best_genome);
    EXPECT_EQ(routed.best_score, exhaustive.best_score);
    EXPECT_EQ(routed.score_history,
              std::vector<double>(81, exhaustive.best_score));
    EXPECT_EQ(routed.converged_at, 0);
    EXPECT_EQ(routed.pre_refine_score, routed.best_score);
    // The obvious optimum of the fixture.
    for (std::size_t s = 0; s < four.stages.size(); ++s) {
        if (four.stages[s].high_frequency)
            EXPECT_GE(routed.best_mhz[s], 1700.0) << s;
        else
            EXPECT_LE(routed.best_mhz[s], 1100.0) << s;
    }
}

TEST(SearchRouting, EnumerationVisitsEveryPointOfA256PointTable)
{
    // A 2 MHz step from 1000 to 1510 MHz: 256 points, so the top gene
    // is 255 and the odometer must stop without wrapping it.
    npu::FreqTableConfig fine;
    fine.step_mhz = 2.0;
    fine.max_mhz = 1510.0;
    TinyFixture one(1, fine);
    ASSERT_EQ(one.evaluator->freqCount(), 256u);
    GaOptions options = smallGa();
    GaResult result = exhaustiveSearch(*one.evaluator, one.stages, options);

    double per_lb = 1e-6 / result.baseline_eval.seconds
        * (1.0 - options.perf_loss_target);
    double best = -1.0;
    for (std::size_t f = 0; f < 256; ++f) {
        best = std::max(best, strategyScore(one.evaluator->evaluate(
                                                {static_cast<std::uint8_t>(f)}),
                                            per_lb));
    }
    EXPECT_EQ(result.best_score, best);
}

} // namespace
} // namespace opdvfs::dvfs
