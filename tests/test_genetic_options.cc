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

/** The serial refinement's result, and which acceptances it made. */
struct SerialRefinement
{
    std::vector<std::uint8_t> genome;
    double score = 0.0;
    StrategyEvaluation eval;
    /** Two moves accepted back to back at adjacent stages. */
    bool adjacent = false;
    /** A -1 move accepted where the +1 probe of the genome before it
     *  would also have beaten the new score. */
    bool stale_up_wins = false;
};

/**
 * The refinement loop as it ran before batching: every candidate a
 * fresh copy of the best genome, scored alone by evaluate().  The
 * reference the batched sweep must reproduce bit for bit.  (Two moves
 * at one stage are never accepted back to back: the +1 after an
 * accepted -1 rebuilds the genome it replaced.  What a batch must get
 * right there is to rebuild that +1 at all, rather than score the one
 * probed on the old genome.)
 */
SerialRefinement
serialRefine(const StageEvaluator &evaluator, const GaResult &start,
             double per_lb, int sweeps)
{
    const auto max_index = static_cast<int>(evaluator.freqCount() - 1);
    SerialRefinement out{start.best_genome, start.best_score,
                         start.best_eval};
    for (int sweep = 0; sweep < sweeps; ++sweep) {
        bool improved = false;
        std::size_t last_stage = out.genome.size();
        for (std::size_t s = 0; s < out.genome.size(); ++s) {
            for (int step : {-1, +1}) {
                int gene = static_cast<int>(out.genome[s]) + step;
                if (gene < 0 || gene > max_index)
                    continue;
                std::vector<std::uint8_t> candidate = out.genome;
                candidate[s] = static_cast<std::uint8_t>(gene);
                StrategyEvaluation eval = evaluator.evaluate(candidate);
                double score = strategyScore(eval, per_lb);
                if (score > out.score) {
                    out.adjacent |= last_stage + 1 == s;
                    if (step == -1 && gene + 2 <= max_index) {
                        std::vector<std::uint8_t> up = out.genome;
                        up[s] = static_cast<std::uint8_t>(gene + 2);
                        out.stale_up_wins |=
                            strategyScore(evaluator.evaluate(up), per_lb)
                            > score;
                    }
                    last_stage = s;
                    out.score = score;
                    out.genome = std::move(candidate);
                    out.eval = eval;
                    improved = true;
                }
            }
        }
        if (!improved)
            break;
    }
    return out;
}

/**
 * Two stages: a long frequency-insensitive one, and a short one whose
 * profiled time peaks at 1400 MHz (11, 12 and 2 ms at 1000, 1400 and
 * 1800 MHz, interpolated in cycles).  From 1400 MHz the refinement
 * accepts -1, and the +1 probe of the genome before that move scores
 * higher still: a sweep that scored it would take it.
 */
struct BumpFixture
{
    npu::FreqTable table{npu::FreqTableConfig{}};
    power::PowerModel power_model{TinyFixture::initConstants(), table};
    perf::PerfModelRepository repo;
    std::vector<Stage> stages;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    std::unique_ptr<StageEvaluator> evaluator;

    BumpFixture()
    {
        const double stage_ms[3][2] = {{100.0, 11.0},
                                       {100.0, 12.0},
                                       {100.0, 2.0}};
        const double freqs[3] = {1000.0, 1400.0, 1800.0};
        for (int f = 0; f < 3; ++f) {
            std::vector<trace::OpRecord> records;
            Tick t = 0;
            for (int i = 0; i < 2; ++i) {
                trace::OpRecord r;
                r.op_id = static_cast<std::uint64_t>(i);
                r.type = i == 0 ? "AllReduce" : "MatMul";
                r.category = i == 0 ? npu::OpCategory::Communication
                                    : npu::OpCategory::Compute;
                r.duration_s = stage_ms[f][i] * 1e-3;
                r.start = t;
                r.end = t + static_cast<Tick>(stage_ms[2][i] * kTicksPerMs);
                t = r.end;
                r.f_mhz = freqs[f];
                r.ratios.cube = i == 0 ? 0.0 : 0.95;
                records.push_back(r);
                if (f == 2) {
                    Stage stage;
                    stage.start = r.start;
                    stage.duration = r.end - r.start;
                    stage.high_frequency = i == 1;
                    stage.first_op = static_cast<std::size_t>(i);
                    stage.op_ids = {r.op_id};
                    stages.push_back(std::move(stage));
                }
            }
            repo.addProfile(freqs[f], records);
        }
        op_power[0] = power::OpPowerModel{1e-9, 4e-8};
        op_power[1] = power::OpPowerModel{2e-8, 8e-8};
        perf::PerfBuildOptions options;
        options.kind = perf::FitFunction::PwlCycles;
        repo.fitAll(options);
        evaluator = std::make_unique<StageEvaluator>(
            stages, repo, power_model, op_power, table);
    }
};

/** What the batched refinements of a search showed. */
struct Coverage
{
    bool adjacent = false;
    bool stale_up_wins = false;
};

/**
 * geneticSearch with 1, 2 and 12 refine sweeps returns the GaResult of
 * its unrefined search with the serial sweeps applied, bit for bit.
 */
void
expectSerialRefinement(const StageEvaluator &evaluator,
                       const std::vector<Stage> &stages, GaOptions options,
                       Coverage &coverage)
{
    options.refine_sweeps = 0;
    GaResult unrefined = geneticSearch(evaluator, stages, options);
    double per_lb = 1e-6 / unrefined.baseline_eval.seconds
        * (1.0 - options.perf_loss_target);
    for (int sweeps : {1, 2, 12}) {
        SerialRefinement serial =
            serialRefine(evaluator, unrefined, per_lb, sweeps);
        coverage.adjacent |= serial.adjacent;
        coverage.stale_up_wins |= serial.stale_up_wins;
        GaResult expected = unrefined;
        expected.best_genome = serial.genome;
        expected.best_score = serial.score;
        expected.best_eval = serial.eval;
        expected.best_mhz.clear();
        for (std::uint8_t gene : serial.genome)
            expected.best_mhz.push_back(evaluator.frequenciesMhz()[gene]);
        options.refine_sweeps = sweeps;
        EXPECT_TRUE(
            sameResult(geneticSearch(evaluator, stages, options), expected))
            << sweeps << " sweeps";
    }
}

TEST(GaRefinement, BatchedSweepsAreTheSerialSweeps)
{
    Coverage coverage;
    // Stage counts within one checkpoint block and across several; a
    // short GA leaves the refinement plenty to accept.
    for (int stage_count : {9, 70, 150}) {
        TinyFixture fixture(stage_count);
        for (double target : {0.02, 0.05}) {
            for (std::uint64_t seed : {1u, 2u, 3u}) {
                SCOPED_TRACE(std::to_string(stage_count) + " stages, target "
                             + std::to_string(target) + ", seed "
                             + std::to_string(seed));
                GaOptions options = routingGa(8, 3);
                options.perf_loss_target = target;
                options.seed = seed;
                expectSerialRefinement(*fixture.evaluator, fixture.stages,
                                       options, coverage);
            }
        }
    }
    EXPECT_TRUE(coverage.adjacent);

    // The bump stage starts at 1400 MHz: one generation of three, the
    // prior beating the baseline and the 1600/1800 prior.
    BumpFixture bump;
    GaOptions options = routingGa(3, 1);
    options.perf_loss_target = 0.15;
    options.prior_individuals = {{1000.0, 1400.0}};
    options.refine_sweeps = 0;
    ASSERT_EQ(geneticSearch(*bump.evaluator, bump.stages, options).best_mhz,
              options.prior_individuals.front());
    expectSerialRefinement(*bump.evaluator, bump.stages, options, coverage);
    EXPECT_TRUE(coverage.stale_up_wins);
}

} // namespace
} // namespace opdvfs::dvfs
