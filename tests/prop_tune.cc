/**
 * @file
 * Property suite over the tune subsystem.
 *
 * The surrogate must be exactly reproducible (same corpus, same
 * predictions), and every predicted strategy must be
 * frequency-table-snapped, meet the Eq. 17 performance lower bound
 * after repair, and carry a score and evaluation that are bitwise
 * what StageEvaluator::evaluate + strategyScore give for its genome.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "check/generators.h"
#include "check/prop.h"
#include "dvfs/genetic.h"
#include "npu/freq_table.h"
#include "power/power_model.h"
#include "tune/features.h"
#include "tune/surrogate.h"

namespace {

using namespace opdvfs;
using namespace opdvfs::check;

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a)
           == std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const dvfs::StrategyEvaluation &a,
         const dvfs::StrategyEvaluation &b)
{
    return sameBits(a.seconds, b.seconds)
           && sameBits(a.aicore_joules, b.aicore_joules)
           && sameBits(a.soc_joules, b.soc_joules)
           && sameBits(a.aicore_watts, b.aicore_watts)
           && sameBits(a.soc_watts, b.soc_watts)
           && sameBits(a.delta_t, b.delta_t);
}

// --- surrogate determinism ---------------------------------------------

struct SurrogateCase
{
    std::uint64_t seed = 0;
    int observations = 4;
    int rows_per_observation = 3;
};

tune::Observation
genObservation(Rng &rng, int rows)
{
    tune::Observation observation;
    for (int r = 0; r < rows; ++r) {
        tune::StageSample sample;
        for (std::size_t f = 0; f < tune::kStageFeatureCount; ++f)
            sample.features.push_back(rng.uniform(-2.0, 2.0));
        sample.target_mhz = rng.uniform(200.0, 2200.0);
        observation.push_back(std::move(sample));
    }
    return observation;
}

std::optional<std::string>
checkSurrogateDeterminism(const SurrogateCase &c)
{
    Rng rng(c.seed);
    std::vector<tune::Observation> corpus;
    for (int o = 0; o < c.observations; ++o)
        corpus.push_back(genObservation(rng, c.rows_per_observation));
    tune::Observation probe = genObservation(rng, 5);
    tune::Observation extra = genObservation(rng, c.rows_per_observation);

    tune::SurrogateOptions options;
    options.min_rows = 1;
    options.refit_interval_rows = 1;
    options.boost_rounds = 6;
    options.quantile_cuts = 4;

    tune::Surrogate first(options);
    tune::Surrogate second(options);
    first.seedCorpus(corpus);
    second.seedCorpus(corpus);
    if (!first.ready() || !second.ready())
        return std::string("surrogate not ready after seeding");

    std::vector<double> a = first.predictMhz(probe);
    std::vector<double> b = second.predictMhz(probe);
    if (a.size() != b.size() || a.size() != probe.size())
        return std::string("prediction size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i], b[i]))
            return std::string("same corpus, different predictions");

    // Same prediction twice from one instance (snapshot stability).
    std::vector<double> again = first.predictMhz(probe);
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i], again[i]))
            return std::string("prediction is not stable");

    // One more identical observation each: still in lockstep.
    first.observe(extra);
    second.observe(extra);
    std::vector<double> c1 = first.predictMhz(probe);
    std::vector<double> c2 = second.predictMhz(probe);
    for (std::size_t i = 0; i < c1.size(); ++i)
        if (!sameBits(c1[i], c2[i]))
            return std::string(
                "same observation stream, different models");
    return std::nullopt;
}

TEST(PropTune, SurrogateIsDeterministicOverTheCorpus)
{
    Property<SurrogateCase> prop(
        "surrogate-determinism",
        [](Rng &rng) {
            SurrogateCase c;
            c.seed = static_cast<std::uint64_t>(
                rng.uniformInt(0, 1'000'000'000));
            c.observations = static_cast<int>(rng.uniformInt(1, 8));
            c.rows_per_observation =
                static_cast<int>(rng.uniformInt(1, 6));
            return c;
        },
        checkSurrogateDeterminism);
    prop.withPrinter([](const SurrogateCase &c) {
        std::ostringstream os;
        os << "seed=" << c.seed << " observations=" << c.observations
           << " rows=" << c.rows_per_observation;
        return os.str();
    });
    OPDVFS_CHECK_PROP(prop);
}

// --- predicted strategies are snapped and feasible ---------------------

struct PredictCase
{
    TinyProblem problem;
    std::uint64_t seed = 0;
};

std::optional<std::string>
checkPredictedStrategy(const PredictCase &c)
{
    npu::FreqTable table(c.problem.freq);
    power::PowerModel power_model(c.problem.constants, table);
    dvfs::StageEvaluator evaluator(c.problem.stages, c.problem.perf,
                                   power_model, c.problem.op_power,
                                   table);
    const std::size_t n = evaluator.stageCount();
    if (n == 0)
        return std::string("tiny problem produced no stages");

    Rng rng(c.seed);
    tune::SurrogateOptions options;
    options.min_rows = 1;
    options.refit_interval_rows = 1;
    options.boost_rounds = 4;
    options.quantile_cuts = 4;
    tune::Surrogate surrogate(options);
    int trainings = static_cast<int>(rng.uniformInt(1, 4));
    for (int t = 0; t < trainings; ++t)
        surrogate.observe(
            genObservation(rng, static_cast<int>(rng.uniformInt(1, 6))));
    if (!surrogate.ready())
        return std::string("surrogate not ready after observe()");

    tune::Observation rows =
        genObservation(rng, static_cast<int>(n));
    tune::PredictedStrategy predicted = tune::predictStrategy(
        surrogate, rows, evaluator, c.problem.perf_loss_target);

    if (predicted.genome.size() != n || predicted.mhz.size() != n)
        return std::string("prediction has wrong stage count");
    const std::vector<double> &freqs = evaluator.frequenciesMhz();
    for (std::size_t s = 0; s < n; ++s) {
        if (predicted.genome[s] >= freqs.size())
            return std::string("gene outside the frequency table");
        if (!sameBits(predicted.mhz[s], freqs[predicted.genome[s]]))
            return std::string(
                "predicted MHz is not a table frequency");
    }

    double per_lb = 1e-6 / predicted.baseline_eval.seconds
                    * (1.0 - c.problem.perf_loss_target);
    double per = 1e-6 / predicted.eval.seconds;
    if (per < per_lb) {
        std::ostringstream os;
        os << "infeasible prediction: per " << per << " < bound "
           << per_lb << " after " << predicted.repair_steps
           << " repair steps";
        return os.str();
    }

    // The reported score/eval must be a real evaluator evaluation of
    // the returned genome, not an estimate.
    dvfs::StrategyEvaluation check_eval =
        evaluator.evaluate(predicted.genome);
    if (!sameBits(check_eval, predicted.eval))
        return std::string("reported eval is not evaluate(genome)");
    if (!sameBits(predicted.score,
                  dvfs::strategyScore(check_eval, per_lb)))
        return std::string("reported score is not Eq. 17 of the eval");

    // Determinism end to end: the same prediction twice.
    tune::PredictedStrategy second = tune::predictStrategy(
        surrogate, rows, evaluator, c.problem.perf_loss_target);
    if (second.genome != predicted.genome
        || !sameBits(second.score, predicted.score))
        return std::string("predictStrategy is not deterministic");
    return std::nullopt;
}

TEST(PropTune, PredictedStrategiesAreSnappedAndFeasible)
{
    Property<PredictCase> prop(
        "predicted-strategy-snapped-feasible",
        [](Rng &rng) {
            PredictCase c;
            c.problem = genTinyProblem(rng, 6, 4);
            c.seed = static_cast<std::uint64_t>(
                rng.uniformInt(0, 1'000'000'000));
            return c;
        },
        checkPredictedStrategy);
    prop.withPrinter([](const PredictCase &c) {
        std::ostringstream os;
        os << "seed=" << c.seed << "\n" << check::show(c.problem);
        return os.str();
    });
    OPDVFS_CHECK_PROP(prop);
}

} // namespace
