#include "dvfs/genetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace opdvfs::dvfs {

namespace {

/** Index of the supported frequency closest to @p mhz. */
std::uint8_t
closestIndex(const std::vector<double> &freqs, double mhz)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < freqs.size(); ++i) {
        if (std::abs(freqs[i] - mhz) < std::abs(freqs[best] - mhz))
            best = i;
    }
    return static_cast<std::uint8_t>(best);
}

/**
 * Convert a prior strategy (MHz per stage, possibly for a different
 * stage count) to a genome of length @p n: nearest-position resampling
 * over stage index, then snap each frequency to the table.
 */
std::vector<std::uint8_t>
genomeFromPrior(const std::vector<double> &prior_mhz, std::size_t n,
                const std::vector<double> &freqs)
{
    if (prior_mhz.empty())
        throw std::invalid_argument("searchStrategy: empty prior "
                                    "individual");
    std::vector<std::uint8_t> genome(n);
    for (std::size_t s = 0; s < n; ++s) {
        std::size_t src = n == 1 ? 0 : s * prior_mhz.size() / n;
        if (src >= prior_mhz.size())
            src = prior_mhz.size() - 1;
        genome[s] = closestIndex(freqs, prior_mhz[src]);
    }
    return genome;
}

} // namespace

double
strategyScore(const StrategyEvaluation &eval, double perf_lower_bound)
{
    if (eval.seconds <= 0.0 || eval.soc_watts <= 0.0)
        return 0.0;
    // Performance as iterations per microsecond, matching the e-16
    // score scale of Fig. 17.
    double per = 1e-6 / eval.seconds;
    double score = per * per / eval.soc_watts;
    // Eq. 17: meeting the bound doubles the score; missing it is the
    // penalty branch.
    return per >= perf_lower_bound ? 2.0 * score : score;
}

GaResult
searchStrategy(const StageEvaluator &evaluator,
               const std::vector<Stage> &stages, const GaOptions &options)
{
    if (stages.size() != evaluator.stageCount())
        throw std::invalid_argument("searchStrategy: stage mismatch");
    if (options.population < 2 || options.generations < 1)
        throw std::invalid_argument("searchStrategy: bad GA options");

    const std::size_t n = evaluator.stageCount();
    const auto &freqs = evaluator.frequenciesMhz();
    const auto max_index = static_cast<std::uint8_t>(freqs.size() - 1);
    Rng rng(options.seed);

    GaResult result;
    result.baseline_eval = evaluator.evaluateBaseline();
    double per_baseline = 1e-6 / result.baseline_eval.seconds;
    double per_lb = per_baseline * (1.0 - options.perf_loss_target);

    using Genome = std::vector<std::uint8_t>;

    // --- first generation -------------------------------------------------
    std::vector<Genome> population;
    population.reserve(static_cast<std::size_t>(options.population));
    population.emplace_back(n, max_index); // baseline individual

    auto makePrior = [&](std::uint8_t lfc, std::uint8_t hfc) {
        Genome prior(n, max_index);
        for (std::size_t s = 0; s < n; ++s)
            prior[s] = stages[s].high_frequency ? hfc : lfc;
        return prior;
    };
    population.push_back(
        makePrior(closestIndex(freqs, options.prior_lfc_mhz),
                  closestIndex(freqs, options.prior_hfc_mhz)));
    if (options.multi_level_priors) {
        // A size_t counter: a uint8_t one never passes a max_index of
        // 255 (a 256-point table).
        for (std::size_t lfc = 0; lfc < freqs.size(); ++lfc) {
            if (population.size()
                < static_cast<std::size_t>(options.population)) {
                population.push_back(
                    makePrior(static_cast<std::uint8_t>(lfc), max_index));
            }
        }
    }
    // Warm-start priors (e.g. cached strategies of similar workloads)
    // join generation 0 like any other individual; a bad prior simply
    // dies off, a good one pulls convergence forward.
    for (const auto &prior_mhz : options.prior_individuals) {
        if (population.size() >= static_cast<std::size_t>(options.population))
            break;
        population.push_back(genomeFromPrior(prior_mhz, n, freqs));
    }

    while (population.size() < static_cast<std::size_t>(options.population)) {
        Genome g(n);
        for (auto &gene : g)
            gene = static_cast<std::uint8_t>(rng.index(freqs.size()));
        population.push_back(std::move(g));
    }

    // --- evolution ---------------------------------------------------------
    std::vector<double> scores(population.size());
    std::vector<StrategyEvaluation> evals(population.size());
    result.best_score = -1.0;

    // Score every individual, in parallel when a loop is injected.
    // Each index writes only its own slot; the best-individual
    // reduction below runs serially in ascending index order, so
    // selection is independent of evaluation order and thread count.
    auto scoreAll = [&](const std::vector<Genome> &individuals) {
        auto scoreOne = [&](std::size_t i) {
            evals[i] = evaluator.evaluate(individuals[i]);
            scores[i] = strategyScore(evals[i], per_lb);
        };
        if (options.parallel_for) {
            options.parallel_for(individuals.size(), scoreOne);
        } else {
            for (std::size_t i = 0; i < individuals.size(); ++i)
                scoreOne(i);
        }
    };

    for (int gen = 0; gen < options.generations; ++gen) {
        scoreAll(population);
        for (std::size_t i = 0; i < population.size(); ++i) {
            if (scores[i] > result.best_score) {
                result.best_score = scores[i];
                result.best_genome = population[i];
                result.best_eval = evals[i];
                result.converged_at = gen;
            }
        }
        result.score_history.push_back(result.best_score);

        // Rank for elitism.
        std::vector<std::size_t> order(population.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&scores](std::size_t a, std::size_t b) {
                      return scores[a] > scores[b];
                  });

        std::vector<Genome> next;
        next.reserve(population.size());
        for (int e = 0; e < options.elite
             && e < static_cast<int>(order.size()); ++e)
            next.push_back(population[order[static_cast<std::size_t>(e)]]);

        while (next.size() < population.size()) {
            std::size_t ia = rng.weightedIndex(scores);
            std::size_t ib = rng.weightedIndex(scores);
            Genome a = population[ia];
            Genome b = population[ib];

            // Tail-swap crossover (Sect. 6.3.3): exchange the last k
            // frequency settings.
            if (n > 1 && rng.chance(options.crossover_rate)) {
                std::size_t k = rng.index(n - 1) + 1;
                for (std::size_t s = n - k; s < n; ++s)
                    std::swap(a[s], b[s]);
            }

            for (Genome *child : {&a, &b}) {
                if (rng.chance(options.mutation_rate)) {
                    std::size_t at = rng.index(n);
                    (*child)[at] =
                        static_cast<std::uint8_t>(rng.index(freqs.size()));
                }
                // Block mutation: neighbouring stages carry similar
                // bottlenecks, so moving a contiguous run together
                // explores the space far faster than point moves.
                if (rng.chance(options.block_mutation_rate)) {
                    std::size_t start = rng.index(n);
                    std::size_t len = rng.index(std::min<std::size_t>(
                                          n - start, 64)) + 1;
                    auto value = static_cast<std::uint8_t>(
                        rng.index(freqs.size()));
                    for (std::size_t s = start; s < start + len; ++s)
                        (*child)[s] = value;
                }
                if (next.size() < population.size())
                    next.push_back(std::move(*child));
            }
        }
        population = std::move(next);
    }

    // Memetic refinement: single-gene hill climbing from the GA's best
    // individual (library extension; disable with refine_sweeps = 0).
    result.pre_refine_score = result.best_score;
    for (int sweep = 0; sweep < options.refine_sweeps; ++sweep) {
        bool improved = false;
        for (std::size_t s = 0; s < n; ++s) {
            for (int step : {-1, +1}) {
                int gene = static_cast<int>(result.best_genome[s]) + step;
                if (gene < 0 || gene > static_cast<int>(max_index))
                    continue;
                Genome candidate = result.best_genome;
                candidate[s] = static_cast<std::uint8_t>(gene);
                StrategyEvaluation eval = evaluator.evaluate(candidate);
                double score = strategyScore(eval, per_lb);
                if (score > result.best_score) {
                    result.best_score = score;
                    result.best_genome = std::move(candidate);
                    result.best_eval = eval;
                    improved = true;
                }
            }
        }
        if (!improved)
            break;
    }

    result.best_mhz.reserve(n);
    for (std::uint8_t gene : result.best_genome)
        result.best_mhz.push_back(freqs[gene]);
    return result;
}

} // namespace opdvfs::dvfs
