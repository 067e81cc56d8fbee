#include "dvfs/genetic.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

namespace opdvfs::dvfs {

using Sums = StageEvaluator::Sums;

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
 * Write a prior strategy (MHz per stage, possibly for a different
 * stage count, never empty) into @p genome, a row of @p n genes:
 * nearest-position resampling over stage index, then snap each
 * frequency to the table.
 */
void
genomeFromPrior(const std::vector<double> &prior_mhz, std::size_t n,
                const std::vector<double> &freqs, std::uint8_t *genome)
{
    for (std::size_t s = 0; s < n; ++s) {
        std::size_t src = n == 1 ? 0 : s * prior_mhz.size() / n;
        if (src >= prior_mhz.size())
            src = prior_mhz.size() - 1;
        genome[s] = closestIndex(freqs, prior_mhz[src]);
    }
}

/** The checks both routes share, made before either runs. */
void
validate(const StageEvaluator &evaluator, const std::vector<Stage> &stages,
         const GaOptions &options)
{
    if (stages.size() != evaluator.stageCount())
        throw std::invalid_argument("searchStrategy: stage mismatch");
    if (options.population < 2 || options.generations < 1)
        throw std::invalid_argument("searchStrategy: bad GA options");
    for (const std::vector<double> &prior : options.prior_individuals) {
        if (prior.empty())
            throw std::invalid_argument("searchStrategy: empty prior "
                                        "individual");
    }
}

/**
 * True when all |F|^n genomes fit in the GA's budget of population x
 * generations scored genomes.  The product stops growing once it
 * passes the budget, so no stage count overflows it.
 */
bool
fitsBudget(std::size_t freqs, std::size_t stages, const GaOptions &options)
{
    const auto budget = static_cast<std::uint64_t>(options.population)
        * static_cast<std::uint64_t>(options.generations);
    std::uint64_t space = 1;
    for (std::size_t s = 0; s < stages; ++s) {
        if (space > budget / freqs)
            return false;
        space *= freqs;
    }
    return true;
}

/** The GA of the file comment, on validated options. */
GaResult
evolve(const StageEvaluator &evaluator, const std::vector<Stage> &stages,
       const GaOptions &options)
{
    const std::size_t n = evaluator.stageCount();
    const auto &freqs = evaluator.frequenciesMhz();
    const auto max_index = static_cast<std::uint8_t>(freqs.size() - 1);
    Rng rng(options.seed);

    GaResult result;
    result.baseline_eval = evaluator.evaluateBaseline();
    double per_baseline = 1e-6 / result.baseline_eval.seconds;
    double per_lb = per_baseline * (1.0 - options.perf_loss_target);

    // Populations are flat buffers, row i holding individual i's
    // genes, and children are bred straight into `next`.  Both buffers
    // (they swap each generation) end in a spare row: a second child
    // bred once the generation is full lands there, so its mutation
    // draws still advance the random stream.  Beside each buffer sit
    // its scored rows' checkpoints, the evaluator's partial sums at
    // every block: a child resumes its sums from its parent's.
    const auto pop = static_cast<std::size_t>(options.population);
    const std::size_t blocks = evaluator.blockCount();
    std::vector<std::uint8_t> population((pop + 1) * n);
    std::vector<std::uint8_t> next((pop + 1) * n);
    std::vector<Sums> checkpoints(pop * blocks);
    std::vector<Sums> next_checkpoints(pop * blocks);
    auto row = [n](std::vector<std::uint8_t> &rows, std::size_t i) {
        return rows.data() + i * n;
    };
    auto saved = [blocks](std::vector<Sums> &rows, std::size_t i) {
        return rows.data() + i * blocks;
    };

    // --- first generation -------------------------------------------------
    std::size_t filled = 0;
    std::fill_n(row(population, filled++), n, max_index); // baseline

    auto addPrior = [&](std::uint8_t lfc, std::uint8_t hfc) {
        std::uint8_t *prior = row(population, filled++);
        for (std::size_t s = 0; s < n; ++s)
            prior[s] = stages[s].high_frequency ? hfc : lfc;
    };
    addPrior(closestIndex(freqs, options.prior_lfc_mhz),
             closestIndex(freqs, options.prior_hfc_mhz));
    if (options.multi_level_priors) {
        // A size_t counter: a uint8_t one never passes a max_index of
        // 255 (a 256-point table).
        for (std::size_t lfc = 0; lfc < freqs.size(); ++lfc) {
            if (filled < pop)
                addPrior(static_cast<std::uint8_t>(lfc), max_index);
        }
    }
    // Warm-start priors (e.g. cached strategies of similar workloads)
    // join generation 0 like any other individual; a bad prior simply
    // dies off, a good one pulls convergence forward.
    for (const auto &prior_mhz : options.prior_individuals) {
        if (filled >= pop)
            break;
        genomeFromPrior(prior_mhz, n, freqs, row(population, filled++));
    }

    for (; filled < pop; ++filled) {
        std::uint8_t *genome = row(population, filled);
        for (std::size_t s = 0; s < n; ++s)
            genome[s] = static_cast<std::uint8_t>(rng.index(freqs.size()));
    }

    // --- evolution ---------------------------------------------------------
    std::vector<double> scores(pop), next_scores(pop), prefix(pop);
    std::vector<StrategyEvaluation> evals(pop), next_evals(pop);
    std::vector<std::size_t> order(pop);
    // Rows to evaluate and the block each resumes at: all of generation
    // 0 from block 0, then each generation's children that differ from
    // the row they were bred from, at the block of the first gene any
    // operator touched.
    std::vector<std::size_t> dirty(pop), resume(pop, 0);
    std::iota(dirty.begin(), dirty.end(), std::size_t{0});
    std::vector<Sums> best_checkpoints(blocks);
    result.best_score = -1.0;
    result.score_history.reserve(
        static_cast<std::size_t>(options.generations));

    for (int gen = 0; gen < options.generations; ++gen) {
        evaluator.evaluate(
            std::span<const std::uint8_t>(population.data(), pop * n),
            dirty, resume, checkpoints, evals);
        for (std::size_t i : dirty)
            scores[i] = strategyScore(evals[i], per_lb);
        for (std::size_t i = 0; i < pop; ++i) {
            if (scores[i] > result.best_score) {
                result.best_score = scores[i];
                result.best_genome.assign(row(population, i),
                                          row(population, i) + n);
                best_checkpoints.assign(saved(checkpoints, i),
                                        saved(checkpoints, i) + blocks);
                result.best_eval = evals[i];
                result.converged_at = gen;
            }
        }
        result.score_history.push_back(result.best_score);
        // The last generation's children would never be scored.
        if (gen + 1 == options.generations)
            break;

        // Rank for elitism.
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&scores](std::size_t a, std::size_t b) {
                      return scores[a] > scores[b];
                  });

        // Roulette selection over the running score sums, summed left
        // to right as a linear scan over the scores would.
        std::partial_sum(scores.begin(), scores.end(), prefix.begin());

        // evaluate() is a pure function of the genome, so an elite,
        // or a child that crossover and mutation left bytewise equal
        // to the row it was bred from, inherits that row's scores and
        // checkpoints.  Any other child matches its parent before
        // `first`, the lowest gene an operator touched, so it keeps
        // the parent's checkpoints up to that gene's block and resumes
        // there.
        auto inherit = [&](std::size_t child, std::size_t parent) {
            next_evals[child] = evals[parent];
            next_scores[child] = scores[parent];
            std::copy_n(saved(checkpoints, parent), blocks,
                        saved(next_checkpoints, child));
        };
        auto settle = [&](std::size_t child, std::size_t parent,
                          std::size_t first) {
            if (std::memcmp(row(next, child) + first,
                            row(population, parent) + first, n - first)
                == 0) {
                inherit(child, parent);
                return;
            }
            const std::size_t block = first / StageEvaluator::kBlockStages;
            std::copy_n(saved(checkpoints, parent), block + 1,
                        saved(next_checkpoints, child));
            dirty.push_back(child);
            resume.push_back(block);
        };
        // Point and block mutation of one child; returns the lowest
        // gene either touched, n when neither fired.
        auto mutate = [&](std::uint8_t *child) {
            std::size_t first = n;
            if (rng.chance(options.mutation_rate)) {
                std::size_t at = rng.index(n);
                child[at] = static_cast<std::uint8_t>(rng.index(freqs.size()));
                first = at;
            }
            // Block mutation: neighbouring stages carry similar
            // bottlenecks, so moving a contiguous run together
            // explores the space far faster than point moves.
            if (rng.chance(options.block_mutation_rate)) {
                std::size_t start = rng.index(n);
                std::size_t len =
                    rng.index(std::min<std::size_t>(n - start, 64)) + 1;
                auto value =
                    static_cast<std::uint8_t>(rng.index(freqs.size()));
                std::fill_n(child + start, len, value);
                first = std::min(first, start);
            }
            return first;
        };
        dirty.clear();
        resume.clear();
        filled = 0;
        for (; filled < pop && static_cast<int>(filled) < options.elite;
             ++filled) {
            std::copy_n(row(population, order[filled]), n,
                        row(next, filled));
            inherit(filled, order[filled]);
        }

        while (filled < pop) {
            std::size_t ia = rng.weightedIndex(prefix);
            std::size_t ib = rng.weightedIndex(prefix);
            const std::uint8_t *pa = row(population, ia);
            const std::uint8_t *pb = row(population, ib);

            // Tail-swap crossover (Sect. 6.3.3): exchange the last k
            // frequency settings.  Each child is written once, its
            // head from its own parent and its tail from the other.
            std::size_t cut = n;
            if (n > 1 && rng.chance(options.crossover_rate))
                cut = n - (rng.index(n - 1) + 1);
            std::uint8_t *a = row(next, filled);
            std::uint8_t *b = row(next, filled + 1);
            std::memcpy(a, pa, cut);
            std::memcpy(a + cut, pb + cut, n - cut);
            std::memcpy(b, pb, cut);
            std::memcpy(b + cut, pa + cut, n - cut);

            const std::size_t first_a = std::min(cut, mutate(a));
            const std::size_t first_b = std::min(cut, mutate(b));
            settle(filled++, ia, first_a);
            if (filled < pop)
                settle(filled++, ib, first_b);
        }
        std::swap(population, next);
        std::swap(scores, next_scores);
        std::swap(evals, next_evals);
        std::swap(checkpoints, next_checkpoints);
    }

    // Memetic refinement: single-gene hill climbing from the GA's best
    // individual (library extension; disable with refine_sweeps = 0).
    // A sweep tries each stage in order, -1 before +1, skipping genes
    // outside the table, and keeps a move whose score is strictly
    // higher.  Up to four moves are scored per batched call, each
    // resumed from the best genome's checkpoint at or before its
    // stage.  An accepted move drops the rest of its batch and the
    // sweep goes on from the move after it, built from the new best,
    // exactly as a one-move-at-a-time sweep would.
    result.pre_refine_score = result.best_score;
    constexpr std::size_t kBatch = 4;
    static constexpr std::size_t kBatchRows[kBatch] = {0, 1, 2, 3};
    std::vector<std::uint8_t> candidates(kBatch * n);
    std::vector<Sums> candidate_checkpoints(kBatch * blocks);
    std::vector<StrategyEvaluation> candidate_evals(kBatch);
    std::vector<std::size_t> moves, from;
    moves.reserve(kBatch);
    from.reserve(kBatch);
    for (int sweep = 0; sweep < options.refine_sweeps; ++sweep) {
        bool improved = false;
        // Move m sets stage m / 2 one step down (even m) or up.
        std::size_t move = 0;
        while (move < 2 * n) {
            moves.clear();
            from.clear();
            for (; move < 2 * n && moves.size() < kBatch; ++move) {
                const std::size_t s = move / 2;
                int gene = static_cast<int>(result.best_genome[s])
                    + (move % 2 == 0 ? -1 : +1);
                if (gene < 0 || gene > static_cast<int>(max_index))
                    continue;
                const std::size_t block = s / StageEvaluator::kBlockStages;
                std::uint8_t *candidate =
                    candidates.data() + moves.size() * n;
                std::copy_n(result.best_genome.data(), n, candidate);
                candidate[s] = static_cast<std::uint8_t>(gene);
                std::copy_n(best_checkpoints.data(), block + 1,
                            saved(candidate_checkpoints, moves.size()));
                moves.push_back(move);
                from.push_back(block);
            }
            const std::size_t batch = moves.size();
            evaluator.evaluate(
                std::span<const std::uint8_t>(candidates.data(), batch * n),
                std::span<const std::size_t>(kBatchRows, batch), from,
                std::span<Sums>(candidate_checkpoints.data(),
                                batch * blocks),
                std::span<StrategyEvaluation>(candidate_evals.data(),
                                              batch));
            for (std::size_t k = 0; k < batch; ++k) {
                double score = strategyScore(candidate_evals[k], per_lb);
                if (score > result.best_score) {
                    result.best_score = score;
                    std::copy_n(candidates.data() + k * n, n,
                                result.best_genome.data());
                    std::copy_n(saved(candidate_checkpoints, k), blocks,
                                best_checkpoints.data());
                    result.best_eval = candidate_evals[k];
                    improved = true;
                    move = moves[k] + 1;
                    break;
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

/** Every genome, in odometer order, on validated options. */
GaResult
enumerate(const StageEvaluator &evaluator, const GaOptions &options)
{
    const std::size_t n = evaluator.stageCount();
    const auto &freqs = evaluator.frequenciesMhz();

    GaResult result;
    result.baseline_eval = evaluator.evaluateBaseline();
    double per_baseline = 1e-6 / result.baseline_eval.seconds;
    double per_lb = per_baseline * (1.0 - options.perf_loss_target);

    std::vector<std::uint8_t> genome(n, 0);
    result.best_score = -1.0;
    while (true) {
        StrategyEvaluation eval = evaluator.evaluate(genome);
        double score = strategyScore(eval, per_lb);
        if (score > result.best_score) {
            result.best_score = score;
            result.best_genome = genome;
            result.best_eval = eval;
        }
        // Advance the odometer; a gene never steps past the table's
        // top index (255 on a 256-point table, where ++ would wrap).
        std::size_t s = 0;
        for (; s < n && genome[s] + 1u == freqs.size(); ++s)
            genome[s] = 0;
        if (s == n)
            break;
        ++genome[s];
    }

    // What an elitist GA whose first generation held the optimum
    // reports.
    result.score_history.assign(
        static_cast<std::size_t>(options.generations), result.best_score);
    result.converged_at = 0;
    result.pre_refine_score = result.best_score;
    result.best_mhz.reserve(n);
    for (std::uint8_t gene : result.best_genome)
        result.best_mhz.push_back(freqs[gene]);
    return result;
}

} // namespace

GaResult
searchStrategy(const StageEvaluator &evaluator,
               const std::vector<Stage> &stages, const GaOptions &options)
{
    validate(evaluator, stages, options);
    if (fitsBudget(evaluator.freqCount(), evaluator.stageCount(), options))
        return enumerate(evaluator, options);
    return evolve(evaluator, stages, options);
}

GaResult
geneticSearch(const StageEvaluator &evaluator,
              const std::vector<Stage> &stages, const GaOptions &options)
{
    validate(evaluator, stages, options);
    return evolve(evaluator, stages, options);
}

GaResult
exhaustiveSearch(const StageEvaluator &evaluator,
                 const std::vector<Stage> &stages, const GaOptions &options)
{
    validate(evaluator, stages, options);
    return enumerate(evaluator, options);
}

} // namespace opdvfs::dvfs
